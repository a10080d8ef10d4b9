#include "io/result_io.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <ostream>
#include <span>
#include <sstream>
#include <string_view>

#include "common/logging.h"
#include "common/string_util.h"

namespace corrmine::io {

namespace {

constexpr size_t kBufferBytes = size_t{64} << 10;

// Room for any double this file prints: "%.6f" of -DBL_MAX is a sign, 309
// integer digits, a point and 6 decimals; "%.17g" needs at most 24.
constexpr size_t kMaxDoubleChars =
    1 + (std::numeric_limits<double>::max_exponent10 + 1) + 1 + 6;

/// Batches appends into one 64 KiB block per std::ostream::write.
class OutputBuffer {
 public:
  explicit OutputBuffer(std::ostream& os)
      : os_(os), data_(std::make_unique<char[]>(kBufferBytes)) {}

  void Append(char c) {
    *Reserve(1) = c;
    ++used_;
  }

  void Append(std::string_view s) {
    if (s.size() > kBufferBytes) {
      Flush();
      Write(s.data(), s.size());
      return;
    }
    std::memcpy(Reserve(s.size()), s.data(), s.size());
    used_ += s.size();
  }

  void Fill(size_t n, char c = ' ') {
    while (n > 0) {
      const size_t run = std::min(n, kBufferBytes);
      std::memset(Reserve(run), c, run);
      used_ += run;
      n -= run;
    }
  }

  template <typename Int>
  void AppendInt(Int value) {
    constexpr size_t kMaxChars = std::numeric_limits<Int>::digits10 + 2;
    char* at = Reserve(kMaxChars);
    Commit(std::to_chars(at, at + kMaxChars, value).ptr);
  }

  /// printf's "%.17g".
  void AppendGeneral17(double value) {
    char* at = Reserve(kMaxDoubleChars);
    auto [end, ec] = std::to_chars(at, at + kMaxDoubleChars, value,
                                   std::chars_format::general, 17);
    CORRMINE_CHECK(ec == std::errc()) << "to_chars failed on " << value;
    Commit(end);
  }

  /// Hands the rest to the stream; returns the bytes handed over in all.
  uint64_t Finish() {
    Flush();
    return bytes_;
  }

 private:
  /// Room for `n` <= kBufferBytes bytes at the write position.
  char* Reserve(size_t n) {
    if (kBufferBytes - used_ < n) Flush();
    return data_.get() + used_;
  }
  void Commit(char* end) { used_ = static_cast<size_t>(end - data_.get()); }

  void Flush() {
    Write(data_.get(), used_);
    used_ = 0;
  }
  void Write(const char* data, size_t n) {
    os_.write(data, static_cast<std::streamsize>(n));
    bytes_ += n;
  }

  std::ostream& os_;
  std::unique_ptr<char[]> data_;
  size_t used_ = 0;
  uint64_t bytes_ = 0;
};

/// printf's "%.<precision>f" of one double, on the stack.
struct FixedChars {
  FixedChars(double value, int precision) {
    auto [end, ec] = std::to_chars(chars, chars + kMaxDoubleChars, value,
                                   std::chars_format::fixed, precision);
    CORRMINE_CHECK(ec == std::errc()) << "to_chars failed on " << value;
    size = static_cast<size_t>(end - chars);
  }
  std::string_view view() const { return {chars, size}; }

  char chars[kMaxDoubleChars];
  size_t size = 0;
};

size_t DecimalDigits(uint64_t value) {
  size_t digits = 1;
  while (value >= 10) {
    value /= 10;
    ++digits;
  }
  return digits;
}

/// The rule table's columns; see WriteRuleTable.
constexpr std::string_view kHeaders[] = {"itemset", "chi2", "p-value",
                                         "major dependence", "interest"};
constexpr size_t kColumns = std::size(kHeaders);
constexpr int kChi2Precision = 3;
constexpr int kPValuePrecision = 6;
constexpr int kInterestPrecision = 3;

/// Width of Itemset::ToString(): "{1, 22}".
size_t ItemsetChars(const Itemset& itemset) {
  size_t chars = 2 + (itemset.empty() ? 0 : 2 * (itemset.size() - 1));
  for (ItemId item : itemset) chars += DecimalDigits(item);
  return chars;
}

void AppendItemset(const Itemset& itemset, OutputBuffer& out) {
  out.Append('{');
  for (size_t j = 0; j < itemset.size(); ++j) {
    if (j > 0) out.Append(", ");
    out.AppendInt(itemset.item(j));
  }
  out.Append('}');
}

/// Item names for the pattern column: ids past the dictionary (all of them
/// for integer-id input, whose dictionary is empty) print as "i<id>".
class PatternNames {
 public:
  explicit PatternNames(const ItemDictionary* dict) {
    if (dict != nullptr) names_ = dict->names();
  }

  /// Width of FormatCellPattern(itemset, mask, dict): "{a, !i7}".
  size_t Chars(const Itemset& itemset, uint32_t mask) const {
    size_t chars = 2 + (itemset.empty() ? 0 : 2 * (itemset.size() - 1));
    for (size_t j = 0; j < itemset.size(); ++j) {
      const ItemId item = itemset.item(j);
      if (!((mask >> j) & 1)) ++chars;
      chars += item < names_.size() ? names_[item].size()
                                    : 1 + DecimalDigits(item);
    }
    return chars;
  }

  void Append(const Itemset& itemset, uint32_t mask,
              OutputBuffer& out) const {
    out.Append('{');
    for (size_t j = 0; j < itemset.size(); ++j) {
      if (j > 0) out.Append(", ");
      if (!((mask >> j) & 1)) out.Append('!');
      const ItemId item = itemset.item(j);
      if (item < names_.size()) {
        out.Append(names_[item]);
      } else {
        out.Append('i');
        out.AppendInt(item);
      }
    }
    out.Append('}');
  }

 private:
  std::span<const std::string> names_;
};

void AppendRightAligned(const FixedChars& number, size_t width,
                        OutputBuffer& out) {
  out.Fill(width - number.size);
  out.Append(number.view());
}

}  // namespace

uint64_t WriteMiningResult(const MiningResult& result, std::ostream& os) {
  OutputBuffer out(os);
  out.Append("# corrmine result v1\n");
  for (const LevelStats& level : result.levels) {
    out.Append("level ");
    out.AppendInt(level.level);
    for (uint64_t field : {level.possible_itemsets, level.candidates,
                           level.discards, level.significant,
                           level.not_significant}) {
      out.Append(' ');
      out.AppendInt(field);
    }
    out.Append('\n');
  }
  for (const CorrelationRule& rule : result.significant) {
    out.Append("rule ");
    out.AppendGeneral17(rule.chi2.statistic);
    out.Append(' ');
    out.AppendGeneral17(rule.chi2.p_value);
    out.Append(' ');
    out.AppendInt(rule.chi2.dof);
    out.Append(' ');
    out.AppendInt(rule.major_dependence.mask);
    out.Append(' ');
    out.AppendGeneral17(rule.major_dependence.interest);
    for (ItemId item : rule.itemset) {
      out.Append(' ');
      out.AppendInt(item);
    }
    out.Append('\n');
  }
  return out.Finish();
}

std::string SerializeMiningResult(const MiningResult& result) {
  std::ostringstream os;
  WriteMiningResult(result, os);
  return std::move(os).str();
}

Status WriteMiningResult(const MiningResult& result, const std::string& path,
                         uint64_t* bytes_written) {
  std::ofstream file(path);
  if (!file) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  const uint64_t bytes = WriteMiningResult(result, file);
  file.flush();
  if (!file) {
    return Status::IOError("error writing " + path);
  }
  if (bytes_written != nullptr) *bytes_written = bytes;
  return Status::OK();
}

uint64_t WriteRuleTable(const MiningResult& result, const ItemDictionary* dict,
                        std::ostream& os) {
  const PatternNames names(dict);
  // Pass 1: column widths, from the lengths of what pass 2 will print.
  size_t width[kColumns];
  for (size_t c = 0; c < kColumns; ++c) width[c] = kHeaders[c].size();
  for (const CorrelationRule& rule : result.significant) {
    const size_t cells[kColumns] = {
        ItemsetChars(rule.itemset),
        FixedChars(rule.chi2.statistic, kChi2Precision).size,
        FixedChars(rule.chi2.p_value, kPValuePrecision).size,
        names.Chars(rule.itemset, rule.major_dependence.mask),
        FixedChars(rule.major_dependence.interest, kInterestPrecision).size};
    for (size_t c = 0; c < kColumns; ++c) {
      width[c] = std::max(width[c], cells[c]);
    }
  }

  // Pass 2: stream. Every "%.Nf" rendering (inf and nan too) reads back
  // whole under strtod, so numbers are right-aligned; the brace cells and
  // the headers are not numbers and are left-aligned. The last column is a
  // number, so only the header row has trailing padding to trim.
  OutputBuffer out(os);
  size_t rule_width = 2 * (kColumns - 1);
  for (size_t c = 0; c < kColumns; ++c) {
    if (c > 0) out.Append("  ");
    out.Append(kHeaders[c]);
    if (c + 1 < kColumns) out.Fill(width[c] - kHeaders[c].size());
    rule_width += width[c];
  }
  out.Append('\n');
  out.Fill(rule_width, '-');
  out.Append('\n');
  for (const CorrelationRule& rule : result.significant) {
    AppendItemset(rule.itemset, out);
    out.Fill(width[0] - ItemsetChars(rule.itemset));
    out.Append("  ");
    AppendRightAligned(FixedChars(rule.chi2.statistic, kChi2Precision),
                       width[1], out);
    out.Append("  ");
    AppendRightAligned(FixedChars(rule.chi2.p_value, kPValuePrecision),
                       width[2], out);
    out.Append("  ");
    const uint32_t mask = rule.major_dependence.mask;
    names.Append(rule.itemset, mask, out);
    out.Fill(width[3] - names.Chars(rule.itemset, mask));
    out.Append("  ");
    AppendRightAligned(
        FixedChars(rule.major_dependence.interest, kInterestPrecision),
        width[4], out);
    out.Append('\n');
  }
  return out.Finish();
}

StatusOr<MiningResult> ParseMiningResult(const std::string& text) {
  MiningResult result;
  std::istringstream stream(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    std::string_view trimmed = TrimString(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    std::vector<std::string_view> fields = SplitString(trimmed);
    auto fail = [&](const std::string& why) {
      return Status::Corruption("line " + std::to_string(line_no) + ": " +
                                why);
    };
    if (fields[0] == "level") {
      if (fields.size() != 7) return fail("level row needs 6 fields");
      LevelStats level;
      CORRMINE_ASSIGN_OR_RETURN(uint64_t lvl, ParseUint64(fields[1]));
      level.level = static_cast<int>(lvl);
      CORRMINE_ASSIGN_OR_RETURN(level.possible_itemsets,
                                ParseUint64(fields[2]));
      CORRMINE_ASSIGN_OR_RETURN(level.candidates, ParseUint64(fields[3]));
      CORRMINE_ASSIGN_OR_RETURN(level.discards, ParseUint64(fields[4]));
      CORRMINE_ASSIGN_OR_RETURN(level.significant, ParseUint64(fields[5]));
      CORRMINE_ASSIGN_OR_RETURN(level.not_significant,
                                ParseUint64(fields[6]));
      result.levels.push_back(level);
    } else if (fields[0] == "rule") {
      if (fields.size() < 8) return fail("rule row needs >= 7 fields");
      CorrelationRule rule;
      CORRMINE_ASSIGN_OR_RETURN(rule.chi2.statistic,
                                ParseDouble(fields[1]));
      CORRMINE_ASSIGN_OR_RETURN(rule.chi2.p_value, ParseDouble(fields[2]));
      CORRMINE_ASSIGN_OR_RETURN(uint64_t dof, ParseUint64(fields[3]));
      rule.chi2.dof = static_cast<int64_t>(dof);
      CORRMINE_ASSIGN_OR_RETURN(uint64_t mask, ParseUint64(fields[4]));
      if (mask > UINT32_MAX) return fail("mask out of range");
      rule.major_dependence.mask = static_cast<uint32_t>(mask);
      CORRMINE_ASSIGN_OR_RETURN(rule.major_dependence.interest,
                                ParseDouble(fields[5]));
      std::vector<ItemId> items;
      for (size_t f = 6; f < fields.size(); ++f) {
        CORRMINE_ASSIGN_OR_RETURN(uint64_t id, ParseUint64(fields[f]));
        if (id > UINT32_MAX) return fail("item id out of range");
        items.push_back(static_cast<ItemId>(id));
      }
      rule.itemset = Itemset(std::move(items));
      result.significant.push_back(std::move(rule));
    } else {
      return fail("unknown record type '" + std::string(fields[0]) + "'");
    }
  }
  return result;
}

StatusOr<MiningResult> ReadMiningResult(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::IOError("cannot open " + path);
  }
  std::ostringstream content;
  content << file.rdbuf();
  if (file.bad()) {
    return Status::IOError("error reading " + path);
  }
  return ParseMiningResult(content.str());
}

}  // namespace corrmine::io
