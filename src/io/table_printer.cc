#include "io/table_printer.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/logging.h"

namespace corrmine::io {

namespace {

bool LooksNumeric(const std::string& cell) {
  if (cell.empty()) return false;
  char* end = nullptr;
  std::strtod(cell.c_str(), &end);
  return end == cell.c_str() + cell.size();
}

}  // namespace

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  CORRMINE_CHECK(!headers_.empty()) << "table needs at least one column";
}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  CORRMINE_CHECK(cells.size() == headers_.size())
      << "row has " << cells.size() << " cells, expected "
      << headers_.size();
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::Render() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::string out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += "  ";
      size_t pad = widths[c] - row[c].size();
      if (LooksNumeric(row[c])) {
        out.append(pad, ' ');
        out += row[c];
      } else {
        out += row[c];
        out.append(pad, ' ');
      }
    }
    // Trim trailing spaces.
    while (!out.empty() && out.back() == ' ') out.pop_back();
    out += '\n';
  };

  emit_row(headers_);
  size_t total = 0;
  for (size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c > 0 ? 2 : 0);
  }
  out.append(total, '-');
  out += '\n';
  for (const auto& row : rows_) emit_row(row);
  return out;
}

void TablePrinter::Print(std::ostream& os) const { os << Render(); }

std::string FormatDouble(double value, int precision) {
  // Large magnitudes print hundreds of integer digits; a stack buffer covers
  // the usual case, snprintf's return value sizes the rest.
  char buf[64];
  const int len = std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  if (len < 0) return std::string();
  if (static_cast<size_t>(len) < sizeof(buf)) return std::string(buf, len);
  std::string out(static_cast<size_t>(len), '\0');
  std::snprintf(out.data(), out.size() + 1, "%.*f", precision, value);
  return out;
}

std::string FormatPercent(double fraction, int precision) {
  return FormatDouble(fraction * 100.0, precision);
}

}  // namespace corrmine::io
