#ifndef CORRMINE_COMMON_FLAGS_H_
#define CORRMINE_COMMON_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/status_or.h"

namespace corrmine {

/// Minimal command-line parser for the repository's tools: recognizes
/// "--key=value", "--key value" and bare "--key" (boolean) flags; anything
/// else is a positional argument. No registration step — callers query by
/// name with typed accessors and defaults.
class FlagParser {
 public:
  /// Parses argv (excluding argv[0]). "--" ends flag parsing; the rest is
  /// positional. Rejects malformed flags like "--=x".
  static StatusOr<FlagParser> Parse(int argc, const char* const* argv);

  bool HasFlag(const std::string& name) const;

  /// String flag (last occurrence wins); `fallback` if absent.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;

  /// Typed accessors; parse errors surface as statuses.
  StatusOr<uint64_t> GetUint64(const std::string& name,
                               uint64_t fallback) const;
  StatusOr<double> GetDouble(const std::string& name, double fallback) const;

  /// GetUint64 narrowed to the integer type the caller stores it in: a
  /// value above that type's maximum is InvalidArgument naming the flag,
  /// never a silent truncation.
  template <typename Int>
  StatusOr<Int> GetUint(const std::string& name, Int fallback) const {
    CORRMINE_ASSIGN_OR_RETURN(
        uint64_t value, GetUint64(name, static_cast<uint64_t>(fallback)));
    if (value > static_cast<uint64_t>(std::numeric_limits<Int>::max())) {
      return Status::InvalidArgument(
          "--" + name + " must be at most " +
          std::to_string(std::numeric_limits<Int>::max()) + ", got " +
          std::to_string(value));
    }
    return static_cast<Int>(value);
  }

  /// True when the flag appears bare or with a truthy value
  /// (1/true/yes/on).
  bool GetBool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Names of all flags seen (for unknown-flag validation by callers).
  std::vector<std::string> FlagNames() const;

 private:
  std::map<std::string, std::string> flags_;  // "" means bare flag.
  std::vector<std::string> positional_;
};

}  // namespace corrmine

#endif  // CORRMINE_COMMON_FLAGS_H_
