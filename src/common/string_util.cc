#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace corrmine {

std::vector<std::string_view> SplitString(std::string_view input,
                                          std::string_view delims) {
  std::vector<std::string_view> pieces;
  size_t start = 0;
  while (start < input.size()) {
    size_t end = input.find_first_of(delims, start);
    if (end == std::string_view::npos) end = input.size();
    if (end > start) pieces.push_back(input.substr(start, end - start));
    start = end + 1;
  }
  return pieces;
}

std::string_view TrimString(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

StatusOr<uint64_t> ParseUint64(std::string_view token) {
  if (token.empty()) return Status::InvalidArgument("empty integer token");
  uint64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("invalid integer token: " +
                                     std::string(token));
    }
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return Status::OutOfRange("integer overflow: " + std::string(token));
    }
    value = value * 10 + digit;
  }
  return value;
}

StatusOr<double> ParseDouble(std::string_view token) {
  if (token.empty()) return Status::InvalidArgument("empty double token");
  std::string buf(token);
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("invalid double token: " + buf);
  }
  // strtod also reports ERANGE on underflow, returning a subnormal or zero;
  // those are exact round-trips of what "%.17g" prints (tiny p-values), so
  // only overflow to infinity is an error.
  if (errno == ERANGE && std::isinf(value)) {
    return Status::OutOfRange("double out of range: " + buf);
  }
  return value;
}

std::string ToLowerAscii(std::string_view input) {
  std::string out(input);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

}  // namespace corrmine
