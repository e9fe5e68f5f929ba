#include "common/string_util.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace crowdsky {

std::vector<std::string> SplitString(std::string_view input, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view input) {
  const char* kWs = " \t\r\n\f\v";
  const size_t begin = input.find_first_not_of(kWs);
  if (begin == std::string_view::npos) return {};
  const size_t end = input.find_last_not_of(kWs);
  return input.substr(begin, end - begin + 1);
}

Result<double> ParseDouble(std::string_view input) {
  const std::string_view text = TrimWhitespace(input);
  if (text.empty()) {
    return Status::InvalidArgument("cannot parse empty string as double");
  }
  double value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc() && ptr == text.data() + text.size() &&
      !std::isnan(value)) {
    return value;
  }
  // from_chars refuses a leading '+' and hex floats, and reports overflow
  // and underflow to zero; strtod decides those, and NaN payloads.
  const std::string buf(text);
  errno = 0;
  char* end = nullptr;
  value = std::strtod(buf.c_str(), &end);
  // glibc sets ERANGE on subnormal results too; those are exact, keep them.
  if (errno == ERANGE && (value == 0 || std::isinf(value))) {
    return Status::OutOfRange("double out of range: '" + buf + "'");
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("trailing characters in double: '" + buf +
                                   "'");
  }
  return value;
}

Result<int64_t> ParseInt64(std::string_view input) {
  const std::string buf(TrimWhitespace(input));
  if (buf.empty()) {
    return Status::InvalidArgument("cannot parse empty string as int64");
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::OutOfRange("int64 out of range: '" + buf + "'");
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("trailing characters in int64: '" + buf +
                                   "'");
  }
  return static_cast<int64_t>(value);
}

std::string JoinStrings(const std::vector<std::string>& items,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

std::string StringFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

void AppendDouble(std::string* out, double v) {
  // The longest %.17g output is 24 bytes ("-2.2250738585072014e-308").
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, v,
                                    std::chars_format::general, 17);
  out->append(buf, result.ptr);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

}  // namespace crowdsky
