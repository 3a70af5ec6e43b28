#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace dbrepair {

namespace {

// std::isspace in the C locale, which the library never leaves, without a
// library call per character (the CSV loader trims every field).
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' ||
         c == '\f';
}

}  // namespace

std::string_view TrimWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && IsSpace(s[begin])) ++begin;
  size_t end = s.size();
  while (end > begin && IsSpace(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> SplitAndTrim(std::string_view s, char sep) {
  std::vector<std::string> out = Split(s, sep);
  for (auto& field : out) {
    field = std::string(TrimWhitespace(field));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

Result<int64_t> ParseInt64(std::string_view s) {
  s = TrimWhitespace(s);
  if (s.empty()) return Status::ParseError("empty integer literal");
  int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::ParseError("invalid integer literal: '" + std::string(s) +
                              "'");
  }
  return value;
}

Result<double> ParseDouble(std::string_view s) {
  s = TrimWhitespace(s);
  if (s.empty()) return Status::ParseError("empty numeric literal");
  // std::from_chars for double is not implemented on all libstdc++ versions
  // this library targets, so fall back to strtod with full-consumption check.
  std::string owned(s);
  char* end = nullptr;
  const double value = std::strtod(owned.c_str(), &end);
  if (end != owned.c_str() + owned.size()) {
    return Status::ParseError("invalid numeric literal: '" + owned + "'");
  }
  return value;
}

std::string FormatDouble(double v) {
  char buffer[32];  // the shortest form of any double fits in 24 chars
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), v);
  return std::string(buffer, result.ptr);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace dbrepair
