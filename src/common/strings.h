#ifndef DBREPAIR_COMMON_STRINGS_H_
#define DBREPAIR_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dbrepair {

/// Removes ASCII whitespace from both ends of `s`.
std::string_view TrimWhitespace(std::string_view s);

/// Splits `s` on `sep`, keeping empty fields. "a,,b" -> {"a", "", "b"}.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits `s` on `sep` and trims each field.
std::vector<std::string> SplitAndTrim(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Parses a base-10 signed integer; the whole string must be consumed.
Result<int64_t> ParseInt64(std::string_view s);

/// Parses a floating point number; the whole string must be consumed.
Result<double> ParseDouble(std::string_view s);

/// The shortest decimal that ParseDouble reads back as exactly `v`
/// (0.1234567891, 1e-07, 1e+300, 2); NaN and infinities print as
/// "nan", "-nan", "inf", "-inf".
std::string FormatDouble(double v);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// ASCII lower-casing.
std::string ToLower(std::string_view s);

}  // namespace dbrepair

#endif  // DBREPAIR_COMMON_STRINGS_H_
