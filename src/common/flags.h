#ifndef DBREPAIR_COMMON_FLAGS_H_
#define DBREPAIR_COMMON_FLAGS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"

namespace dbrepair {

/// Canonical spellings of the flags shared between the CLI and the
/// benchmark binaries. Binaries must reference these constants instead of
/// repeating the string, so the spellings cannot drift apart.
inline constexpr const char kFlagThreads[] = "--threads";
inline constexpr const char kFlagSolver[] = "--solver";
inline constexpr const char kFlagTraceOut[] = "--trace-out";

/// A tiny command-line flag parser: `--name value` for string/size flags,
/// bare `--name` for booleans. Deliberately free of any dependency on io/
/// or repair/ — values arrive as strings and callers run their own domain
/// parsers (ParseSolverKind etc.) afterwards, so every binary shares one
/// spelling and one error shape without layering inversions.
class FlagSet {
 public:
  /// Presence flag: `--name` sets `*value` to true.
  void AddBool(const std::string& name, bool* value, const std::string& help);

  /// `--name STR` stores STR into `*value`.
  void AddString(const std::string& name, std::string* value,
                 const std::string& help);

  /// `--name N` parses a non-negative integer into `*value`.
  void AddSize(const std::string& name, size_t* value,
               const std::string& help);

  /// Parses argv[start..argc). Arguments not starting with `--` go to
  /// `*positional` when provided; otherwise (and for unknown `--` flags or
  /// malformed values) an InvalidArgument status names the offender.
  Status Parse(int argc, char** argv, int start,
               std::vector<std::string>* positional = nullptr) const;

  /// One "  --name  help" line per registered flag, for usage text.
  std::string Usage() const;

 private:
  enum class Kind { kBool, kString, kSize };
  struct Flag {
    std::string name;
    Kind kind = Kind::kBool;
    bool* bool_value = nullptr;
    std::string* string_value = nullptr;
    size_t* size_value = nullptr;
    std::string help;
  };

  const Flag* Find(const std::string& name) const;

  std::vector<Flag> flags_;
};

}  // namespace dbrepair

#endif  // DBREPAIR_COMMON_FLAGS_H_
