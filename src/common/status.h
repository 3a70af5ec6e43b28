#ifndef DBREPAIR_COMMON_STATUS_H_
#define DBREPAIR_COMMON_STATUS_H_

#include <cassert>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace dbrepair {

/// Error categories used across the library. The library does not throw
/// exceptions across API boundaries; fallible operations return `Status` or
/// `Result<T>` instead (RocksDB/Arrow idiom).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kParseError,
  kConstraintNotLocal,
  kKeyViolation,
  kIoError,
  kInternal,
  kResourceExhausted,
  kFailedPrecondition,
};

/// Returns a human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// Every StatusCode, in enum order. Iterated by the wire round-trip test
/// and by WireCodeToStatusCode; keep in sync with the enum (the
/// static_assert in status.cc counts it).
inline constexpr StatusCode kAllStatusCodes[] = {
    StatusCode::kOk,
    StatusCode::kInvalidArgument,
    StatusCode::kNotFound,
    StatusCode::kAlreadyExists,
    StatusCode::kOutOfRange,
    StatusCode::kParseError,
    StatusCode::kConstraintNotLocal,
    StatusCode::kKeyViolation,
    StatusCode::kIoError,
    StatusCode::kInternal,
    StatusCode::kResourceExhausted,
    StatusCode::kFailedPrecondition,
};

/// The stable wire error code for `code`, as sent in the repair server's
/// `ERR <code> <message>` replies. These are a protocol surface: clients
/// match on them, so renaming one is a wire-breaking change (unlike
/// StatusCodeName, which is only for humans). The switch has no default
/// case, so adding a StatusCode without a wire spelling trips -Wswitch.
const char* StatusCodeToWireCode(StatusCode code);

/// Inverse of StatusCodeToWireCode. Returns false (leaving `code`
/// untouched) when `wire` names no known code — e.g. a reply from a newer
/// server.
bool WireCodeToStatusCode(std::string_view wire, StatusCode* code);

/// A success-or-error value. Cheap to copy on success (no allocation).
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with an explicit code — for callers that re-wrap
  /// an existing error with added context while preserving its category
  /// (e.g. the server prefixing a frame location onto a parse error).
  /// Prefer the named constructors when the code is fixed at the call site.
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status ConstraintNotLocal(std::string msg) {
    return Status(StatusCode::kConstraintNotLocal, std::move(msg));
  }
  static Status KeyViolation(std::string msg) {
    return Status(StatusCode::kKeyViolation, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  /// The call's inputs disagree with state it depends on (e.g. a stale
  /// columnar snapshot); retrying without fixing that state cannot succeed.
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// A value-or-error wrapper. Access `value()` only after checking `ok()`.
template <typename T>
class Result {
 public:
  /// Implicit so functions can `return value;` / `return status;`.
  Result(T value) : storage_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : storage_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(storage_).ok() &&
           "Result must not hold an OK status without a value");
  }

  bool ok() const { return std::holds_alternative<T>(storage_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(storage_);
  }

  const T& value() const& {
    assert(ok());
    return std::get<T>(storage_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(storage_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(storage_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> storage_;
};

/// Propagates a non-OK `Status` out of the enclosing function.
#define DBREPAIR_RETURN_IF_ERROR(expr)            \
  do {                                            \
    ::dbrepair::Status _st = (expr);              \
    if (!_st.ok()) return _st;                    \
  } while (0)

/// Evaluates `rexpr` (a Result<T>), propagates its error, otherwise binds the
/// value to `lhs`.
#define DBREPAIR_ASSIGN_OR_RETURN(lhs, rexpr)                 \
  DBREPAIR_ASSIGN_OR_RETURN_IMPL_(                            \
      DBREPAIR_STATUS_CONCAT_(_res, __LINE__), lhs, rexpr)
#define DBREPAIR_STATUS_CONCAT_INNER_(a, b) a##b
#define DBREPAIR_STATUS_CONCAT_(a, b) DBREPAIR_STATUS_CONCAT_INNER_(a, b)
#define DBREPAIR_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                    \
  if (!tmp.ok()) return tmp.status();                    \
  lhs = std::move(tmp).value()

}  // namespace dbrepair

#endif  // DBREPAIR_COMMON_STATUS_H_
