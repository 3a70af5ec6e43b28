#include "common/status.h"

namespace dbrepair {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kConstraintNotLocal:
      return "ConstraintNotLocal";
    case StatusCode::kKeyViolation:
      return "KeyViolation";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
  }
  return "Unknown";
}

// One entry in kAllStatusCodes per enum value: extending the enum without
// listing the new code here fails the build, and the switch in
// StatusCodeToWireCode below (no default case) warns under -Wswitch.
static_assert(sizeof(kAllStatusCodes) / sizeof(kAllStatusCodes[0]) ==
                  static_cast<size_t>(StatusCode::kFailedPrecondition) + 1,
              "kAllStatusCodes must list every StatusCode");

const char* StatusCodeToWireCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "Ok";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kConstraintNotLocal:
      return "ConstraintNotLocal";
    case StatusCode::kKeyViolation:
      return "KeyViolation";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
  }
  return "Internal";
}

bool WireCodeToStatusCode(std::string_view wire, StatusCode* code) {
  for (const StatusCode candidate : kAllStatusCodes) {
    if (wire == StatusCodeToWireCode(candidate)) {
      *code = candidate;
      return true;
    }
  }
  return false;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace dbrepair
