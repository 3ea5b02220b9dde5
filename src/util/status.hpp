// Lightweight Status / Result error handling for recoverable runtime
// failures (admission rejected, migration aborted, attestation failed...).
// Exceptions remain for programming errors; Status is for expected outcomes
// the caller must branch on.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace evm::util {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kResourceExhausted,   // admission or RAM budget rejected
  kFailedPrecondition,  // e.g. node not in the required mode
  kUnavailable,         // link down, peer unreachable
  kDeadlineExceeded,
  kDataLoss,            // attestation / CRC failure
  kUnimplemented,
  kInternal,
};

inline const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kAlreadyExists: return "ALREADY_EXISTS";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kDataLoss: return "DATA_LOSS";
    case StatusCode::kUnimplemented: return "UNIMPLEMENTED";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

class Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return {}; }
  static Status invalid_argument(std::string m) { return {StatusCode::kInvalidArgument, std::move(m)}; }
  static Status not_found(std::string m) { return {StatusCode::kNotFound, std::move(m)}; }
  static Status already_exists(std::string m) { return {StatusCode::kAlreadyExists, std::move(m)}; }
  static Status resource_exhausted(std::string m) { return {StatusCode::kResourceExhausted, std::move(m)}; }
  static Status failed_precondition(std::string m) { return {StatusCode::kFailedPrecondition, std::move(m)}; }
  static Status unavailable(std::string m) { return {StatusCode::kUnavailable, std::move(m)}; }
  static Status deadline_exceeded(std::string m) { return {StatusCode::kDeadlineExceeded, std::move(m)}; }
  static Status data_loss(std::string m) { return {StatusCode::kDataLoss, std::move(m)}; }
  static Status internal(std::string m) { return {StatusCode::kInternal, std::move(m)}; }

  bool ok_value() const { return code_ == StatusCode::kOk; }
  explicit operator bool() const { return ok_value(); }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string to_string() const {
    if (ok_value()) return "OK";
    return std::string(evm::util::to_string(code_)) + ": " + message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Result<T>: either a value or an error Status.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok_value() && "Result constructed from OK status without value");
  }

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  const Status& status() const { return status_; }

  T& value() {
    assert(ok());
    return *value_;
  }
  const T& value() const {
    assert(ok());
    return *value_;
  }
  T value_or(T fallback) const { return ok() ? *value_ : std::move(fallback); }

  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace evm::util
