// Lightweight Status / Result types (no exceptions on hot paths).
//
// The protocol layers (BBP, scrmpi) report recoverable conditions --
// buffer exhaustion, bad arguments, expired waits -- through these types
// rather than exceptions; programming errors still assert.
#pragma once

#include <cassert>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace scrnet {

enum class StatusCode {
  kOk = 0,
  kNoSpace,        // data partition / queue exhausted even after GC
  kInvalidArg,     // caller error detectable at runtime
  kUnavailable,    // resource not usable in this state
  kTimedOut,       // bounded wait expired before the condition held
};

/// Human-readable name for a StatusCode.
constexpr std::string_view to_string(StatusCode c) {
  switch (c) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kNoSpace: return "NO_SPACE";
    case StatusCode::kInvalidArg: return "INVALID_ARG";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kTimedOut: return "TIMED_OUT";
  }
  return "UNKNOWN";
}

/// A status with optional message. Cheap to copy when OK.
class Status {
 public:
  Status() = default;
  explicit Status(StatusCode code, std::string msg = {})
      : code_(code), msg_(std::move(msg)) {}

  static Status Ok() { return Status{}; }
  static Status NoSpace(std::string m = {}) { return Status(StatusCode::kNoSpace, std::move(m)); }
  static Status InvalidArg(std::string m = {}) { return Status(StatusCode::kInvalidArg, std::move(m)); }
  static Status Unavailable(std::string m = {}) { return Status(StatusCode::kUnavailable, std::move(m)); }
  static Status TimedOut(std::string m = {}) { return Status(StatusCode::kTimedOut, std::move(m)); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  std::string to_string() const {
    std::string name(scrnet::to_string(code_));
    return msg_.empty() ? name : name.append(": ").append(msg_);
  }

  friend bool operator==(const Status& a, const Status& b) { return a.code_ == b.code_; }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string msg_;
};

/// Result<T>: either a value or an error Status.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}                       // NOLINT(google-explicit-constructor)
  Result(Status status) : v_(std::move(status)) {                 // NOLINT(google-explicit-constructor)
    assert(!std::get<Status>(v_).ok() && "Result error must not be OK");
  }

  bool ok() const { return std::holds_alternative<T>(v_); }
  const T& value() const& {
    assert(ok());
    return std::get<T>(v_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(v_);
  }
  Status status() const {
    return ok() ? Status::Ok() : std::get<Status>(v_);
  }
  const T& value_or(const T& alt) const { return ok() ? std::get<T>(v_) : alt; }

 private:
  std::variant<T, Status> v_;
};

}  // namespace scrnet
