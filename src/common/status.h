// Error-handling vocabulary for the whole library.
//
// Services report expected failures (timeouts, lost majorities, bad
// capabilities, ...) through Status / Result<T>; exceptions are reserved for
// programming errors and for the simulator's process-kill unwind.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace amoeba {

enum class Errc {
  ok = 0,
  timeout,          // operation did not complete in time
  not_found,        // object / name / port does not exist
  exists,           // name already present
  no_majority,      // directory service lost quorum (paper Sec. 3.1)
  refused,          // server refused the request (e.g. conflicting update)
  io_error,         // simulated device failure
  bad_capability,   // check-field verification failed
  bad_request,      // malformed wire message
  conflict,         // replace-set precondition failed
  unreachable,      // peer crashed or partitioned away
  group_failure,    // group communication detected a member failure
  aborted,          // operation cancelled (shutdown / reset)
  full,             // device out of space (NVRAM, object table)
  internal,         // invariant violation that was turned into an error
};
/// The highest code; a reply's status byte above it is malformed.
inline constexpr Errc kLastErrc = Errc::internal;

/// Human-readable name of an error code ("timeout", "no_majority", ...).
std::string_view errc_name(Errc c);

/// A cheap, copyable (code, message) pair. `Status::ok()` is the success value.
class Status {
 public:
  Status() = default;
  Status(Errc code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  static Status ok() { return {}; }
  static Status error(Errc code, std::string msg = {}) {
    return Status{code, std::move(msg)};
  }

  [[nodiscard]] bool is_ok() const { return code_ == Errc::ok; }
  [[nodiscard]] Errc code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return msg_; }

  /// "ok" or "timeout: waiting for sequencer".
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  Errc code_ = Errc::ok;
  std::string msg_;
};

/// Either a value or an error Status. Accessing the wrong alternative is a
/// programming error and asserts.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}              // NOLINT(google-explicit-constructor)
  Result(Status status) : v_(std::move(status)) {}       // NOLINT(google-explicit-constructor)
  Result(Errc code, std::string msg) : v_(Status{code, std::move(msg)}) {}

  [[nodiscard]] bool is_ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return is_ok(); }

  [[nodiscard]] T& value() & { return std::get<T>(v_); }
  [[nodiscard]] const T& value() const& { return std::get<T>(v_); }
  [[nodiscard]] T&& value() && { return std::get<T>(std::move(v_)); }
  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  [[nodiscard]] Status status() const {
    if (is_ok()) return Status::ok();
    return std::get<Status>(v_);
  }
  [[nodiscard]] Errc code() const { return status().code(); }

  [[nodiscard]] T value_or(T fallback) const {
    return is_ok() ? std::get<T>(v_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> v_;
};

}  // namespace amoeba
