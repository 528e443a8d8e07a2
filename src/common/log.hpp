// Minimal leveled logger.
//
// The library is used both from benches (where progress lines are wanted) and
// from unit tests (where they are noise), so verbosity is a global runtime
// switch. The threshold is atomic, so pool, session and coordinator threads
// may log while another thread changes it; each line is one stdio call.
#pragma once

#include <sstream>
#include <string>

namespace ppat::common {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global threshold; messages below it are dropped. Defaults to kWarn so
/// library code stays quiet unless a harness opts in.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Emits one line ("[level] message") to stderr if `level` passes the
/// threshold.
void log_line(LogLevel level, const std::string& message);

namespace detail {

class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;
  ~LogMessage() { log_line(level_, stream_.str()); }

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace detail

}  // namespace ppat::common

#define PPAT_LOG(level) \
  ::ppat::common::detail::LogMessage(::ppat::common::LogLevel::level)

#define PPAT_DEBUG PPAT_LOG(kDebug)
#define PPAT_INFO PPAT_LOG(kInfo)
#define PPAT_WARN PPAT_LOG(kWarn)
#define PPAT_ERROR PPAT_LOG(kError)
