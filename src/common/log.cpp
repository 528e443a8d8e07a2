#include "common/log.hpp"

#include <atomic>
#include <cstdio>

namespace ppat::common {
namespace {

// Relaxed ordering: the level guards no other data, it only has to be read
// and written without a data race.
std::atomic<LogLevel> g_level{LogLevel::kWarn};

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void log_line(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(log_level())) return;
  std::fprintf(stderr, "[%s] %s\n", level_tag(level), message.c_str());
}

}  // namespace ppat::common
