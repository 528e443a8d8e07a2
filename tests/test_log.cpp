#include "common/log.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace ppat::common {
namespace {

/// RAII guard restoring the global log level after each test.
struct LevelGuard {
  LogLevel saved = log_level();
  ~LevelGuard() { set_log_level(saved); }
};

TEST(Log, LevelRoundTrip) {
  LevelGuard guard;
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
}

TEST(Log, ThresholdOrdering) {
  // The enum must be ordered so that comparisons implement thresholds.
  EXPECT_LT(static_cast<int>(LogLevel::kDebug),
            static_cast<int>(LogLevel::kInfo));
  EXPECT_LT(static_cast<int>(LogLevel::kInfo),
            static_cast<int>(LogLevel::kWarn));
  EXPECT_LT(static_cast<int>(LogLevel::kWarn),
            static_cast<int>(LogLevel::kError));
  EXPECT_LT(static_cast<int>(LogLevel::kError),
            static_cast<int>(LogLevel::kOff));
}

TEST(Log, StreamMacroDoesNotCrashAtAnyLevel) {
  LevelGuard guard;
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kWarn, LogLevel::kOff}) {
    set_log_level(level);
    PPAT_DEBUG << "debug " << 1;
    PPAT_INFO << "info " << 2.5;
    PPAT_WARN << "warn " << "text";
    PPAT_ERROR << "error " << 'c';
  }
  SUCCEED();
}

TEST(Log, OffSuppressesEverything) {
  LevelGuard guard;
  set_log_level(LogLevel::kOff);
  // Nothing to assert on stderr portably; this documents the contract and
  // exercises the early-return path.
  log_line(LogLevel::kError, "should be suppressed");
  SUCCEED();
}

TEST(Log, ConcurrentLevelChangeIsRaceFree) {
  // Threads log and read the threshold while another thread flips it (a
  // data race here is what ThreadSanitizer flags). Both levels suppress the
  // kInfo lines, so the test prints nothing.
  LevelGuard guard;
  set_log_level(LogLevel::kWarn);
  std::atomic<bool> stop{false};
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> loggers;
  for (int t = 0; t < 4; ++t) {
    loggers.emplace_back([&] {
      while (!stop.load()) {
        PPAT_INFO << "suppressed";
        const LogLevel seen = log_level();
        if (seen != LogLevel::kWarn && seen != LogLevel::kOff) ++bad_reads;
      }
    });
  }
  for (int i = 0; i < 20000; ++i) {
    set_log_level(i % 2 == 0 ? LogLevel::kOff : LogLevel::kWarn);
  }
  stop.store(true);
  for (auto& t : loggers) t.join();
  EXPECT_EQ(bad_reads.load(), 0);
}

}  // namespace
}  // namespace ppat::common
