#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <mutex>
#include <utility>

namespace hom {

namespace {
std::atomic<int> g_log_level{static_cast<int>(LogLevel::kWarning)};
std::atomic<bool> g_log_timestamps{false};

// The sink is read on every emitted line and swapped rarely; a mutex around
// a std::function copy is fine at that rate (the level check above already
// filtered the hot path).
std::mutex g_sink_mu;
LogSink& SinkSlot() {
  static LogSink* sink = new LogSink();  // leaked: usable during shutdown
  return *sink;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

/// "2026-08-07 14:03:07.123" in local time.
std::string FormatTimestamp() {
  auto now = std::chrono::system_clock::now();
  std::time_t seconds = std::chrono::system_clock::to_time_t(now);
  auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                    now.time_since_epoch())
                    .count() %
                1000;
  std::tm tm{};
  localtime_r(&seconds, &tm);
  // Room for seven ints at their widest ("-2147483648") plus the six
  // separators and the NUL, so no field value can truncate the stamp.
  char buffer[7 * 11 + 6 + 1];
  std::snprintf(buffer, sizeof(buffer),
                "%04d-%02d-%02d %02d:%02d:%02d.%03d", tm.tm_year + 1900,
                tm.tm_mon + 1, tm.tm_mday, tm.tm_hour, tm.tm_min, tm.tm_sec,
                static_cast<int>(millis));
  return buffer;
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_log_level.load(std::memory_order_relaxed));
}

void SetLogSink(LogSink sink) {
  std::lock_guard<std::mutex> lock(g_sink_mu);
  SinkSlot() = std::move(sink);
}

void SetLogTimestamps(bool enabled) {
  g_log_timestamps.store(enabled, std::memory_order_relaxed);
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(static_cast<int>(level) >=
               g_log_level.load(std::memory_order_relaxed)),
      level_(level) {
  if (enabled_) {
    if (g_log_timestamps.load(std::memory_order_relaxed)) {
      stream_ << FormatTimestamp() << " ";
    }
    stream_ << "[" << LevelName(level) << " " << file << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (!enabled_) return;
  LogSink sink;
  {
    std::lock_guard<std::mutex> lock(g_sink_mu);
    sink = SinkSlot();
  }
  if (sink) {
    sink(level_, stream_.str());
  } else {
    std::cerr << stream_.str() << std::endl;
  }
}

}  // namespace internal
}  // namespace hom
