// Minimal leveled logger. The simulator installs a time source so log lines
// carry virtual time, which is what matters when debugging protocol traces.
//
// Thread-safety: the logger is a process-wide singleton and campaign/fuzz
// workers log through it concurrently (every worker runs a full protocol
// stack), so write() and set_time_source() synchronize on one mutex.
// enabled() stays lock-free (relaxed atomic) because it guards every EVM_LOG
// expansion in hot paths.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>

#include "util/time.hpp"

namespace evm::util {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) { level_.store(level, std::memory_order_relaxed); }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }

  /// Install a virtual-clock source (the simulator does this); nullptr to
  /// fall back to untimestamped lines.
  void set_time_source(std::function<TimePoint()> source) {
    const std::lock_guard<std::mutex> lock(mutex_);
    time_source_ = std::move(source);
  }

  bool enabled(LogLevel level) const {
    const LogLevel current = this->level();
    return level >= current && current != LogLevel::kOff;
  }
  void write(LogLevel level, const std::string& tag, const std::string& message);

 private:
  Logger() = default;
  std::atomic<LogLevel> level_{LogLevel::kWarn};
  // Serializes write() against set_time_source() for the process-wide
  // singleton; campaign workers share it.
  std::mutex mutex_;  // evm-lint: allow(C1)
  std::function<TimePoint()> time_source_;
};

#define EVM_LOG(level, tag, expr)                                         \
  do {                                                                    \
    if (::evm::util::Logger::instance().enabled(level)) {                 \
      std::ostringstream evm_log_oss;                                     \
      evm_log_oss << expr;                                                \
      ::evm::util::Logger::instance().write(level, tag, evm_log_oss.str()); \
    }                                                                     \
  } while (0)

#define EVM_TRACE(tag, expr) EVM_LOG(::evm::util::LogLevel::kTrace, tag, expr)
#define EVM_DEBUG(tag, expr) EVM_LOG(::evm::util::LogLevel::kDebug, tag, expr)
#define EVM_INFO(tag, expr) EVM_LOG(::evm::util::LogLevel::kInfo, tag, expr)
#define EVM_WARN(tag, expr) EVM_LOG(::evm::util::LogLevel::kWarn, tag, expr)
#define EVM_ERROR(tag, expr) EVM_LOG(::evm::util::LogLevel::kError, tag, expr)

}  // namespace evm::util
