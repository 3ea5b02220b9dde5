#include "util/log.hpp"

#include <cstdio>

namespace evm::util {

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::write(LogLevel level, const std::string& tag,
                   const std::string& message) {
  const char* name = "?";
  switch (level) {
    case LogLevel::kTrace: name = "TRACE"; break;
    case LogLevel::kDebug: name = "DEBUG"; break;
    case LogLevel::kInfo: name = "INFO"; break;
    case LogLevel::kWarn: name = "WARN"; break;
    case LogLevel::kError: name = "ERROR"; break;
    case LogLevel::kOff: return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string line;
  if (time_source_) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "[%12.6f] ", time_source_().to_seconds());
    line += buf;
  }
  line += "[";
  line += name;
  line += "] [";
  line += tag;
  line += "] ";
  line += message;
  std::fprintf(stderr, "%s\n", line.c_str());
}

}  // namespace evm::util
