#include "common/log.h"

#include <cstdio>
#include <cstdlib>

namespace ratc {
namespace {
LogLevel g_level = LogLevel::kOff;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level = level; }
LogLevel log_level() { return g_level; }

namespace detail {
void log_line(LogLevel level, const std::string& msg) {
  std::fprintf(stderr, "[%s] %s\n", level_name(level), msg.c_str());
}
}  // namespace detail

void fatal(const std::string& msg) {
  detail::log_line(LogLevel::kError, msg);
  std::abort();
}

}  // namespace ratc
