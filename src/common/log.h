// Minimal leveled logging.  Off by default so tests and benches stay quiet;
// examples turn on kInfo to narrate protocol traces.
#pragma once

#include <sstream>
#include <string>

namespace ratc {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

/// Global log threshold; messages below it are discarded.
void set_log_level(LogLevel level);
LogLevel log_level();

namespace detail {
void log_line(LogLevel level, const std::string& msg);
}

/// Writes `msg` to stderr whatever the log level, then aborts: for the
/// cross-checks whose failure must name what diverged.
[[noreturn]] void fatal(const std::string& msg);

}  // namespace ratc

#define RATC_LOG(level, expr)                                       \
  do {                                                              \
    if (static_cast<int>(level) >= static_cast<int>(::ratc::log_level())) { \
      std::ostringstream ratc_log_os_;                              \
      ratc_log_os_ << expr;                                         \
      ::ratc::detail::log_line(level, ratc_log_os_.str());          \
    }                                                               \
  } while (0)

#define RATC_TRACE(expr) RATC_LOG(::ratc::LogLevel::kTrace, expr)
#define RATC_DEBUG(expr) RATC_LOG(::ratc::LogLevel::kDebug, expr)
#define RATC_INFO(expr) RATC_LOG(::ratc::LogLevel::kInfo, expr)
#define RATC_WARN(expr) RATC_LOG(::ratc::LogLevel::kWarn, expr)
#define RATC_ERROR(expr) RATC_LOG(::ratc::LogLevel::kError, expr)

/// Streams `expr` into a message and calls ratc::fatal with it.
#define RATC_FATAL(expr)                   \
  do {                                     \
    std::ostringstream ratc_fatal_os_;     \
    ratc_fatal_os_ << expr;                \
    ::ratc::fatal(ratc_fatal_os_.str());   \
  } while (0)
