// Leveled logging. Kept deliberately tiny: benches and simulations print
// structured tables through util/csv.hpp; the log is for diagnostics only.
#pragma once

#include <sstream>
#include <string>

namespace minivpic {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Global log threshold; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Parses a --log-level value (debug|info|warn|error); throws minivpic::Error
/// naming the value otherwise.
LogLevel parse_log_level(const std::string& s);

/// Writes one line to stderr with a level prefix (thread-safe).
void log_message(LogLevel level, const std::string& msg);

namespace detail {

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_message(level_, os_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};

}  // namespace detail

}  // namespace minivpic

#define MV_LOG_DEBUG ::minivpic::detail::LogLine(::minivpic::LogLevel::kDebug)
#define MV_LOG_INFO ::minivpic::detail::LogLine(::minivpic::LogLevel::kInfo)
#define MV_LOG_WARN ::minivpic::detail::LogLine(::minivpic::LogLevel::kWarn)
#define MV_LOG_ERROR ::minivpic::detail::LogLine(::minivpic::LogLevel::kError)
