#include "util/log.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

#include "util/error.hpp"

namespace minivpic {

namespace {

std::atomic<LogLevel> g_level{LogLevel::kInfo};
std::mutex g_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }

LogLevel log_level() { return g_level.load(); }

LogLevel parse_log_level(const std::string& s) {
  if (s == "debug") return LogLevel::kDebug;
  if (s == "info") return LogLevel::kInfo;
  if (s == "warn") return LogLevel::kWarn;
  if (s == "error") return LogLevel::kError;
  MV_REQUIRE(false, "unknown --log-level '" << s
                                            << "' (debug|info|warn|error)");
}

void log_message(LogLevel level, const std::string& msg) {
  if (static_cast<int>(level) < static_cast<int>(g_level.load())) return;
  std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(stderr, "[%s] %s\n", level_name(level), msg.c_str());
}

}  // namespace minivpic
