#include "util/logging.hpp"

#include <iostream>

namespace marp::log {

namespace {
std::mutex g_sink_mutex;
}  // namespace

Level threshold() noexcept { return Level::Warn; }

const char* level_name(Level level) noexcept {
  switch (level) {
    case Level::Trace: return "TRACE";
    case Level::Debug: return "DEBUG";
    case Level::Info: return "INFO";
    case Level::Warn: return "WARN";
    case Level::Error: return "ERROR";
    case Level::Off: return "OFF";
  }
  return "?";
}

void write(Level level, const std::string& tag, const std::string& message) {
  if (threshold() > level) return;
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  std::cerr << '[' << level_name(level) << "] " << tag << ": " << message << '\n';
}

}  // namespace marp::log
