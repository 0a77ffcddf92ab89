// Minimal leveled logger.
//
// The simulator is deterministic and single-threaded per run, but sweeps run
// many simulations concurrently, so the sink is guarded by a mutex. Logging
// is fixed at Warn so benchmark output stays clean.
#pragma once

#include <mutex>
#include <sstream>
#include <string>

namespace marp::log {

enum class Level : int { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

/// Global threshold; messages below it are discarded cheaply.
Level threshold() noexcept;

/// Emit one line to stderr (thread-safe). `tag` identifies the subsystem.
void write(Level level, const std::string& tag, const std::string& message);

const char* level_name(Level level) noexcept;

namespace detail {
class LineBuilder {
 public:
  LineBuilder(Level level, std::string tag) : level_(level), tag_(std::move(tag)) {}
  LineBuilder(const LineBuilder&) = delete;
  LineBuilder& operator=(const LineBuilder&) = delete;
  ~LineBuilder() { write(level_, tag_, os_.str()); }

  template <typename T>
  LineBuilder& operator<<(const T& value) {
    os_ << value;
    return *this;
  }

 private:
  Level level_;
  std::string tag_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace marp::log

#define MARP_LOG(level, tag)                        \
  if (::marp::log::threshold() <= (level))          \
  ::marp::log::detail::LineBuilder((level), (tag))

#define MARP_LOG_TRACE(tag) MARP_LOG(::marp::log::Level::Trace, (tag))
#define MARP_LOG_DEBUG(tag) MARP_LOG(::marp::log::Level::Debug, (tag))
#define MARP_LOG_INFO(tag) MARP_LOG(::marp::log::Level::Info, (tag))
#define MARP_LOG_WARN(tag) MARP_LOG(::marp::log::Level::Warn, (tag))
#define MARP_LOG_ERROR(tag) MARP_LOG(::marp::log::Level::Error, (tag))
