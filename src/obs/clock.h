#ifndef DBREPAIR_OBS_CLOCK_H_
#define DBREPAIR_OBS_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace dbrepair::obs {

/// The shared steady-clock epoch that every event lane of one ObsContext
/// stamps against, so spans and work events of different threads merge
/// without skew: a shard event recorded on a worker sorts correctly inside
/// the pipeline thread's phase span.
class TraceClock {
 public:
  TraceClock() : epoch_ns_(NowNanos()) {}

  TraceClock(const TraceClock&) = delete;
  TraceClock& operator=(const TraceClock&) = delete;

  /// Nanoseconds on the process-wide steady clock.
  static int64_t NowNanos() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Seconds elapsed since the epoch.
  double SecondsSinceEpoch() const {
    return static_cast<double>(NowNanos() - epoch_ns_) * 1e-9;
  }

 private:
  const int64_t epoch_ns_;
};

}  // namespace dbrepair::obs

#endif  // DBREPAIR_OBS_CLOCK_H_
