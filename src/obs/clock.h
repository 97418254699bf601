#ifndef SFSQL_OBS_CLOCK_H_
#define SFSQL_OBS_CLOCK_H_

#include <atomic>
#include <cstdint>

namespace sfsql::obs {

/// Time source for every wall-clock measurement in the observability layer
/// (phase timers, query-profile latencies, bench reports). Injectable
/// so tests — and the EXPLAIN golden files — run on a deterministic clock.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic nanoseconds since an arbitrary epoch.
  virtual uint64_t NowNanos() const = 0;

  /// The process-wide std::chrono::steady_clock adapter (never null). Used
  /// whenever a configuration leaves its clock pointer unset.
  static const Clock* Steady();
};

/// Resolves an optional injected clock to a usable one.
inline const Clock* ClockOrSteady(const Clock* clock) {
  return clock != nullptr ? clock : Clock::Steady();
}

/// Deterministic clock for tests and golden files. Thread-safe: NowNanos
/// atomically returns the current reading and then advances it by
/// `auto_advance_nanos`, so successive measurements see strictly increasing,
/// fully reproducible times without any real waiting.
class FakeClock final : public Clock {
 public:
  explicit FakeClock(uint64_t start_nanos = 0, uint64_t auto_advance_nanos = 0)
      : now_(start_nanos), auto_advance_(auto_advance_nanos) {}

  uint64_t NowNanos() const override {
    return now_.fetch_add(auto_advance_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  }

  void Advance(uint64_t nanos) {
    now_.fetch_add(nanos, std::memory_order_relaxed);
  }

  void set_auto_advance(uint64_t nanos) {
    auto_advance_.store(nanos, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<uint64_t> now_;
  std::atomic<uint64_t> auto_advance_;
};

/// Nanosecond delta as (fractional) seconds.
inline double NanosToSeconds(uint64_t nanos) { return nanos * 1e-9; }

/// Inverse of NanosToSeconds (rounded to the nearest nanosecond).
inline uint64_t SecondsToNanos(double seconds) {
  return static_cast<uint64_t>(seconds * 1e9 + 0.5);
}

}  // namespace sfsql::obs

#endif  // SFSQL_OBS_CLOCK_H_
