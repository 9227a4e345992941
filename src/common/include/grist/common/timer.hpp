// Wall-clock stopwatch for the drivers' and benches' end-to-end timings.
#pragma once

#include <chrono>

namespace grist {

/// Simple monotonic stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Seconds since construction or the last reset().
  double elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  void reset() { start_ = Clock::now(); }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

} // namespace grist
