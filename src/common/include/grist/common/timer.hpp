// Wall-clock timing with a process-global named-section registry, used by
// the model driver to report the dynamics/physics/communication split that
// the paper's scaling discussion relies on (sections 4.7-4.8).
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <string_view>

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

/// Accumulates wall time per named section across the whole process.
/// Thread-safe for distinct sections via per-call locking. Lookups are
/// heterogeneous, so adding to a section that already exists never touches
/// the heap.
class TimingRegistry {
 public:
  using Totals = std::map<std::string, double, std::less<>>;

  static TimingRegistry& instance();

  void add(std::string_view section, double seconds);
  double total(std::string_view section) const;
  /// Section name -> accumulated seconds; a snapshot copy.
  Totals snapshot() const;
  void clear();

 private:
  TimingRegistry() = default;
  Totals totals_;
};

/// RAII scope timer feeding TimingRegistry. `section` must outlive the
/// timer (a string literal in practice).
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* section) : section_(section) {}
  ~ScopedTimer() { TimingRegistry::instance().add(section_, timer_.elapsed()); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const char* section_;
  Timer timer_;
};

} // namespace grist
