// The benchmark's own arithmetic, kept free of model code so it can be unit
// tested (tests/test_bench_core.cpp): the percentile reporting rule, the
// step-class classifier, span recording with self-time accounting, the
// thread-budget rule and the rule for reporting a metric a run could not
// measure; plus the hex format fingerprints are printed in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock.
inline double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- percentiles ----------------------------------------------------------

/// A percentile is reported only when at least this many samples lie beyond
/// it; otherwise the tail is too thin for the number to repeat.
inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count the percentile was taken over
  std::size_t beyond = 0;   ///< samples strictly above its rank
};

/// Nearest-rank percentile q in (0, 1] of `v`, or nothing when fewer than
/// kMinBeyond samples rank above it.
inline std::optional<Percentile> tailPercentile(std::vector<double> v, double q) {
  const std::size_t n = v.size();
  if (n == 0) return std::nullopt;
  // The 1e-9 keeps q*n on an exact integer (0.95*200) from rounding up.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  const std::size_t beyond = n - rank;
  if (beyond < kMinBeyond) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return Percentile{v[rank - 1], n, beyond};
}

/// Plain median (mean of the middle pair for even counts); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- step classes ---------------------------------------------------------

/// What fired during one dynamics step. kPhys wins over kTrac when both
/// fire on the same step (every lcm(trac, phy) steps).
enum class StepClass { kDyn = 0, kTrac = 1, kPhys = 2 };
inline constexpr int kNumStepClasses = 3;

/// Classify the step that brought the dynamics step count to `step`
/// (1-based), under the driver cadence: tracer transport every
/// `trac_interval` steps, physics every `phy_interval` steps. Mirrors the
/// modulo tests in core::Model::step and core::EnsembleRunner::step.
inline StepClass classifyStep(long step, int trac_interval, int phy_interval) {
  if (step % phy_interval == 0) return StepClass::kPhys;
  if (step % trac_interval == 0) return StepClass::kTrac;
  return StepClass::kDyn;
}

// ---- spans ----------------------------------------------------------------

struct Span {
  int name = 0;      ///< index into the caller's fixed name table
  int parent = -1;   ///< index of the enclosing span, -1 for a root
  double start = 0.0;
  double end = 0.0;
  double duration() const { return end - start; }
};

/// In-memory span recorder: storage is reserved up front and names are
/// integer ids, so recording costs two clock reads and no allocation.
class SpanLog {
 public:
  explicit SpanLog(std::size_t reserve = 0) { spans_.reserve(reserve); }
  int begin(int name, int parent = -1) {
    spans_.push_back(Span{name, parent, now(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int span) { spans_[static_cast<std::size_t>(span)].end = now(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (clipped to the span).
inline std::vector<double> selfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, spans[i].start);
      hi = std::min(hi, spans[i].end);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

/// 16 hex digits, the way fingerprints are printed.
inline std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---- thread budget --------------------------------------------------------

/// Empty when `ranks` rank threads of `threads` OpenMP threads each fit on
/// `nproc` processors; otherwise the refusal message naming both numbers.
inline std::string threadBudgetError(int ranks, int threads, int nproc) {
  if (static_cast<long>(ranks) * threads <= nproc) return {};
  return "thread budget exceeded: " + std::to_string(ranks) + " ranks x " +
         std::to_string(threads) + " OpenMP threads = " +
         std::to_string(static_cast<long>(ranks) * threads) + " > nproc " +
         std::to_string(nproc);
}

// ---- reported metrics -----------------------------------------------------

struct Reported {
  double value = 0.0;
  std::string failure;  ///< empty when the value was measured and finite
};

/// The value a record reports for metric `name`. A check that fails stops
/// the run early: a window that never started leaves metrics unmeasured or
/// 0/0. Such a metric reads 0, so the record still parses and names every
/// metric, and the gap is a failure. A metric that is `optional` may be
/// absent without failing (a layer the workload does not run reads 0).
inline Reported reportMetric(const std::map<std::string, double>& measured,
                             const std::string& name, bool optional) {
  const auto it = measured.find(name);
  if (it == measured.end()) {
    return {0.0, optional ? "" : "metric " + name + " was not measured"};
  }
  if (!std::isfinite(it->second)) {
    return {0.0, "metric " + name + " is not finite (" +
                     std::to_string(it->second) + ")"};
  }
  return {it->second, {}};
}

} // namespace perfbench
