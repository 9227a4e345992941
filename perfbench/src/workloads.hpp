// The four benchmark workloads, run through the library's public API.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Cached trained weights (ML workloads only).
  std::string q1q2_path, rad_path;
  std::uint64_t q1q2_fingerprint = 0, rad_fingerprint = 0;
  /// Default-constructed nets instead of the weight files: they blow the
  /// model up, which the finiteness self-test relies on.
  bool untrained_nets = false;
  /// Fresh per-run scratch directory (checkpoints).
  std::string tmp_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  ///< first few failed checks, named
  /// The metrics of this mode: end-to-end (untraced) or per-layer (traced).
  std::vector<Metric> metrics;
  /// Record-only numbers: step-class percentiles that are not gated, and
  /// the sample count behind every percentile.
  std::vector<Metric> extra;
  std::vector<std::pair<std::string, std::string>> context;
};

/// One measured run: set-up, then the untraced window (trace off) or the
/// traced run (trace on).
RunResult runWorkload(const RunOptions& opt);

/// One cold set-up only (setup_s and its phases): run.py takes the median
/// over several processes, the measured run's own set-up among them.
std::vector<Metric> measureSetup(const RunOptions& opt);

}  // namespace perfbench
