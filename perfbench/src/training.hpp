// Deterministic trained ML-physics weights for the ML workloads. Untrained
// (default-constructed) nets drive the coupled model non-finite within a few
// hundred steps, after which a run times NaN arithmetic; the benchmark
// therefore always steps nets trained with the in-repo recipe.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "grist/ml/q1q2_net.hpp"
#include "grist/ml/rad_mlp.hpp"

namespace perfbench {

inline constexpr int kNlev = 20;

/// The network shapes of examples/climate_ml.cpp and bench_ensemble.cpp.
grist::ml::Q1Q2NetConfig q1q2Config();
grist::ml::RadMlpConfig radConfig();

struct Nets {
  std::shared_ptr<const grist::ml::Q1Q2Net> q1q2;
  std::shared_ptr<const grist::ml::RadMlp> rad;
};

struct WeightFiles {
  std::string q1q2_path, rad_path;
  std::uint64_t q1q2_fingerprint = 0, rad_fingerprint = 0;
};

/// Paths of the cached weights for a fingerprint pair inside `dir`.
WeightFiles weightFiles(const std::string& dir, std::uint64_t q1q2_fp,
                        std::uint64_t rad_fp);

/// Run the examples/climate_ml.cpp recipe (Table 1 scenarios ->
/// synthesizeColumns -> harvestSamples -> 6 Adam epochs) and store the
/// weights in `dir` under their FNV-1a fingerprints; files that already
/// exist under the same fingerprint are reused, not rewritten.
WeightFiles trainAndCache(const std::string& dir);

/// Load weights and verify each file's fingerprint; throws on mismatch.
Nets loadNets(const WeightFiles& files);

/// Default-constructed (untrained) nets, for the finiteness self-test.
Nets untrainedNets();

}  // namespace perfbench
