// Batched ensembles: M perturbed members stepped as ONE workload instead of
// M independent Model instances.
//
// An EnsembleRunner is a Model with M = members: Model owns the Dyn/Trac/Phy
// cadence for any member count, so the step, tracer transport and physics
// are one code path for solo runs and ensembles. What the runner adds is
// only what an ensemble has: the perturbed initial members (memberSeed,
// perturbState) and the mean/spread statistics.
//
// What is shared, held exactly once:
//   - mesh + TRSK weights (borrowed, like Model),
//   - the trained Q1Q2Net/RadMlp via shared_ptr -- including their quant
//     caches, so bf16/int8 weight packing happens once for all members,
//   - one M-member Dycore: its transient scratch is reused member after
//     member, and the vertical implicit solve runs member-per-SIMD-lane,
//   - one Coupler and the tracer-step mass-flux scratch.
//
// What is per member: the prognostic State, the physics suite and its
// input/output batch (the solo Model's own physics path), tskin/precip land
// bookkeeping, the tracer-window accumulators (the Dycore's mass-flux window
// included), and the perturbation seed.
//
// The contract: every member's full trajectory is BITWISE identical to the
// same (seed-matched) initial state run solo through Model, in DP and MIX,
// under conventional, Held-Suarez and fp32/quantized ML physics (ctest -L
// ENSEMBLE). Warm steps are heap-free (alloc-guard test).
#pragma once

#include <cstdint>
#include <vector>

#include "grist/core/model.hpp"

namespace grist::core {

struct EnsembleConfig {
  ModelConfig model;             ///< shared per-member configuration
  int members = 2;               ///< M
  std::uint64_t perturb_seed = 0;///< 0 = identical members (no perturbation)
  double perturb_amplitude = 1e-3;  ///< K, applied to theta at init
};

class EnsembleRunner final : public Model {
 public:
  /// Every member starts from `initial`; when perturb_seed != 0, member m's
  /// theta field is perturbed with memberSeed(perturb_seed, m) before the
  /// first step. Mesh/weights must outlive the runner.
  EnsembleRunner(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
                 EnsembleConfig config, const dycore::State& initial);

  /// The ensemble configuration; config().model is what every member runs.
  const EnsembleConfig& config() const { return config_; }

  /// Deterministic per-member seed derivation (splitmix64 over the base
  /// seed), shared with solo reruns of a single member.
  static std::uint64_t memberSeed(std::uint64_t base, int member);
  /// Deterministic theta perturbation: theta(c,k) += amplitude * u where
  /// u in [-1, 1) is hashed from (seed, flat index) -- independent of
  /// traversal order, so a solo Model fed the same seed starts bitwise
  /// identical to the ensemble member.
  static void perturbState(dycore::State& state, std::uint64_t seed,
                           double amplitude);

  /// Ensemble-mean surface pressure per cell (ptop + column delp sum).
  std::vector<double> meanSurfacePressure() const;
  /// Ensemble spread (population standard deviation across members) of
  /// surface pressure per cell.
  std::vector<double> spreadSurfacePressure() const;
  /// Area-weighted global mean of spreadSurfacePressure() -- the scalar a
  /// forecast run reports.
  double globalSpread() const;

 private:
  EnsembleConfig config_;
};

} // namespace grist::core
