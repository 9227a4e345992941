// Batched ensemble execution engine: step M model members as ONE
// workload instead of M independent Model instances.
//
// The dycore step is not ensemble-specific: Model runs the same
// dycore::Dycore at M = 1, this runner runs it at M = members, so the EOS,
// RK3 sweeps and implicit solve are one code path for both.
//
// What is shared, held exactly once:
//   - mesh + TRSK weights (borrowed, like Model),
//   - the trained Q1Q2Net/RadMlp via shared_ptr -- including their quant
//     caches, so bf16/int8 weight packing happens once for all members,
//   - one M-member Dycore: its transient scratch is reused member after
//     member, and the vertical implicit solve runs member-per-SIMD-lane,
//   - under the ML scheme, one fused MlPhysicsSuite over M*ncells columns:
//     every physics step concatenates all members' columns into one
//     PhysicsInput, so the Q1Q2/RadMlp GEMM batches (fp32 and quantized)
//     scale with M and the packed weight panels are streamed once per step
//     instead of M times (`cross_member_gemm` toggles this against M
//     per-member suites for the recorded benchmark pair).
//
// What is per member: the prognostic State, tskin/precip land bookkeeping,
// the tracer-window accumulators (the Dycore's mass-flux window included),
// and the perturbation seed.
//
// The contract: every member's full trajectory is BITWISE identical to the
// same (seed-matched) initial state run solo through Model, in DP and MIX,
// fp32 and quantized ML physics (ctest -L ENSEMBLE). Warm steps are
// heap-free (alloc-guard test).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "grist/core/model.hpp"
#include "grist/dycore/dycore.hpp"

namespace grist::core {

struct EnsembleConfig {
  ModelConfig model;             ///< shared per-member configuration
  int members = 2;               ///< M
  std::uint64_t perturb_seed = 0;///< 0 = identical members (no perturbation)
  double perturb_amplitude = 1e-3;  ///< K, applied to theta at init
  /// Fuse ML-physics batches across members (one predictBatch of M*ncells
  /// columns). Off = M per-member suites: same results bitwise, smaller
  /// GEMMs -- the benchmark comparison pair.
  bool cross_member_gemm = true;
};

class EnsembleRunner {
 public:
  /// Every member starts from `initial`; when perturb_seed != 0, member m's
  /// theta field is perturbed with memberSeed(perturb_seed, m) before the
  /// first step. Mesh/weights must outlive the runner.
  EnsembleRunner(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
                 EnsembleConfig config, const dycore::State& initial);

  /// Advance all members one dynamics step (tracer transport and physics
  /// fire on their cadences, batched across members).
  void step();
  void run(int ndyn_steps);

  int members() const { return config_.members; }
  const dycore::State& state(int m) const {
    return states_[static_cast<std::size_t>(m)];
  }
  const std::vector<double>& tskin(int m) const {
    return tskin_[static_cast<std::size_t>(m)];
  }
  const std::vector<double>& accumulatedPrecip(int m) const {
    return precip_accum_[static_cast<std::size_t>(m)];
  }
  double simSeconds() const { return sim_seconds_; }
  double simDays() const { return sim_seconds_ / 86400.0; }
  long dynSteps() const { return dyn_steps_; }
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
  void tracerStep();
  void physicsStep();

  const grid::HexMesh& mesh_;
  EnsembleConfig config_;
  dycore::Dycore dycore_;
  coupler::Coupler coupler_;
  std::vector<dycore::State> states_;
  std::vector<dycore::State*> state_ptrs_;

  // Fused-suite mode: one suite + one M*ncells-column batch.
  std::unique_ptr<physics::PhysicsSuite> fused_suite_;
  std::unique_ptr<physics::PhysicsInput> fused_in_;
  std::unique_ptr<physics::PhysicsOutput> fused_out_;
  // Per-member mode: M suites + M ncells-column batches.
  std::vector<std::unique_ptr<physics::PhysicsSuite>> member_suites_;
  std::vector<physics::PhysicsInput> member_in_;
  std::vector<physics::PhysicsOutput> member_out_;

  std::vector<parallel::Field> delp_at_tracer_start_;
  parallel::Field mean_flux_scratch_;
  std::vector<std::vector<double>> tskin_;
  std::vector<std::vector<double>> precip_accum_;
  double sim_seconds_ = 0.0;
  long dyn_steps_ = 0;
};

} // namespace grist::core
