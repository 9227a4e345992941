// The GRIST-style layer-averaged nonhydrostatic solver (paper section
// 3.1.2): horizontally explicit (3-stage Wicker-Skamarock Runge-Kutta on
// the vector-invariant equations), vertically implicit (per-column
// tridiagonal acoustic solve for w and phi). Mixed precision is selected at
// runtime via DycoreConfig::ns and dispatched to the templated kernels.
//
// One Dycore steps M >= 1 member states through the same step: the
// transient scratch is shared (each member's iteration rewrites what it
// reads), only the tracer mass-flux accumulator and the pre-solver pressure
// are per member, and the implicit solve runs all members at once with the
// member as the SIMD lane.
// A solo run, a rank of a decomposed run and an ensemble are M = 1, M = 1
// with halo hooks, and M > 1.
#pragma once

#include <functional>
#include <vector>

#include "grist/dycore/config.hpp"
#include "grist/dycore/state.hpp"
#include "grist/grid/hex_mesh.hpp"
#include "grist/grid/trsk.hpp"
#include "grist/parallel/field.hpp"

namespace grist::dycore {

class Dycore {
 public:
  /// The mesh and TRSK weights must outlive the Dycore. `bounds` restricts
  /// compute to a rank's owned/diagnostic entities; the default covers the
  /// whole mesh (single-domain run). `members` is the number of states each
  /// step advances.
  Dycore(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
         DycoreConfig config, int members = 1);
  Dycore(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
         DycoreConfig config, Bounds bounds, int members = 1);

  /// Split-exchange hooks for communication-computation overlap. Each of
  /// the four exchange rounds of a step (3 RK stages + vertical solve)
  /// becomes: update boundary band -> post() -> update interior band ->
  /// wait(). post() packs and publishes this rank's outgoing halo data;
  /// wait() blocks until the incoming halo data is unpacked.
  struct OverlapHooks {
    std::function<void()> post;
    std::function<void()> wait;
  };

  /// Advance one dynamics step of config().dt seconds (three RK stages +
  /// one vertical implicit solve) on a single domain; requires
  /// members() == 1.
  void step(State& state);

  /// A decomposed rank's step (members() == 1): requires setBands(). The
  /// halos of the five prognostic fields are refreshed through `hooks`
  /// after every stage and after the vertical solve; bitwise identical to
  /// the single-domain step (band order only permutes independent
  /// per-entity loops).
  void step(State& state, const OverlapHooks& hooks);

  /// Advance members() states one step; `states` holds members() pointers.
  /// Each member ends bitwise where a solo step of it would.
  void step(State* const* states);

  /// Install the boundary/interior split of the prognostic entities
  /// (derived from the decomposition's exchange patterns). Throws if the
  /// lists do not exactly partition [0, cells_prog) / [0, edges_prog).
  void setBands(Bands bands);
  bool hasBands() const { return has_bands_; }

  /// Member m's accumulated horizontal dry-mass flux (edges x nlev) since
  /// the last resetAccumulatedFlux(); always double precision (paper
  /// section 3.4.2: the mass flux delta-pi*V feeding tracer transport must
  /// stay double).
  const parallel::Field& accumulatedMassFlux(int m = 0) const {
    return acc_flux_[static_cast<std::size_t>(m)];
  }
  /// Number of dynamics steps accumulated (members step in lockstep).
  int accumulatedSteps() const { return acc_steps_; }
  void resetAccumulatedFlux();
  /// Overwrite member 0's flux accumulator window (checkpoint restore: a
  /// snapshot taken mid-tracer-window resumes bitwise). `flux` must be
  /// edges x nlev.
  void restoreAccumulatedFlux(const parallel::Field& flux, int steps);

  int members() const { return nmembers_; }
  const DycoreConfig& config() const { return config_; }
  const Bounds& bounds() const { return bounds_; }

  /// Relative vorticity diagnostic at dual vertices for the current u
  /// (the paper's second mixed-precision observation point, "vor").
  std::vector<double> relativeVorticity(const State& state) const;

 private:
  template <typename NS>
  void stepImpl(State* const* states, const OverlapHooks* hooks);

  template <typename NS>
  void computeTendencies(const State& state);

  const grid::HexMesh& mesh_;
  const grid::TrskWeights& trsk_;
  DycoreConfig config_;
  Bounds bounds_;
  Bands bands_;
  bool has_bands_ = false;
  int nmembers_ = 1;

  // Scratch (allocated once, shared by all members), grouped by mesh
  // entity; the constructor asserts every field's size against its entity
  // count. Cell fields:
  parallel::Field div_flux_, ke_, alpha_, p_, div_u_;
  parallel::Field thetam_tend_, delp_tend_;
  parallel::Field delp0_, thetam0_;  // step-start copies for RK
  // Edge fields:
  parallel::Field flux_, uflux_, u_tend_;
  parallel::Field u0_;  // step-start copy for RK
  // Vertex fields:
  parallel::Field vor_, qv_;

  // Per member: the mass-flux accumulator, and for members 0..M-2 the
  // pre-solver pressure (the last member's stays in p_, so M = 1 adds none).
  std::vector<parallel::Field> acc_flux_;
  std::vector<parallel::Field> p_solve_;
  int acc_steps_ = 0;

  // Per-member operand tables for the lane-batched solve (sized once).
  std::vector<const double*> solve_delp_, solve_theta_, solve_p_;
  std::vector<double*> solve_w_, solve_phi_;
};

} // namespace grist::dycore
