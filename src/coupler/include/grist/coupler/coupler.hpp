// Physics-dynamics coupling interface (paper section 3.2.4): passes
// (U, V, T, Q, P, tskin, coszr) from the dynamical core to the physics
// suite and maps the returned tendencies and diagnostics back for the next
// dynamics integration. Identical for the conventional and ML suites.
#pragma once

#include <vector>

#include "grist/dycore/state.hpp"
#include "grist/grid/hex_mesh.hpp"
#include "grist/physics/types.hpp"

namespace grist::coupler {

struct CouplerConfig {
  double ptop = 225.0;
  /// Tracer slots in dycore::State: qv, qc, qr.
  int tracer_qv = 0, tracer_qc = 1, tracer_qr = 2;
};

class Coupler {
 public:
  Coupler(const grid::HexMesh& mesh, int nlev, CouplerConfig config = {});

  /// Fill the physics input from the dynamical state. `tskin` is the land
  /// state owned by the model driver; `sim_seconds` drives the solar zenith
  /// angle (equinox sun, diurnal cycle).
  void stateToPhysics(const dycore::State& state, const std::vector<double>& tskin,
                      double sim_seconds, physics::PhysicsInput& input) const;

  /// Apply physics tendencies over dt: theta/tracers on cells, momentum
  /// projected back onto edge normals. Clips tracers at zero.
  void applyTendencies(const physics::PhysicsOutput& out, double dt,
                       dycore::State& state) const;

  /// Number of cells this coupler serves (the prognostic bound).
  Index ncolumns() const { return ncells_; }

 private:
  const grid::HexMesh& mesh_;
  int nlev_;
  CouplerConfig config_;
  Index ncells_;
  // Per-cell local east/north unit vectors (for wind projection). The only
  // mesh-sized storage: both directions run the EOS one column at a time
  // into per-thread Workspace rows.
  std::vector<Vec3> east_, north_;
};

} // namespace grist::coupler
