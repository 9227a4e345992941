// Dynamical-core run configuration. The defaults follow the paper's Table 2
// ratios: tracer transport runs on accumulated mass fluxes every
// `tracer_ratio` dynamics steps (Dyn:Trac = 4:30 in the paper).
#pragma once

#include <vector>

#include "grist/common/types.hpp"
#include "grist/precision/ns.hpp"

namespace grist::dycore {

struct DycoreConfig {
  int nlev = 30;          ///< vertical layers (Table 2 uses 30)
  double dt = 300.0;      ///< dynamics step, seconds
  int ntracers = 1;
  precision::NsMode ns = precision::NsMode::kDouble;

  double ptop = 225.0;    ///< model-top pressure, Pa (paper: 2.25 hPa)
  double p_surface = 1.0e5;

  /// Divergence damping coefficient (nondimensional; scaled by dx^2/dt).
  double div_damp = 0.02;
  /// Second-order horizontal diffusion coefficient for u/theta (same scaling).
  double diff_coef = 0.005;
  /// Rayleigh damping time scale for w near the model top, seconds
  /// (0 disables).
  double w_damp_tau = 0.0;
};

/// Compute loop bounds: a global run computes on every entity; a
/// decomposed rank computes prognostics on owned entities and diagnostics
/// on the owned + first-ring band (see parallel::LocalDomain).
struct Bounds {
  Index cells_prog = 0;   ///< prognostic cell updates
  Index cells_diag = 0;   ///< diagnostic cell updates (>= cells_prog)
  Index edges_prog = 0;
  Index vertices_diag = 0;
};

/// Boundary/interior split of the prognostic entities, used for
/// communication-computation overlap: boundary entities are the ones some
/// neighbor rank reads (they must be updated before the halo messages are
/// posted); interior entities are updated while the messages are in flight.
/// The two cell lists must partition [0, cells_prog) and the two edge lists
/// [0, edges_prog); Dycore::setBands validates this. Since the prognostic
/// update loops are independent per entity, computing the bands in either
/// order is bit-identical to the contiguous sweep.
struct Bands {
  std::vector<Index> boundary_cells;
  std::vector<Index> interior_cells;
  std::vector<Index> boundary_edges;
  std::vector<Index> interior_edges;
};

} // namespace grist::dycore
