// Passive tracer transport on accumulated mass fluxes with a monotone
// (Zalesak-style FCT) horizontal flux limiter -- the paper's
// tracer_transport_hori_flux_limiter kernel. Runs on the tracer timestep
// (Dyn:Trac = 4:30 in Table 2) using the time-mean mass flux the dycore
// accumulated in double precision.
#pragma once

#include "grist/grid/hex_mesh.hpp"
#include "grist/parallel/field.hpp"
#include "grist/precision/ns.hpp"

namespace grist::dycore {

struct TracerTransportArgs {
  const grid::HexMesh* mesh = nullptr;
  Index ncells_prog = 0;        ///< cells receiving the update
  int nlev = 0;
  double dt = 0;                ///< tracer step, seconds
  const double* mean_flux = nullptr;  ///< edges x nlev, time-mean delp*u*le
  const double* delp_old = nullptr;   ///< cells x nlev, at tracer-step start
  const double* delp_new = nullptr;   ///< cells x nlev, after the dyn steps
};

/// Advance tracer mixing ratio q (cells x nlev) in place. The flux-limited
/// update is conservative in delp*q and produces no new extrema.
/// NS controls the precision of the limiter arithmetic; mass bookkeeping
/// stays double (paper section 3.4.2).
template <precision::NsReal NS>
void tracerTransportHoriFluxLimiter(const TracerTransportArgs& args, double* q);

/// Runtime dispatch helper.
void tracerTransport(const TracerTransportArgs& args, precision::NsMode ns,
                     double* q);

} // namespace grist::dycore
