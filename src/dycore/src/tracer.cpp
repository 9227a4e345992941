#include "grist/dycore/tracer.hpp"

#include <stdexcept>

#include "grist/backend/simd.hpp"
#include "grist/common/workspace.hpp"

namespace grist::dycore {

template <precision::NsReal NS>
void tracerTransportHoriFluxLimiter(const TracerTransportArgs& a, double* q) {
  if (a.mesh == nullptr || a.mean_flux == nullptr || a.delp_old == nullptr ||
      a.delp_new == nullptr) {
    throw std::invalid_argument("tracerTransport: null argument");
  }
  const grid::HexMesh& m = *a.mesh;
  const int nlev = a.nlev;
  const double dt = a.dt;

  // Work arrays from the calling thread's arena: first call per tracer
  // size grows it once, every later call (one per tracer per transport
  // step) is allocation-free.
  using common::Workspace;
  Workspace& ws = Workspace::threadLocal();
  const std::size_t en = static_cast<std::size_t>(m.nedges) * nlev;
  const std::size_t cn = static_cast<std::size_t>(m.ncells) * nlev;
  // The + 4 rows are headroom for the SIMD phases below: this thread's
  // arena doubles as their per-cell scratch source, and without the slack a
  // fully-consumed arena would make those per-iteration acquires overflow.
  ws.reserve(2 * Workspace::bytesFor<double>(en) +
             3 * Workspace::bytesFor<double>(cn) +
             4 * Workspace::bytesFor<double>(nlev));
  const Workspace::Frame frame(ws);
  double* flux_low = ws.get<double>(en);
  double* flux_anti = ws.get<double>(en);
  double* q_td = ws.get<double>(cn);
  double* rp = ws.get<double>(cn);
  double* rm = ws.get<double>(cn);

  // All four FCT phases live behind one dispatch-table entry; every tier
  // is bitwise identical to the HostBackend bodies.
  namespace simd = grist::backend::simd;
  simd::table().tracer_hori_flux_limiter[simd::kNsIndex<NS>](
      m, a.ncells_prog, nlev, dt, a.mean_flux, a.delp_old, a.delp_new, q,
      flux_low, flux_anti, q_td, rp, rm);
}

template void tracerTransportHoriFluxLimiter<double>(const TracerTransportArgs&,
                                                     double*);
template void tracerTransportHoriFluxLimiter<float>(const TracerTransportArgs&,
                                                    double*);

void tracerTransport(const TracerTransportArgs& args, precision::NsMode ns,
                     double* q) {
  if (ns == precision::NsMode::kDouble) {
    tracerTransportHoriFluxLimiter<double>(args, q);
  } else {
    tracerTransportHoriFluxLimiter<float>(args, q);
  }
}

} // namespace grist::dycore
