// Dynamical-core compute kernels on the hexagonal C-grid.
//
// Every kernel the paper's Fig. 9 benchmarks is here under its GRIST name:
//   primal_normal_flux_edge, compute_rrr, calc_coriolis_term,
//   tend_grad_ke_at_edge, tracer_transport_hori_flux_limiter (tracer.hpp),
// plus the remaining operators the solver needs (divergence, vorticity,
// del2 damping, vertical implicit solve).
//
// Since the execution-backend refactor the per-entity arithmetic lives ONCE
// in grist/backend/kernels.hpp, shared with the SW26010P cost model in
// src/swgomp. The functions here are the production (HostBackend)
// instantiations: OpenMP sweep drivers that bind raw-pointer views and a
// no-op accounting context, so under -O3 each body compiles to exactly the
// pre-refactor loads/stores/FLOPs (guarded by the bit-exactness tests
// test_fused_kernels and test_simd).
//
// Mixed precision (paper section 3.4): kernels are templated on NS. Fields
// are stored in double; precision-INSENSITIVE arithmetic is performed after
// an on-the-fly cast to NS. Precision-SENSITIVE terms -- the pressure
// gradient, the gravity/acoustic terms of the vertical implicit solve, and
// the accumulated tracer mass flux -- are hard-coded to double and have no
// NS template parameter.
#pragma once

#include <cmath>

#include "grist/backend/kernels.hpp"
#include "grist/common/math.hpp"
#include "grist/common/workspace.hpp"
#include "grist/dycore/config.hpp"
#include "grist/grid/hex_mesh.hpp"
#include "grist/grid/trsk.hpp"
#include "grist/precision/ns.hpp"

namespace grist::dycore::kernels {

using grid::HexMesh;
using grid::TrskWeights;
namespace bk = grist::backend::kernels;
using grist::backend::hostMut;
using grist::backend::hostView;
using grist::backend::makeHostMeshView;
using grist::backend::makeHostTrskView;
using HostCtx = grist::backend::HostBackend::Context;

// ---------------------------------------------------------------------------
// primal_normal_flux_edge: horizontal dry-mass flux at edges,
//   flux(e,k) = le * u(e,k) * delp_e(e,k),
// with a ratio-limited upwind-biased interpolation of delp to the edge (the
// divisions here are why the paper sees a large single-precision win for
// this kernel).
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void primalNormalFluxEdge(const HexMesh& m, Index nedges, int nlev,
                          const double* delp, const double* u, double* flux) {
  const auto mv = makeHostMeshView(m);
#pragma omp parallel for schedule(static)
  for (Index e = 0; e < nedges; ++e) {
    HostCtx ctx;
    bk::primalNormalFluxEdge<NS>(ctx, e, mv, nlev, hostView(delp), hostView(u),
                                 hostMut(flux));
  }
}

// ---------------------------------------------------------------------------
// div_at_cell: divergence of an edge flux, (1/A_c) sum_e s_{c,e} flux(e,k).
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void divAtCell(const HexMesh& m, Index ncells, int nlev, const double* flux,
               double* div) {
  const auto mv = makeHostMeshView(m);
#pragma omp parallel for schedule(static)
  for (Index c = 0; c < ncells; ++c) {
    HostCtx ctx;
    bk::divAtCell<NS>(ctx, c, mv, nlev, hostView(flux), hostMut(div));
  }
}

// ---------------------------------------------------------------------------
// kinetic_energy at cells: ke_c = (1/A_c) sum_e (le de / 4) u_e^2.
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void kineticEnergy(const HexMesh& m, Index ncells, int nlev, const double* u,
                   double* ke) {
  const auto mv = makeHostMeshView(m);
#pragma omp parallel for schedule(static)
  for (Index c = 0; c < ncells; ++c) {
    HostCtx ctx;
    bk::kineticEnergy<NS>(ctx, c, mv, nlev, hostView(u), hostMut(ke));
  }
}

// ---------------------------------------------------------------------------
// tend_grad_ke_at_edge: -(ke(c2) - ke(c1)) / de, the kernel of the paper's
// Fig. 4 listing.
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void tendGradKeAtEdge(const HexMesh& m, Index nedges, int nlev, const double* ke,
                      double* tend_u) {
  const auto mv = makeHostMeshView(m);
#pragma omp parallel for schedule(static)
  for (Index e = 0; e < nedges; ++e) {
    HostCtx ctx;
    bk::tendGradKeAtEdge<NS>(ctx, e, mv, nlev, hostView(ke), hostMut(tend_u));
  }
}

// ---------------------------------------------------------------------------
// vorticity at dual vertices: zeta_v = (1/A_v) sum_e c_{v,e} de u_e, and the
// edge-mean mass-weighted absolute vorticity q used by the Coriolis term.
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void vorticityAtVertex(const HexMesh& m, Index nvertices, int nlev,
                       const double* u, double* vor) {
  const auto mv = makeHostMeshView(m);
#pragma omp parallel for schedule(static)
  for (Index v = 0; v < nvertices; ++v) {
    HostCtx ctx;
    bk::vorticityAtVertex<NS>(ctx, v, mv, nlev, hostView(u), hostMut(vor));
  }
}

/// Mass-weighted potential vorticity at vertices:
///   q_v = (zeta_v + f_v) / delp_v, delp_v = kite-weighted cell average.
template <precision::NsReal NS>
void potentialVorticityAtVertex(const HexMesh& m, Index nvertices, int nlev,
                                const double* vor, const double* delp,
                                double omega, double* qv) {
  const auto mv = makeHostMeshView(m);
#pragma omp parallel for schedule(static)
  for (Index v = 0; v < nvertices; ++v) {
    HostCtx ctx;
    bk::potentialVorticityAtVertex<NS>(ctx, v, mv, nlev, hostView(vor),
                                       hostView(delp), omega, hostMut(qv));
  }
}

// ---------------------------------------------------------------------------
// calc_coriolis_term: TRSK nonlinear Coriolis / vorticity flux,
//   tend_u(e) += sum_{e'} w_{e,e'} flux(e') * qbar(e,e'),
// qbar = mean of the edge PVs; energy-neutral by the weight antisymmetry.
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void calcCoriolisTerm(const HexMesh& m, const TrskWeights& trsk, Index nedges,
                      int nlev, const double* flux, const double* qv,
                      double* tend_u) {
  const auto mv = makeHostMeshView(m);
  const auto tv = makeHostTrskView(trsk);
#pragma omp parallel for schedule(static)
  for (Index e = 0; e < nedges; ++e) {
    HostCtx ctx;
    bk::calcCoriolisTerm<NS>(ctx, e, mv, tv, nlev, hostView(flux), hostView(qv),
                             hostMut(tend_u));
  }
}

// ---------------------------------------------------------------------------
// compute_rrr: thermodynamic diagnostics per layer (the "rho/p/Pi" kernel).
// Inputs delp, theta, phi; outputs specific volume alpha, full pressure p,
// Exner Pi, and hydrostatic mid-level mass coordinate pi_mid.
// p is always computed in double: it feeds the pressure-gradient and
// gravity terms, which the paper identifies as precision-sensitive. The
// pow() calls dominating this kernel still run in NS for alpha/Pi.
// The dycore step reads only alpha and p, so it calls the dispatch table's
// rrr_alpha_p / rrr_p entries instead (bitwise these alpha/p, without the
// Exner pow or the pi_mid sum); the coupler needs the full kernel.
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
inline void computeRrrColumn(Index c, int nlev, double ptop, const double* delp,
                             const double* theta, const double* phi,
                             double* alpha, double* p, double* exner,
                             double* pi_mid) {
  HostCtx ctx;
  bk::computeRrrColumn<NS, grist::backend::HostBackend>(
      ctx, c, nlev, ptop, hostView(delp), hostView(theta), hostView(phi),
      hostMut(alpha), hostMut(p), hostMut(exner), hostMut(pi_mid));
}

template <precision::NsReal NS>
void computeRrr(Index ncells, int nlev, double ptop, const double* delp,
                    const double* theta, const double* phi, double* alpha,
                    double* p, double* exner, double* pi_mid) {
#pragma omp parallel for schedule(static)
  for (Index c = 0; c < ncells; ++c) {
    computeRrrColumn<NS>(c, nlev, ptop, delp, theta, phi, alpha, p, exner,
                         pi_mid);
  }
}

// ---------------------------------------------------------------------------
// calc_pressure_gradient (SENSITIVE -- double only):
//   tend_u(e) -= [ (phm(c2)-phm(c1)) + alpha_e ((p-pi)(c2)-(p-pi)(c1)) ] / de
// phm = mid-level geopotential. In the hydrostatic limit p == pi and this
// collapses to the classic -grad(phi) PGF on mass surfaces.
// ---------------------------------------------------------------------------
void calcPressureGradient(const HexMesh& m, Index nedges, int nlev,
                          const double* phi, const double* alpha, const double* p,
                          const double* pi_mid, double* tend_u);

// ---------------------------------------------------------------------------
// del2 damping on u: nu * [ grad(div) - curl(zeta) ] . n, plus divergence
// damping with its own (larger) coefficient; the standard stabilizers of an
// explicit horizontal solver.
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void del2Momentum(const HexMesh& m, Index nedges, int nlev, const double* div_u,
                  const double* vor, double nu_div, double nu_vor,
                  double* tend_u) {
  const auto mv = makeHostMeshView(m);
#pragma omp parallel for schedule(static)
  for (Index e = 0; e < nedges; ++e) {
    HostCtx ctx;
    bk::del2Momentum<NS>(ctx, e, mv, nlev, hostView(div_u), hostView(vor),
                         nu_div, nu_vor, hostMut(tend_u));
  }
}

// ---------------------------------------------------------------------------
// Horizontal flux-form advection of a cell scalar (theta): the tendency of
// the mass-weighted quantity, -div(flux * s_edge), with upwind-biased s_e.
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void scalarFluxTendency(const HexMesh& m, Index ncells, int nlev,
                        const double* flux, const double* scalar, double* tend) {
  const auto mv = makeHostMeshView(m);
#pragma omp parallel for schedule(static)
  for (Index c = 0; c < ncells; ++c) {
    HostCtx ctx;
    bk::scalarFluxTendency<NS>(ctx, c, mv, nlev, hostView(flux),
                               hostView(scalar), hostMut(tend));
  }
}

// ---------------------------------------------------------------------------
// Cell-scalar del2 diffusion: nu * dx^2 * Laplacian(s).
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void del2Scalar(const HexMesh& m, Index ncells, int nlev, const double* scalar,
                double nu, double* tend) {
  const auto mv = makeHostMeshView(m);
#pragma omp parallel for schedule(static)
  for (Index c = 0; c < ncells; ++c) {
    HostCtx ctx;
    bk::del2Scalar<NS>(ctx, c, mv, nlev, hostView(scalar), nu, hostMut(tend));
  }
}

// ---------------------------------------------------------------------------
// vert_implicit_solver (SENSITIVE -- double only): fully implicit update of
// (w, phi) coupling the vertical acoustic terms; Thomas algorithm per
// column. See dycore.cpp for the discretization notes. All per-column
// temporaries come from the calling thread's common::Workspace: zero heap
// allocations in the steady state.
// ---------------------------------------------------------------------------
void vertImplicitSolver(Index ncells, int nlev, double dt, double ptop,
                        const double* delp, const double* theta, const double* p,
                        double* w, double* phi, double w_damp_tau);

// ===========================================================================
// Fused single-sweep kernels. The dycore tendency step is memory-bandwidth
// bound: each unfused kernel above re-streams the same connectivity (CSR
// neighbor lists, edge endpoints) and geometry, and the momentum tendency is
// zero-filled then read-modify-written four times. The fused variants below
// make one pass per entity class and write each output exactly once.
//
// Numerical contract: for every output element the fused kernels perform
// the SAME operations in the SAME order as the unfused sequence they
// replace, so results are bit-identical in both precisions (asserted by
// tests/dycore/test_fused_kernels.cpp). The precision split is preserved:
// the pressure-gradient contribution inside fusedMomentumTendency stays
// hard-double exactly as calcPressureGradient does.
// ===========================================================================

// ---------------------------------------------------------------------------
// Fused EDGE sweep: primal_normal_flux_edge + the plain velocity flux
// uflux = le * u, sharing the edge_cell / le / u loads of a single pass.
// uflux feeds divAtCell(div_u) and is computed in double like the loop it
// replaces in Dycore::computeTendencies.
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void fusedEdgeFluxes(const HexMesh& m, Index nedges, int nlev,
                     const double* delp, const double* u, double* flux,
                     double* uflux) {
  const auto mv = makeHostMeshView(m);
#pragma omp parallel for schedule(static)
  for (Index e = 0; e < nedges; ++e) {
    HostCtx ctx;
    bk::fusedEdgeFluxes<NS>(ctx, e, mv, nlev, hostView(delp), hostView(u),
                            hostMut(flux), hostMut(uflux));
  }
}

// ---------------------------------------------------------------------------
// Fused CELL-NEIGHBOR sweep: divAtCell(flux) + divAtCell(uflux) +
// kineticEnergy in one pass over the cell_edges CSR lists (the unfused
// kernels each re-stream cell_offset/cell_edges/cell_edge_sign and re-zero
// their output).
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void fusedCellDiagnostics(const HexMesh& m, Index ncells, int nlev,
                          const double* flux, const double* uflux,
                          const double* u, double* div_flux, double* div_u,
                          double* ke) {
  const auto mv = makeHostMeshView(m);
#pragma omp parallel for schedule(static)
  for (Index c = 0; c < ncells; ++c) {
    HostCtx ctx;
    bk::fusedCellDiagnostics<NS>(ctx, c, mv, nlev, hostView(flux),
                                 hostView(uflux), hostView(u),
                                 hostMut(div_flux), hostMut(div_u), hostMut(ke));
  }
}

// ---------------------------------------------------------------------------
// Fused VERTEX sweep: vorticityAtVertex + potentialVorticityAtVertex. The
// PV kernel consumes the vorticity of the very vertex the first kernel just
// wrote; fusing removes a full vertex-field round trip through memory.
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void fusedVertexDiagnostics(const HexMesh& m, Index nvertices, int nlev,
                            const double* u, const double* delp, double omega,
                            double* vor, double* qv) {
  const auto mv = makeHostMeshView(m);
#pragma omp parallel for schedule(static)
  for (Index v = 0; v < nvertices; ++v) {
    HostCtx ctx;
    bk::fusedVertexDiagnostics<NS>(ctx, v, mv, nlev, hostView(u),
                                   hostView(delp), omega, hostMut(vor),
                                   hostMut(qv));
  }
}

// ---------------------------------------------------------------------------
// Fused CELL-TENDENCY sweep: delp_tend = -div(flux), plus the mass-weighted
// theta tendency = scalarFluxTendency + delp * del2Scalar(theta, nu) in one
// CSR pass (the unfused path runs three cell loops and a zero-fill of a
// scratch field). The delp_tend row doubles as the del2 accumulator until
// its own value is written last -- both rows are private to the cell.
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void fusedScalarTendencies(const HexMesh& m, Index ncells, int nlev,
                           const double* flux, const double* scalar,
                           const double* delp, const double* div_flux,
                           double nu, double* delp_tend, double* thetam_tend) {
  const auto mv = makeHostMeshView(m);
#pragma omp parallel for schedule(static)
  for (Index c = 0; c < ncells; ++c) {
    HostCtx ctx;
    bk::fusedScalarTendencies<NS>(ctx, c, mv, nlev, hostView(flux),
                                  hostView(scalar), hostView(delp),
                                  hostView(div_flux), nu, hostMut(delp_tend),
                                  hostMut(thetam_tend));
  }
}

// ---------------------------------------------------------------------------
// Fused EDGE-TENDENCY sweep: tendGradKeAtEdge + calcCoriolisTerm +
// calcPressureGradient + del2Momentum in one pass; u_tend is written once
// instead of zero-filled then read-modify-written four times. The per-(e,k)
// accumulation order matches the unfused kernel sequence exactly; the PGF
// contribution remains hard-double (SENSITIVE) while the rest runs in NS.
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void fusedMomentumTendency(const HexMesh& m, const TrskWeights& trsk,
                           Index nedges, int nlev, const double* ke,
                           const double* qv, const double* flux,
                           const double* phi, const double* alpha,
                           const double* p, const double* div_u,
                           const double* vor, double nu_div, double nu_vor,
                           double* tend_u) {
  const auto mv = makeHostMeshView(m);
  const auto tv = makeHostTrskView(trsk);
#pragma omp parallel
  {
    // Per-level accumulator rows (arena-backed, heap-free when warm); the
    // shared body runs the Coriolis stencil j-outer / k-inner over them.
    common::Workspace& ws = common::Workspace::threadLocal();
    ws.reserve(2 * common::Workspace::bytesFor<NS>(nlev));
#pragma omp for schedule(static)
    for (Index e = 0; e < nedges; ++e) {
      const common::Workspace::Frame frame(ws);
      NS* qe_row = ws.get<NS>(nlev);
      NS* acc_row = ws.get<NS>(nlev);
      HostCtx ctx;
      bk::fusedMomentumTendency<NS>(ctx, e, mv, tv, nlev, hostView(ke),
                                    hostView(qv), hostView(flux), hostView(phi),
                                    hostView(alpha), hostView(p),
                                    hostView(div_u), hostView(vor), nu_div,
                                    nu_vor, hostMut(tend_u), qe_row, acc_row);
    }
  } // omp parallel
}

} // namespace grist::dycore::kernels
