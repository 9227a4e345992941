// Single-source dycore kernel bodies over the execution-backend concept.
//
// Each function here is ONE entity's worth of work (one edge, cell, vertex
// or column) of a dycore kernel, written once and instantiated for every
// backend:
//   - HostBackend: views are raw pointers, Context calls are empty inlines
//     -- the body compiles to the exact load/store/FLOP sequence of the
//     former hand-written kernel, bit-for-bit; the SIMD dispatch tiers
//     (simd.hpp) are bitwise equal to it, and backend::hostSweep or a
//     direct call (the coupler's column EOS) runs it;
//   - SimBackend (src/swgomp): every view access and every flops/divs/elems
//     call is accounted against the simulated SW26010P, so the Fig. 9 cost
//     model follows the production code mechanically instead of being
//     re-mirrored by hand.
//
// Numerical contract: the Host instantiation must be bit-exact vs the
// pre-refactor kernels in BOTH NS precisions. That pins three idioms:
//   - cast placement: `static_cast<NS>(1.0 / de)` is a double divide THEN a
//     cast, never an NS divide;
//   - accumulation order: CSR/TRSK contributions are added in ascending-j
//     order per element, double read-modify-write for memory accumulators;
//   - conditional reads: upwind selection reads only the taken branch.
// The accounting calls (ctx.flops/divs/elems) sit NEXT to the arithmetic
// they price and state the precision it actually runs in; the mixed-
// precision split (sensitive terms hard double) is therefore visible to the
// cost model by construction.
#pragma once

#include <algorithm>
#include <cmath>

#include "grist/backend/backend.hpp"
#include "grist/backend/views.hpp"
#include "grist/common/math.hpp"
#include "grist/precision/ns.hpp"

namespace grist::backend::kernels {

// ---------------------------------------------------------------------------
// primal_normal_flux_edge: flux(e,k) = le * u(e,k) * delp_e(e,k) with a
// ratio-limited upwind-biased edge interpolation of delp.
// ---------------------------------------------------------------------------
template <precision::NsReal NS, typename B, typename Ctx>
void primalNormalFluxEdge(Ctx& ctx, Index e, const MeshView<B>& m, int nlev,
                          V<B, double> delp, V<B, double> u,
                          MV<B, double> flux) {
  constexpr Prec prec = kPrecOf<NS>;
  const auto cells = m.edge_cell.read(ctx, e);
  const Index c1 = cells[0];
  const Index c2 = cells[1];
  const NS le = static_cast<NS>(m.edge_le.read(ctx, e));
  for (int k = 0; k < nlev; ++k) {
    const NS h1 = static_cast<NS>(delp.read(ctx, c1 * nlev + k));
    const NS h2 = static_cast<NS>(delp.read(ctx, c2 * nlev + k));
    const NS ue = static_cast<NS>(u.read(ctx, e * nlev + k));
    const NS centered = NS(0.5) * (h1 + h2);
    const NS upwind = ue >= NS(0) ? h1 : h2;
    const NS r = upwind / centered;
    const NS blend = NS(1) / (NS(1) + r * r);
    const NS he = centered + blend * (upwind - centered) * NS(0.5);
    ctx.flops(8, prec);
    ctx.divs(2, prec);
    flux.write(ctx, e * nlev + k, static_cast<double>(le * ue * he));
  }
}

// ---------------------------------------------------------------------------
// div_at_cell: (1/A_c) sum_e s_{c,e} flux(e,k); zero-fill then ascending-j
// read-modify-write accumulation, exactly like the pre-refactor kernel.
// ---------------------------------------------------------------------------
template <precision::NsReal NS, typename B, typename Ctx>
void divAtCell(Ctx& ctx, Index c, const MeshView<B>& m, int nlev,
               V<B, double> flux, MV<B, double> div) {
  constexpr Prec prec = kPrecOf<NS>;
  const NS inv_area = static_cast<NS>(1.0 / m.cell_area.read(ctx, c));
  ctx.divs(1, Prec::kDouble);
  for (int k = 0; k < nlev; ++k) div.write(ctx, c * nlev + k, 0.0);
  const Index j0 = m.cell_offset.read(ctx, c);
  const Index j1 = m.cell_offset.read(ctx, c + 1);
  for (Index j = j0; j < j1; ++j) {
    const Index e = m.cell_edges.read(ctx, j);
    const NS sign = static_cast<NS>(m.cell_edge_sign.read(ctx, j));
    for (int k = 0; k < nlev; ++k) {
      const double add = static_cast<double>(
          sign * static_cast<NS>(flux.read(ctx, e * nlev + k)) * inv_area);
      ctx.flops(2, prec);
      ctx.flops(1, Prec::kDouble);
      div.write(ctx, c * nlev + k, div.read(ctx, c * nlev + k) + add);
    }
  }
}

// ---------------------------------------------------------------------------
// kinetic_energy at cells: ke_c = (1/A_c) sum_e (le de / 4) u_e^2.
// ---------------------------------------------------------------------------
template <precision::NsReal NS, typename B, typename Ctx>
void kineticEnergy(Ctx& ctx, Index c, const MeshView<B>& m, int nlev,
                   V<B, double> u, MV<B, double> ke) {
  constexpr Prec prec = kPrecOf<NS>;
  const NS inv_area = static_cast<NS>(1.0 / m.cell_area.read(ctx, c));
  ctx.divs(1, Prec::kDouble);
  for (int k = 0; k < nlev; ++k) ke.write(ctx, c * nlev + k, 0.0);
  const Index j0 = m.cell_offset.read(ctx, c);
  const Index j1 = m.cell_offset.read(ctx, c + 1);
  for (Index j = j0; j < j1; ++j) {
    const Index e = m.cell_edges.read(ctx, j);
    const NS weight = static_cast<NS>(0.25 * m.edge_le.read(ctx, e) *
                                      m.edge_de.read(ctx, e)) *
                      inv_area;
    ctx.flops(2, Prec::kDouble);
    ctx.flops(1, prec);
    for (int k = 0; k < nlev; ++k) {
      const NS ue = static_cast<NS>(u.read(ctx, e * nlev + k));
      ctx.flops(2, prec);
      ctx.flops(1, Prec::kDouble);
      ke.write(ctx, c * nlev + k,
               ke.read(ctx, c * nlev + k) + static_cast<double>(weight * ue * ue));
    }
  }
}

// ---------------------------------------------------------------------------
// tend_grad_ke_at_edge: tend_u(e,k) += -(ke(c2) - ke(c1)) / de.
// ---------------------------------------------------------------------------
template <precision::NsReal NS, typename B, typename Ctx>
void tendGradKeAtEdge(Ctx& ctx, Index e, const MeshView<B>& m, int nlev,
                      V<B, double> ke, MV<B, double> tend_u) {
  constexpr Prec prec = kPrecOf<NS>;
  const auto cells = m.edge_cell.read(ctx, e);
  const Index c1 = cells[0];
  const Index c2 = cells[1];
  const NS inv_de = static_cast<NS>(1.0 / m.edge_de.read(ctx, e));
  ctx.divs(1, Prec::kDouble);
  for (int k = 0; k < nlev; ++k) {
    const double add = static_cast<double>(
        -(static_cast<NS>(ke.read(ctx, c2 * nlev + k)) -
          static_cast<NS>(ke.read(ctx, c1 * nlev + k))) *
        inv_de);
    ctx.flops(3, prec);
    ctx.flops(1, Prec::kDouble);
    tend_u.write(ctx, e * nlev + k, tend_u.read(ctx, e * nlev + k) + add);
  }
}

// ---------------------------------------------------------------------------
// vorticity at dual vertices: zeta_v = (1/A_v) sum_e c_{v,e} de u_e.
// ---------------------------------------------------------------------------
template <precision::NsReal NS, typename B, typename Ctx>
void vorticityAtVertex(Ctx& ctx, Index v, const MeshView<B>& m, int nlev,
                       V<B, double> u, MV<B, double> vor) {
  constexpr Prec prec = kPrecOf<NS>;
  const NS inv_area = static_cast<NS>(1.0 / m.vtx_area.read(ctx, v));
  ctx.divs(1, Prec::kDouble);
  const auto ve = m.vtx_edges.read(ctx, v);
  const auto vs = m.vtx_edge_sign.read(ctx, v);
  for (int k = 0; k < nlev; ++k) {
    NS acc = NS(0);
    for (int j = 0; j < 3; ++j) {
      const Index e = ve[j];
      acc += static_cast<NS>(vs[j] * m.edge_de.read(ctx, e)) *
             static_cast<NS>(u.read(ctx, e * nlev + k));
      ctx.flops(1, Prec::kDouble);
      ctx.flops(2, prec);
    }
    ctx.flops(1, prec);
    vor.write(ctx, v * nlev + k, static_cast<double>(acc * inv_area));
  }
}

// ---------------------------------------------------------------------------
// potential vorticity at vertices: q_v = (zeta_v + f_v) / delp_v.
// ---------------------------------------------------------------------------
template <precision::NsReal NS, typename B, typename Ctx>
void potentialVorticityAtVertex(Ctx& ctx, Index v, const MeshView<B>& m,
                                int nlev, V<B, double> vor, V<B, double> delp,
                                double omega, MV<B, double> qv) {
  constexpr Prec prec = kPrecOf<NS>;
  const NS f = static_cast<NS>(2.0 * omega * m.vtx_x.read(ctx, v).z);
  const NS inv_area = static_cast<NS>(1.0 / m.vtx_area.read(ctx, v));
  ctx.flops(2, Prec::kDouble);
  ctx.divs(1, Prec::kDouble);
  const auto vc = m.vtx_cells.read(ctx, v);
  const auto kite = m.vtx_kite_area.read(ctx, v);
  for (int k = 0; k < nlev; ++k) {
    NS hv = NS(0);
    for (int j = 0; j < 3; ++j) {
      hv += static_cast<NS>(kite[j]) *
            static_cast<NS>(delp.read(ctx, vc[j] * nlev + k));
      ctx.flops(2, prec);
    }
    hv *= inv_area;
    ctx.flops(2, prec);
    ctx.divs(1, prec);
    qv.write(ctx, v * nlev + k,
             static_cast<double>(
                 (static_cast<NS>(vor.read(ctx, v * nlev + k)) + f) / hv));
  }
}

// ---------------------------------------------------------------------------
// calc_coriolis_term: TRSK nonlinear Coriolis / vorticity flux. NB: the
// arithmetic runs in NS exactly like the production kernel -- the cost model
// follows the code, so MIX builds see both the smaller loads and the cheaper
// divides here (the former hand replica pinned this kernel to double).
// ---------------------------------------------------------------------------
template <precision::NsReal NS, typename B, typename Ctx>
void calcCoriolisTerm(Ctx& ctx, Index e, const MeshView<B>& m,
                      const TrskView<B>& trsk, int nlev, V<B, double> flux,
                      V<B, double> qv, MV<B, double> tend_u) {
  constexpr Prec prec = kPrecOf<NS>;
  const auto verts = m.edge_vertex.read(ctx, e);
  const Index v1 = verts[0];
  const Index v2 = verts[1];
  const Index j0 = trsk.offset.read(ctx, e);
  const Index j1 = trsk.offset.read(ctx, e + 1);
  for (int k = 0; k < nlev; ++k) {
    const NS qe = NS(0.5) * (static_cast<NS>(qv.read(ctx, v1 * nlev + k)) +
                             static_cast<NS>(qv.read(ctx, v2 * nlev + k)));
    ctx.flops(2, prec);
    NS acc = NS(0);
    for (Index j = j0; j < j1; ++j) {
      const Index ep = trsk.edge.read(ctx, j);
      const auto pverts = m.edge_vertex.read(ctx, ep);
      const NS qep =
          NS(0.5) * (static_cast<NS>(qv.read(ctx, pverts[0] * nlev + k)) +
                     static_cast<NS>(qv.read(ctx, pverts[1] * nlev + k)));
      acc += static_cast<NS>(trsk.weight.read(ctx, j)) *
             static_cast<NS>(flux.read(ctx, ep * nlev + k)) *
             static_cast<NS>(1.0 / m.edge_le.read(ctx, ep)) * NS(0.5) *
             (qe + qep);
      ctx.divs(1, Prec::kDouble);
      ctx.flops(7, prec);
    }
    ctx.flops(1, Prec::kDouble);
    tend_u.write(ctx, e * nlev + k,
                 tend_u.read(ctx, e * nlev + k) + static_cast<double>(acc));
  }
}

// ---------------------------------------------------------------------------
// compute_rrr: thermodynamic diagnostics for one column. p stays double
// (feeds the sensitive PGF/gravity terms); alpha/Pi run in NS.
// ---------------------------------------------------------------------------
template <precision::NsReal NS, typename B, typename Ctx>
void computeRrrColumn(Ctx& ctx, Index c, int nlev, double ptop,
                      V<B, double> delp, V<B, double> theta, V<B, double> phi,
                      MV<B, double> alpha, MV<B, double> p,
                      MV<B, double> exner, MV<B, double> pi_mid) {
  using namespace constants;
  constexpr Prec prec = kPrecOf<NS>;
  const double gamma = kCp / (kCp - kRd);  // cp/cv
  double pi_acc = ptop;
  for (int k = 0; k < nlev; ++k) {
    const double dp = delp.read(ctx, c * nlev + k);
    pi_mid.write(ctx, c * nlev + k, pi_acc + 0.5 * dp);
    pi_acc += dp;
    const NS dphi = static_cast<NS>(phi.read(ctx, c * (nlev + 1) + k) -
                                    phi.read(ctx, c * (nlev + 1) + k + 1));
    const NS a = dphi / static_cast<NS>(dp);
    ctx.flops(4, Prec::kDouble);  // pi_mid accumulation + dphi
    ctx.divs(1, prec);            // alpha = dphi / dp
    alpha.write(ctx, c * nlev + k, static_cast<double>(a));
    const double rho = dp / static_cast<double>(dphi);
    const double pk =
        kP0 * std::pow(rho * kRd * theta.read(ctx, c * nlev + k) / kP0, gamma);
    ctx.divs(2, Prec::kDouble);   // rho and the EOS pressure ratio
    ctx.elems(1, Prec::kDouble);  // pow for p (double on purpose)
    ctx.flops(3, Prec::kDouble);
    p.write(ctx, c * nlev + k, pk);
    ctx.divs(1, Prec::kDouble);  // pk / kP0
    ctx.elems(1, prec);          // pow for Exner (NS)
    exner.write(ctx, c * nlev + k,
                static_cast<double>(std::pow(static_cast<NS>(pk / kP0),
                                             static_cast<NS>(kKappa))));
  }
}

// ---------------------------------------------------------------------------
// calc_pressure_gradient (SENSITIVE -- double only):
//   tend_u(e) -= [ (phm(c2)-phm(c1)) + alpha_e (p(c2)-p(c1)) ] / de.
// The full mass-coordinate PGF along model levels, -grad(phi_mid) -
// alpha grad(p). Over terrain-following levels these are two large
// cancelling terms (the residual is measured by
// TopographyTest.PgfErrorFlowStaysSmall); subtracting pi from p would drop
// the alpha grad(pi) piece that balances grad(phi) over orography.
// ---------------------------------------------------------------------------
template <typename B, typename Ctx>
void calcPressureGradient(Ctx& ctx, Index e, const MeshView<B>& m, int nlev,
                          V<B, double> phi, V<B, double> alpha, V<B, double> p,
                          MV<B, double> tend_u) {
  const auto cells = m.edge_cell.read(ctx, e);
  const Index c1 = cells[0];
  const Index c2 = cells[1];
  const double inv_de = 1.0 / m.edge_de.read(ctx, e);
  ctx.divs(1, Prec::kDouble);
  for (int k = 0; k < nlev; ++k) {
    const double phm1 = 0.5 * (phi.read(ctx, c1 * (nlev + 1) + k) +
                               phi.read(ctx, c1 * (nlev + 1) + k + 1));
    const double phm2 = 0.5 * (phi.read(ctx, c2 * (nlev + 1) + k) +
                               phi.read(ctx, c2 * (nlev + 1) + k + 1));
    const double alpha_e = 0.5 * (alpha.read(ctx, c1 * nlev + k) +
                                  alpha.read(ctx, c2 * nlev + k));
    ctx.flops(10, Prec::kDouble);
    tend_u.write(ctx, e * nlev + k,
                 tend_u.read(ctx, e * nlev + k) -
                     ((phm2 - phm1) + alpha_e * (p.read(ctx, c2 * nlev + k) -
                                                 p.read(ctx, c1 * nlev + k))) *
                         inv_de);
  }
}

// ---------------------------------------------------------------------------
// del2 damping on u: nu * dx^2 * [ grad(div) - curl(zeta) ] . n.
// ---------------------------------------------------------------------------
template <precision::NsReal NS, typename B, typename Ctx>
void del2Momentum(Ctx& ctx, Index e, const MeshView<B>& m, int nlev,
                  V<B, double> div_u, V<B, double> vor, double nu_div,
                  double nu_vor, MV<B, double> tend_u) {
  constexpr Prec prec = kPrecOf<NS>;
  const auto cells = m.edge_cell.read(ctx, e);
  const auto verts = m.edge_vertex.read(ctx, e);
  const Index c1 = cells[0];
  const Index c2 = cells[1];
  const Index v1 = verts[0];
  const Index v2 = verts[1];
  const NS inv_de = static_cast<NS>(1.0 / m.edge_de.read(ctx, e));
  const NS inv_le = static_cast<NS>(1.0 / m.edge_le.read(ctx, e));
  const NS scale =
      static_cast<NS>(m.edge_de.read(ctx, e) * m.edge_de.read(ctx, e));
  ctx.divs(2, Prec::kDouble);
  ctx.flops(1, Prec::kDouble);
  for (int k = 0; k < nlev; ++k) {
    const NS grad_div = (static_cast<NS>(div_u.read(ctx, c2 * nlev + k)) -
                         static_cast<NS>(div_u.read(ctx, c1 * nlev + k))) *
                        inv_de;
    const NS curl_vor = (static_cast<NS>(vor.read(ctx, v2 * nlev + k)) -
                         static_cast<NS>(vor.read(ctx, v1 * nlev + k))) *
                        inv_le;
    ctx.flops(7, prec);
    ctx.flops(1, Prec::kDouble);
    tend_u.write(ctx, e * nlev + k,
                 tend_u.read(ctx, e * nlev + k) +
                     static_cast<double>(scale * (static_cast<NS>(nu_div) * grad_div -
                                                  static_cast<NS>(nu_vor) * curl_vor)));
  }
}

// ---------------------------------------------------------------------------
// Horizontal flux-form advection of a cell scalar (theta).
// ---------------------------------------------------------------------------
template <precision::NsReal NS, typename B, typename Ctx>
void scalarFluxTendency(Ctx& ctx, Index c, const MeshView<B>& m, int nlev,
                        V<B, double> flux, V<B, double> scalar,
                        MV<B, double> tend) {
  constexpr Prec prec = kPrecOf<NS>;
  const NS inv_area = static_cast<NS>(1.0 / m.cell_area.read(ctx, c));
  ctx.divs(1, Prec::kDouble);
  for (int k = 0; k < nlev; ++k) tend.write(ctx, c * nlev + k, 0.0);
  const Index j0 = m.cell_offset.read(ctx, c);
  const Index j1 = m.cell_offset.read(ctx, c + 1);
  for (Index j = j0; j < j1; ++j) {
    const Index e = m.cell_edges.read(ctx, j);
    const auto cells = m.edge_cell.read(ctx, e);
    const Index c1 = cells[0];
    const Index c2 = cells[1];
    const NS sign = static_cast<NS>(m.cell_edge_sign.read(ctx, j));
    for (int k = 0; k < nlev; ++k) {
      const NS f = static_cast<NS>(flux.read(ctx, e * nlev + k));
      const NS se = f >= NS(0)
                        ? static_cast<NS>(scalar.read(ctx, c1 * nlev + k))
                        : static_cast<NS>(scalar.read(ctx, c2 * nlev + k));
      ctx.flops(3, prec);
      ctx.flops(1, Prec::kDouble);
      tend.write(ctx, c * nlev + k,
                 tend.read(ctx, c * nlev + k) -
                     static_cast<double>(sign * f * se * inv_area));
    }
  }
}

// ---------------------------------------------------------------------------
// Cell-scalar del2 diffusion: nu * dx^2 * Laplacian(s).
// ---------------------------------------------------------------------------
template <precision::NsReal NS, typename B, typename Ctx>
void del2Scalar(Ctx& ctx, Index c, const MeshView<B>& m, int nlev,
                V<B, double> scalar, double nu, MV<B, double> tend) {
  constexpr Prec prec = kPrecOf<NS>;
  const NS inv_area = static_cast<NS>(1.0 / m.cell_area.read(ctx, c));
  ctx.divs(1, Prec::kDouble);
  const Index j0 = m.cell_offset.read(ctx, c);
  const Index j1 = m.cell_offset.read(ctx, c + 1);
  for (Index j = j0; j < j1; ++j) {
    const Index e = m.cell_edges.read(ctx, j);
    const Index nb = m.cell_cells.read(ctx, j);
    const NS w = static_cast<NS>(m.edge_le.read(ctx, e) /
                                 m.edge_de.read(ctx, e) * m.edge_de.read(ctx, e) *
                                 m.edge_de.read(ctx, e) * nu) *
                 inv_area;
    ctx.divs(1, Prec::kDouble);
    ctx.flops(3, Prec::kDouble);
    ctx.flops(1, prec);
    for (int k = 0; k < nlev; ++k) {
      ctx.flops(2, prec);
      ctx.flops(1, Prec::kDouble);
      tend.write(ctx, c * nlev + k,
                 tend.read(ctx, c * nlev + k) +
                     static_cast<double>(
                         w * (static_cast<NS>(scalar.read(ctx, nb * nlev + k)) -
                              static_cast<NS>(scalar.read(ctx, c * nlev + k)))));
    }
  }
}

// ---------------------------------------------------------------------------
// vert_implicit_solver (SENSITIVE -- double only): one column's fully
// implicit (w, phi) acoustic update, Thomas algorithm over the interior
// interfaces:
//   phi+(k) = phi(k) + dt g w+(k)                       (interfaces)
//   w+(k)   = w(k) + dt g [ (p+_k - p+_{k-1}) / dpi_k - 1 ]
// with p linearized about the current state,
//   p+_j = p_j - (gamma p_j / dphi_j)(dphi+_j - dphi_j),
// a symmetric-positive tridiagonal system in w+ at interior interfaces
// (w = 0 at the top and the surface); dpi at interface k is the mean of the
// adjacent layer masses. Scratch rows are caller-provided raw pointers (the host hands
// out Workspace arena rows, the sim driver a plain buffer): per-column
// temporaries live in registers/LDM in the cost model and are not accounted.
// ---------------------------------------------------------------------------
struct VertSolveScratch {
  double* comp = nullptr;   ///< nlev
  double* lower = nullptr;  ///< nlev - 1
  double* diag = nullptr;   ///< nlev - 1
  double* upper = nullptr;  ///< nlev - 1
  double* rhs = nullptr;    ///< nlev - 1
  double* wnew = nullptr;   ///< nlev + 1
};

template <typename B, typename Ctx>
void vertImplicitColumn(Ctx& ctx, Index c, int nlev, double dt, double ptop,
                        V<B, double> delp, V<B, double> theta, V<B, double> p,
                        MV<B, double> w, MV<B, double> phi, double w_damp_tau,
                        const VertSolveScratch& s) {
  using namespace constants;
  const double gamma = kCp / (kCp - kRd);
  const double g = kGravity;
  const Index cc = c * nlev;
  const Index ci = c * (nlev + 1);

  // Layer compressibility factor: dP_j/dphi(top of j) = -gamma p_j/dphi_j.
  double* comp = s.comp;
  for (int j = 0; j < nlev; ++j) {
    const double dphi = phi.read(ctx, ci + j) - phi.read(ctx, ci + j + 1);
    comp[j] = gamma * p.read(ctx, cc + j) / dphi;
    ctx.flops(2, Prec::kDouble);
    ctx.divs(1, Prec::kDouble);
  }

  // Tridiagonal system over interior interfaces k = 1..nlev-1.
  const int n = nlev - 1;
  double* lower = s.lower;
  double* diag = s.diag;
  double* upper = s.upper;
  double* rhs = s.rhs;
  for (int k = 1; k <= n; ++k) {
    const double dpi = 0.5 * (delp.read(ctx, cc + k - 1) + delp.read(ctx, cc + k));
    const double ck = dt * g / dpi;
    const double a = ck * dt * g;
    lower[k - 1] = -a * comp[k - 1];
    diag[k - 1] = 1.0 + a * (comp[k] + comp[k - 1]);
    upper[k - 1] = -a * comp[k];
    rhs[k - 1] = w.read(ctx, ci + k) +
                 ck * (p.read(ctx, cc + k) - p.read(ctx, cc + k - 1)) - dt * g;
    ctx.flops(12, Prec::kDouble);
    ctx.divs(1, Prec::kDouble);
  }
  // Thomas algorithm.
  for (int i = 1; i < n; ++i) {
    const double mm = lower[i] / diag[i - 1];
    diag[i] -= mm * upper[i - 1];
    rhs[i] -= mm * rhs[i - 1];
    ctx.flops(4, Prec::kDouble);
    ctx.divs(1, Prec::kDouble);
  }
  double* wnew = s.wnew;
  for (int k = 0; k <= nlev; ++k) wnew[k] = 0.0;
  if (n > 0) {
    wnew[n] = rhs[n - 1] / diag[n - 1];
    ctx.divs(1, Prec::kDouble);
    for (int i = n - 2; i >= 0; --i) {
      wnew[i + 1] = (rhs[i] - upper[i] * wnew[i + 2]) / diag[i];
      ctx.flops(2, Prec::kDouble);
      ctx.divs(1, Prec::kDouble);
    }
  }
  // Rayleigh damping of w (quasi-hydrostatic limiter).
  if (w_damp_tau > 0) {
    for (int k = 1; k <= n; ++k) {
      wnew[k] /= 1.0 + dt / w_damp_tau;
      ctx.flops(1, Prec::kDouble);
      ctx.divs(1, Prec::kDouble);
    }
  }
  // Layer-inversion limiter; reads phi BEFORE its own update below.
  for (int k = 1; k <= n; ++k) {
    const double room = 0.25 * std::min(phi.read(ctx, ci + k - 1) - phi.read(ctx, ci + k),
                                        phi.read(ctx, ci + k) - phi.read(ctx, ci + k + 1));
    const double bound = room / (dt * g);
    ctx.flops(5, Prec::kDouble);
    ctx.divs(1, Prec::kDouble);
    if (wnew[k] > bound) wnew[k] = bound;
    if (wnew[k] < -bound) wnew[k] = -bound;
  }
  for (int k = 0; k <= nlev; ++k) w.write(ctx, ci + k, wnew[k]);
  for (int k = 1; k <= n; ++k) {
    ctx.flops(3, Prec::kDouble);
    phi.write(ctx, ci + k, phi.read(ctx, ci + k) + dt * g * wnew[k]);
  }
  // Constant-pressure model top: keep the top layer hydrostatically
  // attached to ptop.
  const double pi_top_mid = ptop + 0.5 * delp.read(ctx, cc + 0);
  const double alpha_top = kRd * theta.read(ctx, cc + 0) *
                           std::pow(pi_top_mid / kP0, kKappa) / pi_top_mid;
  ctx.flops(5, Prec::kDouble);
  ctx.divs(2, Prec::kDouble);
  ctx.elems(1, Prec::kDouble);
  phi.write(ctx, ci + 0,
            phi.read(ctx, ci + 1) + alpha_top * delp.read(ctx, cc + 0));
}

// ===========================================================================
// Fused single-sweep kernels (one pass per entity class, outputs written
// once). Same per-element operation order as the unfused sequence above.
// ===========================================================================

// ---------------------------------------------------------------------------
// Fused EDGE sweep: primal_normal_flux_edge + uflux = le * u (double).
// ---------------------------------------------------------------------------
template <precision::NsReal NS, typename B, typename Ctx>
void fusedEdgeFluxes(Ctx& ctx, Index e, const MeshView<B>& m, int nlev,
                     V<B, double> delp, V<B, double> u, MV<B, double> flux,
                     MV<B, double> uflux) {
  constexpr Prec prec = kPrecOf<NS>;
  const auto cells = m.edge_cell.read(ctx, e);
  const Index c1 = cells[0];
  const Index c2 = cells[1];
  const double le_d = m.edge_le.read(ctx, e);
  const NS le = static_cast<NS>(le_d);
  for (int k = 0; k < nlev; ++k) {
    const NS h1 = static_cast<NS>(delp.read(ctx, c1 * nlev + k));
    const NS h2 = static_cast<NS>(delp.read(ctx, c2 * nlev + k));
    const double ue_d = u.read(ctx, e * nlev + k);
    const NS ue = static_cast<NS>(ue_d);
    const NS centered = NS(0.5) * (h1 + h2);
    const NS upwind = ue >= NS(0) ? h1 : h2;
    const NS r = upwind / centered;
    const NS blend = NS(1) / (NS(1) + r * r);
    const NS he = centered + blend * (upwind - centered) * NS(0.5);
    ctx.flops(8, prec);
    ctx.divs(2, prec);
    ctx.flops(1, Prec::kDouble);
    flux.write(ctx, e * nlev + k, static_cast<double>(le * ue * he));
    uflux.write(ctx, e * nlev + k, le_d * ue_d);
  }
}

// ---------------------------------------------------------------------------
// Fused CELL-NEIGHBOR sweep: div(flux) + div(uflux) + kinetic energy.
// ---------------------------------------------------------------------------
template <precision::NsReal NS, typename B, typename Ctx>
void fusedCellDiagnostics(Ctx& ctx, Index c, const MeshView<B>& m, int nlev,
                          V<B, double> flux, V<B, double> uflux,
                          V<B, double> u, MV<B, double> div_flux,
                          MV<B, double> div_u, MV<B, double> ke) {
  constexpr Prec prec = kPrecOf<NS>;
  const NS inv_area = static_cast<NS>(1.0 / m.cell_area.read(ctx, c));
  ctx.divs(1, Prec::kDouble);
  for (int k = 0; k < nlev; ++k) {
    div_flux.write(ctx, c * nlev + k, 0.0);
    div_u.write(ctx, c * nlev + k, 0.0);
    ke.write(ctx, c * nlev + k, 0.0);
  }
  const Index j0 = m.cell_offset.read(ctx, c);
  const Index j1 = m.cell_offset.read(ctx, c + 1);
  for (Index j = j0; j < j1; ++j) {
    const Index e = m.cell_edges.read(ctx, j);
    const NS sign = static_cast<NS>(m.cell_edge_sign.read(ctx, j));
    const NS weight = static_cast<NS>(0.25 * m.edge_le.read(ctx, e) *
                                      m.edge_de.read(ctx, e)) *
                      inv_area;
    ctx.flops(2, Prec::kDouble);
    ctx.flops(1, prec);
    for (int k = 0; k < nlev; ++k) {
      div_flux.write(ctx, c * nlev + k,
                     div_flux.read(ctx, c * nlev + k) +
                         static_cast<double>(
                             sign * static_cast<NS>(flux.read(ctx, e * nlev + k)) *
                             inv_area));
      div_u.write(ctx, c * nlev + k,
                  div_u.read(ctx, c * nlev + k) +
                      static_cast<double>(
                          sign * static_cast<NS>(uflux.read(ctx, e * nlev + k)) *
                          inv_area));
      const NS ue = static_cast<NS>(u.read(ctx, e * nlev + k));
      ctx.flops(6, prec);
      ctx.flops(3, Prec::kDouble);
      ke.write(ctx, c * nlev + k,
               ke.read(ctx, c * nlev + k) + static_cast<double>(weight * ue * ue));
    }
  }
}

// ---------------------------------------------------------------------------
// Fused VERTEX sweep: vorticity + mass-weighted potential vorticity.
// ---------------------------------------------------------------------------
template <precision::NsReal NS, typename B, typename Ctx>
void fusedVertexDiagnostics(Ctx& ctx, Index v, const MeshView<B>& m, int nlev,
                            V<B, double> u, V<B, double> delp, double omega,
                            MV<B, double> vor, MV<B, double> qv) {
  constexpr Prec prec = kPrecOf<NS>;
  const NS inv_area = static_cast<NS>(1.0 / m.vtx_area.read(ctx, v));
  const NS f = static_cast<NS>(2.0 * omega * m.vtx_x.read(ctx, v).z);
  ctx.flops(2, Prec::kDouble);
  ctx.divs(1, Prec::kDouble);
  const auto ve = m.vtx_edges.read(ctx, v);
  const auto vs = m.vtx_edge_sign.read(ctx, v);
  const auto vc = m.vtx_cells.read(ctx, v);
  const auto kite = m.vtx_kite_area.read(ctx, v);
  for (int k = 0; k < nlev; ++k) {
    NS acc = NS(0);
    for (int j = 0; j < 3; ++j) {
      const Index e = ve[j];
      acc += static_cast<NS>(vs[j] * m.edge_de.read(ctx, e)) *
             static_cast<NS>(u.read(ctx, e * nlev + k));
      ctx.flops(1, Prec::kDouble);
      ctx.flops(2, prec);
    }
    const double zeta = static_cast<double>(acc * inv_area);
    ctx.flops(1, prec);
    vor.write(ctx, v * nlev + k, zeta);
    NS hv = NS(0);
    for (int j = 0; j < 3; ++j) {
      hv += static_cast<NS>(kite[j]) *
            static_cast<NS>(delp.read(ctx, vc[j] * nlev + k));
      ctx.flops(2, prec);
    }
    hv *= inv_area;
    ctx.flops(2, prec);
    ctx.divs(1, prec);
    qv.write(ctx, v * nlev + k,
             static_cast<double>((static_cast<NS>(zeta) + f) / hv));
  }
}

// ---------------------------------------------------------------------------
// Fused CELL-TENDENCY sweep: delp_tend = -div(flux) plus the mass-weighted
// theta tendency (advection + delp * nu * del2). The delp_tend row doubles
// as the del2 accumulator until its own value is written last.
// ---------------------------------------------------------------------------
template <precision::NsReal NS, typename B, typename Ctx>
void fusedScalarTendencies(Ctx& ctx, Index c, const MeshView<B>& m, int nlev,
                           V<B, double> flux, V<B, double> scalar,
                           V<B, double> delp, V<B, double> div_flux, double nu,
                           MV<B, double> delp_tend, MV<B, double> thetam_tend) {
  constexpr Prec prec = kPrecOf<NS>;
  const NS inv_area = static_cast<NS>(1.0 / m.cell_area.read(ctx, c));
  ctx.divs(1, Prec::kDouble);
  for (int k = 0; k < nlev; ++k) {
    thetam_tend.write(ctx, c * nlev + k, 0.0);  // advective accumulator
    delp_tend.write(ctx, c * nlev + k, 0.0);    // del2 accumulator
  }
  const Index j0 = m.cell_offset.read(ctx, c);
  const Index j1 = m.cell_offset.read(ctx, c + 1);
  for (Index j = j0; j < j1; ++j) {
    const Index e = m.cell_edges.read(ctx, j);
    const auto cells = m.edge_cell.read(ctx, e);
    const Index c1 = cells[0];
    const Index c2 = cells[1];
    const Index nb = m.cell_cells.read(ctx, j);
    const NS sign = static_cast<NS>(m.cell_edge_sign.read(ctx, j));
    const NS w = static_cast<NS>(m.edge_le.read(ctx, e) /
                                 m.edge_de.read(ctx, e) * m.edge_de.read(ctx, e) *
                                 m.edge_de.read(ctx, e) * nu) *
                 inv_area;
    ctx.divs(1, Prec::kDouble);
    ctx.flops(3, Prec::kDouble);
    ctx.flops(1, prec);
    for (int k = 0; k < nlev; ++k) {
      const NS fl = static_cast<NS>(flux.read(ctx, e * nlev + k));
      const NS se = fl >= NS(0)
                        ? static_cast<NS>(scalar.read(ctx, c1 * nlev + k))
                        : static_cast<NS>(scalar.read(ctx, c2 * nlev + k));
      ctx.flops(5, prec);
      ctx.flops(2, Prec::kDouble);
      thetam_tend.write(ctx, c * nlev + k,
                        thetam_tend.read(ctx, c * nlev + k) -
                            static_cast<double>(sign * fl * se * inv_area));
      delp_tend.write(ctx, c * nlev + k,
                      delp_tend.read(ctx, c * nlev + k) +
                          static_cast<double>(
                              w * (static_cast<NS>(scalar.read(ctx, nb * nlev + k)) -
                                   static_cast<NS>(scalar.read(ctx, c * nlev + k)))));
    }
  }
  for (int k = 0; k < nlev; ++k) {
    ctx.flops(3, Prec::kDouble);
    thetam_tend.write(ctx, c * nlev + k,
                      thetam_tend.read(ctx, c * nlev + k) +
                          delp.read(ctx, c * nlev + k) *
                              delp_tend.read(ctx, c * nlev + k));
    delp_tend.write(ctx, c * nlev + k, -div_flux.read(ctx, c * nlev + k));
  }
}

// ---------------------------------------------------------------------------
// Fused EDGE-TENDENCY sweep: -grad(ke) + TRSK Coriolis + pressure gradient
// (hard double) + del2 damping; tend_u written exactly once per (e, k).
// qe_row/acc_row are caller-provided nlev-sized scratch rows (Workspace
// arena on the host; the Coriolis stencil runs j-outer / k-inner so TRSK
// indices, weights and 1/le' load once per stencil edge).
// ---------------------------------------------------------------------------
template <precision::NsReal NS, typename B, typename Ctx>
void fusedMomentumTendency(Ctx& ctx, Index e, const MeshView<B>& m,
                           const TrskView<B>& trsk, int nlev, V<B, double> ke,
                           V<B, double> qv, V<B, double> flux,
                           V<B, double> phi, V<B, double> alpha,
                           V<B, double> p, V<B, double> div_u,
                           V<B, double> vor, double nu_div, double nu_vor,
                           MV<B, double> tend_u, NS* qe_row, NS* acc_row) {
  constexpr Prec prec = kPrecOf<NS>;
  const auto cells = m.edge_cell.read(ctx, e);
  const auto verts = m.edge_vertex.read(ctx, e);
  const Index c1 = cells[0];
  const Index c2 = cells[1];
  const Index v1 = verts[0];
  const Index v2 = verts[1];
  const NS inv_de = static_cast<NS>(1.0 / m.edge_de.read(ctx, e));
  const NS inv_le = static_cast<NS>(1.0 / m.edge_le.read(ctx, e));
  const NS scale =
      static_cast<NS>(m.edge_de.read(ctx, e) * m.edge_de.read(ctx, e));
  const double inv_de_d = 1.0 / m.edge_de.read(ctx, e);
  ctx.divs(3, Prec::kDouble);
  ctx.flops(1, Prec::kDouble);
  for (int k = 0; k < nlev; ++k) {
    qe_row[k] = NS(0.5) * (static_cast<NS>(qv.read(ctx, v1 * nlev + k)) +
                           static_cast<NS>(qv.read(ctx, v2 * nlev + k)));
    acc_row[k] = NS(0);
    ctx.flops(2, prec);
  }
  // 2) TRSK nonlinear Coriolis (accumulated first; folded in below in the
  //    unfused gradKe -> Coriolis -> PGF -> del2 order).
  const Index j0 = trsk.offset.read(ctx, e);
  const Index j1 = trsk.offset.read(ctx, e + 1);
  for (Index j = j0; j < j1; ++j) {
    const Index ep = trsk.edge.read(ctx, j);
    const NS wj = static_cast<NS>(trsk.weight.read(ctx, j));
    const NS inv_lep = static_cast<NS>(1.0 / m.edge_le.read(ctx, ep));
    ctx.divs(1, Prec::kDouble);
    const auto pverts = m.edge_vertex.read(ctx, ep);
    const Index w1 = pverts[0];
    const Index w2 = pverts[1];
    for (int k = 0; k < nlev; ++k) {
      const NS qep = NS(0.5) * (static_cast<NS>(qv.read(ctx, w1 * nlev + k)) +
                                static_cast<NS>(qv.read(ctx, w2 * nlev + k)));
      acc_row[k] += wj * static_cast<NS>(flux.read(ctx, ep * nlev + k)) *
                    inv_lep * NS(0.5) * (qe_row[k] + qep);
      ctx.flops(7, prec);
    }
  }
  for (int k = 0; k < nlev; ++k) {
    // 1) -grad(ke) (accumulation starts from the unfused zero-fill).
    double t = 0.0;
    t += static_cast<double>(
        -(static_cast<NS>(ke.read(ctx, c2 * nlev + k)) -
          static_cast<NS>(ke.read(ctx, c1 * nlev + k))) *
        inv_de);
    t += static_cast<double>(acc_row[k]);
    ctx.flops(3, prec);
    ctx.flops(2, Prec::kDouble);
    // 3) Pressure gradient (SENSITIVE -- double).
    const double phm1 = 0.5 * (phi.read(ctx, c1 * (nlev + 1) + k) +
                               phi.read(ctx, c1 * (nlev + 1) + k + 1));
    const double phm2 = 0.5 * (phi.read(ctx, c2 * (nlev + 1) + k) +
                               phi.read(ctx, c2 * (nlev + 1) + k + 1));
    const double alpha_e = 0.5 * (alpha.read(ctx, c1 * nlev + k) +
                                  alpha.read(ctx, c2 * nlev + k));
    t -= ((phm2 - phm1) + alpha_e * (p.read(ctx, c2 * nlev + k) -
                                     p.read(ctx, c1 * nlev + k))) *
         inv_de_d;
    ctx.flops(10, Prec::kDouble);
    // 4) del2 damping.
    const NS grad_div = (static_cast<NS>(div_u.read(ctx, c2 * nlev + k)) -
                         static_cast<NS>(div_u.read(ctx, c1 * nlev + k))) *
                        inv_de;
    const NS curl_vor = (static_cast<NS>(vor.read(ctx, v2 * nlev + k)) -
                         static_cast<NS>(vor.read(ctx, v1 * nlev + k))) *
                        inv_le;
    t += static_cast<double>(scale * (static_cast<NS>(nu_div) * grad_div -
                                      static_cast<NS>(nu_vor) * curl_vor));
    ctx.flops(7, prec);
    ctx.flops(1, Prec::kDouble);
    tend_u.write(ctx, e * nlev + k, t);
  }
}

// ===========================================================================
// tracer_transport_hori_flux_limiter: the four phases of the Zalesak FCT
// update (paper Fig. 9's most array-hungry kernel). Mass bookkeeping stays
// double; only the limiter blending runs in NS.
// ===========================================================================

/// Phase 1 (edges): low-order (upwind) and antidiffusive fluxes.
template <precision::NsReal NS, typename B, typename Ctx>
void tracerEdgeFluxes(Ctx& ctx, Index e, const MeshView<B>& m, int nlev,
                      V<B, double> mean_flux, V<B, double> q,
                      MV<B, double> flux_low, MV<B, double> flux_anti) {
  constexpr Prec prec = kPrecOf<NS>;
  const auto cells = m.edge_cell.read(ctx, e);
  const Index c1 = cells[0];
  const Index c2 = cells[1];
  for (int k = 0; k < nlev; ++k) {
    const double f = mean_flux.read(ctx, e * nlev + k);
    const NS q1 = static_cast<NS>(q.read(ctx, c1 * nlev + k));
    const NS q2 = static_cast<NS>(q.read(ctx, c2 * nlev + k));
    const double low = f * static_cast<double>(f >= 0 ? q1 : q2);
    const double high = f * static_cast<double>(NS(0.5) * (q1 + q2));
    ctx.flops(2, prec);
    ctx.flops(3, Prec::kDouble);
    flux_low.write(ctx, e * nlev + k, low);
    flux_anti.write(ctx, e * nlev + k, high - low);
  }
}

/// Phase 2 (cells): transported-diffused solution from low-order fluxes.
template <typename B, typename Ctx>
void tracerTransportedDiffused(Ctx& ctx, Index c, const MeshView<B>& m,
                               int nlev, double dt, V<B, double> flux_low,
                               V<B, double> q, V<B, double> delp_old,
                               V<B, double> delp_new, MV<B, double> q_td) {
  const Index j0 = m.cell_offset.read(ctx, c);
  const Index j1 = m.cell_offset.read(ctx, c + 1);
  const double area = m.cell_area.read(ctx, c);
  for (int k = 0; k < nlev; ++k) {
    double div = 0.0;
    for (Index j = j0; j < j1; ++j) {
      div += m.cell_edge_sign.read(ctx, j) *
             flux_low.read(ctx, m.cell_edges.read(ctx, j) * nlev + k);
      ctx.flops(2, Prec::kDouble);
    }
    const double mass_old =
        delp_old.read(ctx, c * nlev + k) * q.read(ctx, c * nlev + k);
    ctx.flops(3, Prec::kDouble);
    ctx.divs(2, Prec::kDouble);
    q_td.write(ctx, c * nlev + k,
               (mass_old - dt * div / area) / delp_new.read(ctx, c * nlev + k));
  }
}

/// Phase 3 (cells): Zalesak limiter factors R+/R- from allowed extrema.
template <typename B, typename Ctx>
void tracerLimiterFactors(Ctx& ctx, Index c, const MeshView<B>& m, int nlev,
                          double dt, V<B, double> q, V<B, double> q_td,
                          V<B, double> flux_anti, V<B, double> delp_new,
                          MV<B, double> rp, MV<B, double> rm) {
  const Index j0 = m.cell_offset.read(ctx, c);
  const Index j1 = m.cell_offset.read(ctx, c + 1);
  const double area = m.cell_area.read(ctx, c);
  for (int k = 0; k < nlev; ++k) {
    double qmax = std::max(q.read(ctx, c * nlev + k), q_td.read(ctx, c * nlev + k));
    double qmin = std::min(q.read(ctx, c * nlev + k), q_td.read(ctx, c * nlev + k));
    for (Index j = j0; j < j1; ++j) {
      const Index nb = m.cell_cells.read(ctx, j);
      qmax = std::max({qmax, q.read(ctx, nb * nlev + k), q_td.read(ctx, nb * nlev + k)});
      qmin = std::min({qmin, q.read(ctx, nb * nlev + k), q_td.read(ctx, nb * nlev + k)});
      ctx.flops(4, Prec::kDouble);
    }
    double p_in = 0.0, p_out = 0.0;
    for (Index j = j0; j < j1; ++j) {
      const double fa = m.cell_edge_sign.read(ctx, j) *
                        flux_anti.read(ctx, m.cell_edges.read(ctx, j) * nlev + k);
      ctx.flops(2, Prec::kDouble);
      if (fa < 0) {
        p_in -= fa;  // influx
      } else {
        p_out += fa;
      }
    }
    const double scale =
        dt / (area * delp_new.read(ctx, c * nlev + k));
    const double room_up = (qmax - q_td.read(ctx, c * nlev + k)) / scale;
    const double room_dn = (q_td.read(ctx, c * nlev + k) - qmin) / scale;
    ctx.flops(4, Prec::kDouble);
    ctx.divs(3, Prec::kDouble);
    ctx.divs(2, Prec::kDouble);  // room_up/p_in, room_dn/p_out
    rp.write(ctx, c * nlev + k,
             p_in > 0 ? std::min(1.0, room_up / p_in) : 0.0);
    rm.write(ctx, c * nlev + k,
             p_out > 0 ? std::min(1.0, room_dn / p_out) : 0.0);
  }
}

/// Phase 4 (cells): apply the limited antidiffusive fluxes in place.
template <typename B, typename Ctx>
void tracerApplyLimited(Ctx& ctx, Index c, const MeshView<B>& m, int nlev,
                        double dt, V<B, double> q_td, V<B, double> rp,
                        V<B, double> rm, V<B, double> flux_anti,
                        V<B, double> delp_new, MV<B, double> q) {
  const Index j0 = m.cell_offset.read(ctx, c);
  const Index j1 = m.cell_offset.read(ctx, c + 1);
  const double area = m.cell_area.read(ctx, c);
  for (int k = 0; k < nlev; ++k) {
    double corr = 0.0;
    for (Index j = j0; j < j1; ++j) {
      const Index e = m.cell_edges.read(ctx, j);
      const auto cells = m.edge_cell.read(ctx, e);
      const Index c1 = cells[0];
      const Index c2 = cells[1];
      const double fa = flux_anti.read(ctx, e * nlev + k);
      double limit;
      if (fa >= 0) {  // antidiffusive flux c1 -> c2
        limit = std::min(rp.read(ctx, c2 * nlev + k), rm.read(ctx, c1 * nlev + k));
      } else {
        limit = std::min(rp.read(ctx, c1 * nlev + k), rm.read(ctx, c2 * nlev + k));
      }
      corr += m.cell_edge_sign.read(ctx, j) * limit * fa;
      ctx.flops(4, Prec::kDouble);
    }
    ctx.flops(3, Prec::kDouble);
    ctx.divs(1, Prec::kDouble);
    q.write(ctx, c * nlev + k,
            q_td.read(ctx, c * nlev + k) -
                dt * corr / (area * delp_new.read(ctx, c * nlev + k)));
  }
}

} // namespace grist::backend::kernels
