// Tier-generic bodies of the SIMD execution backend (grist/backend/simd.hpp).
//
// This header is the single source for all three dispatch tiers: each of
// src/backend/src/simd_tier_{scalar,avx2,avx512}.cpp defines
//   GRIST_SIMD_TIER_FN  -- the external name of the tier's table factory
//   GRIST_SIMD_TIER_ID  -- the Tier enum value it reports
// and includes this file, compiled under that tier's ISA flags (and with
// -ffp-contract=off on the vector tiers, so no FMA contraction appears
// relative to the FMA-less baseline build). Everything except the factory
// lives in an anonymous namespace: the three TUs deliberately carry three
// differently-compiled copies of the same code, so internal linkage is what
// keeps that from being an ODR violation.
//
// Bitwise contract vs the HostBackend instantiation of
// grist/backend/kernels.hpp, per kernel:
//   - Vector loops run only over k (the vertical): per-element operation
//     order is exactly the scalar body's, so IEEE determinism of vector
//     add/mul/div/cvt gives bit-equal lanes.
//   - Kernels whose scalar body is k-outer / j-inner (Coriolis, vertex
//     diagnostics, tracer phases 2-4) are re-ordered j-outer / k-inner with
//     per-k accumulator rows from the thread's Workspace arena. Each k's
//     contributions still arrive in ascending-j order, so every accumulation
//     chain is unchanged.
//   - pow returns std::pow's bits in every tier (simd_pow_impl.hpp): the
//     scalar and AVX2 tiers call std::pow per element; the AVX-512 tier
//     evaluates x^y in double-double per lane and redoes with std::pow only
//     the lanes whose extended result lies within 1/32 ULP of a rounding
//     midpoint or is a power of two, whose |y ln x| > 8, or whose x is not a
//     positive normal. Outside that window glibc's pow (>= 2.28, error
//     <= 0.511 ULP from its exp plus < 0.001 ULP from its log when
//     |y ln x| <= 8) is correctly rounded, which is what the lane holds.
//   - The Thomas solve is loop-carried in k, so vert_solve_lanes vectorizes
//     across columns: its 8 lanes hold consecutive (column, member) pairs,
//     each replaying vertImplicitColumn's per-column order. At M = 1 that is
//     8 columns per vector; at M = 8, one column's 8 members.
//   - max/min folds keep first-operand-wins tie semantics: max(a, max(b, c))
//     reproduces std::max({a, b, c}) exactly, signed zeros included.
//   - The limiter's branch `if (fa < 0) p_in -= fa; else p_out += fa;`
//     becomes two masked accumulations adding literal 0.0 on the untaken
//     side; both sums are non-negative throughout, so x + 0.0 is bit-exact.
//   - Fringe lanes (nlev % width) run masked (AVX-512) or scalar (AVX2);
//     nothing reads past a row end, so row padding is never relied on.
//   - The fused sweeps store their NS intermediates in NS (the storage
//     contract in simd.hpp): a float slot writes (float)x where the Host
//     body writes x, and reads it back where the Host body rounded x to NS.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "grist/backend/kernels.hpp"
#include "grist/backend/simd.hpp"
#include "grist/backend/simd_pow_impl.hpp"
#include "grist/backend/views.hpp"
#include "grist/common/math.hpp"
#include "grist/common/workspace.hpp"

#if !defined(GRIST_SIMD_TIER_FN) || !defined(GRIST_SIMD_TIER_ID)
#error "simd_kernels_impl.hpp must be included from a tier TU"
#endif

namespace grist::backend::simd {
namespace {

using common::Workspace;
using grid::HexMesh;
using grid::TrskWeights;

// ---------------------------------------------------------------------------
// Edge interpolation core (primal_normal_flux_edge / fused_edge_fluxes):
// the divide-heaviest loop in the registry, hand-vectorized for the double
// NS where the compiler's cost model tends to give up on the two divisions
// plus blend. The scalar form is the reference order of operations:
//   centered = 0.5*(h1+h2); upwind = ue>=0 ? h1 : h2;
//   r = upwind/centered; blend = 1/(1+r*r);
//   he = centered + blend*(upwind-centered)*0.5;
//   flux = (F)(le*ue*he); uflux = (F)(le_d*ue_d)  (fused only)
// F is the output storage: double for the registry kernel, NS for the
// fused sweep. The intrinsic paths are the double NS, where F is double.
// ---------------------------------------------------------------------------

template <precision::NsReal NS, typename F>
inline void edgeFluxRow(int nlev, NS le, double le_d, const double* __restrict d1,
                        const double* __restrict d2, const double* __restrict ur,
                        F* __restrict fr, F* __restrict ufr) {
#if defined(__AVX512F__)
  if constexpr (std::is_same_v<NS, double>) {
    const __m512d vhalf = _mm512_set1_pd(0.5);
    const __m512d vone = _mm512_set1_pd(1.0);
    const __m512d vzero = _mm512_setzero_pd();
    const __m512d vle = _mm512_set1_pd(le_d);
    for (int k = 0; k < nlev; k += 8) {
      const int rem = nlev - k;
      const __mmask8 lanes =
          rem >= 8 ? __mmask8(0xff) : __mmask8((1u << rem) - 1u);
      const __m512d h1 = _mm512_maskz_loadu_pd(lanes, d1 + k);
      const __m512d h2 = _mm512_maskz_loadu_pd(lanes, d2 + k);
      const __m512d ue = _mm512_maskz_loadu_pd(lanes, ur + k);
      const __m512d centered = _mm512_mul_pd(vhalf, _mm512_add_pd(h1, h2));
      const __mmask8 pos = _mm512_cmp_pd_mask(ue, vzero, _CMP_GE_OQ);
      const __m512d upwind = _mm512_mask_blend_pd(pos, h2, h1);
      const __m512d r = _mm512_div_pd(upwind, centered);
      const __m512d blend =
          _mm512_div_pd(vone, _mm512_add_pd(vone, _mm512_mul_pd(r, r)));
      const __m512d he = _mm512_add_pd(
          centered,
          _mm512_mul_pd(_mm512_mul_pd(blend, _mm512_sub_pd(upwind, centered)),
                        vhalf));
      const __m512d leu = _mm512_mul_pd(vle, ue);
      _mm512_mask_storeu_pd(fr + k, lanes, _mm512_mul_pd(leu, he));
      if (ufr) _mm512_mask_storeu_pd(ufr + k, lanes, leu);
    }
    return;
  }
#elif defined(__AVX2__)
  if constexpr (std::is_same_v<NS, double>) {
    const __m256d vhalf = _mm256_set1_pd(0.5);
    const __m256d vone = _mm256_set1_pd(1.0);
    const __m256d vzero = _mm256_setzero_pd();
    const __m256d vle = _mm256_set1_pd(le_d);
    int k = 0;
    for (; k + 4 <= nlev; k += 4) {
      const __m256d h1 = _mm256_loadu_pd(d1 + k);
      const __m256d h2 = _mm256_loadu_pd(d2 + k);
      const __m256d ue = _mm256_loadu_pd(ur + k);
      const __m256d centered = _mm256_mul_pd(vhalf, _mm256_add_pd(h1, h2));
      const __m256d pos = _mm256_cmp_pd(ue, vzero, _CMP_GE_OQ);
      const __m256d upwind = _mm256_blendv_pd(h2, h1, pos);
      const __m256d r = _mm256_div_pd(upwind, centered);
      const __m256d blend =
          _mm256_div_pd(vone, _mm256_add_pd(vone, _mm256_mul_pd(r, r)));
      const __m256d he = _mm256_add_pd(
          centered,
          _mm256_mul_pd(_mm256_mul_pd(blend, _mm256_sub_pd(upwind, centered)),
                        vhalf));
      const __m256d leu = _mm256_mul_pd(vle, ue);
      _mm256_storeu_pd(fr + k, _mm256_mul_pd(leu, he));
      if (ufr) _mm256_storeu_pd(ufr + k, leu);
    }
    for (; k < nlev; ++k) {  // scalar fringe, identical to the host body
      const double h1 = d1[k], h2 = d2[k], ue = ur[k];
      const double centered = 0.5 * (h1 + h2);
      const double upwind = ue >= 0.0 ? h1 : h2;
      const double r = upwind / centered;
      const double blend = 1.0 / (1.0 + r * r);
      const double he = centered + blend * (upwind - centered) * 0.5;
      fr[k] = le_d * ue * he;
      if (ufr) ufr[k] = le_d * ue;
    }
    return;
  }
#endif
  // Generic path (scalar tier, and the float NS on every tier): the select,
  // the two divides and the double<->float converts all have masked vector
  // forms, so `omp simd` is enough once the TU carries the ISA flags.
#pragma omp simd
  for (int k = 0; k < nlev; ++k) {
    const NS h1 = static_cast<NS>(d1[k]);
    const NS h2 = static_cast<NS>(d2[k]);
    const double ue_d = ur[k];
    const NS ue = static_cast<NS>(ue_d);
    const NS centered = NS(0.5) * (h1 + h2);
    const NS upwind = ue >= NS(0) ? h1 : h2;
    const NS r = upwind / centered;
    const NS blend = NS(1) / (NS(1) + r * r);
    const NS he = centered + blend * (upwind - centered) * NS(0.5);
    fr[k] = static_cast<F>(le * ue * he);
    if (ufr) ufr[k] = static_cast<F>(le_d * ue_d);
  }
}

template <precision::NsReal NS>
void primalNormalFluxEdgeImpl(const HexMesh& m, Index nedges, int nlev,
                              const double* delp, const double* u,
                              double* flux) {
#pragma omp parallel for schedule(static)
  for (Index e = 0; e < nedges; ++e) {
    const Index c1 = m.edge_cell[e][0];
    const Index c2 = m.edge_cell[e][1];
    const double le_d = m.edge_le[e];
    edgeFluxRow<NS, double>(nlev, static_cast<NS>(le_d), le_d,
                            delp + c1 * nlev, delp + c2 * nlev, u + e * nlev,
                            flux + e * nlev, nullptr);
  }
}

template <precision::NsReal NS>
void fusedEdgeFluxesImpl(const HexMesh& m, Index nedges, int nlev,
                         const double* delp, const double* u, NS* flux,
                         NS* uflux) {
#pragma omp parallel for schedule(static)
  for (Index e = 0; e < nedges; ++e) {
    const Index c1 = m.edge_cell[e][0];
    const Index c2 = m.edge_cell[e][1];
    const double le_d = m.edge_le[e];
    edgeFluxRow<NS, NS>(nlev, static_cast<NS>(le_d), le_d, delp + c1 * nlev,
                        delp + c2 * nlev, u + e * nlev, flux + e * nlev,
                        uflux + e * nlev);
  }
}

// ---------------------------------------------------------------------------
// rrr_alpha_p / rrr_p: compute_rrr minus its dead outputs. Cells go in
// blocks of kRrrBlock: one vector loop per row writes alpha and stages the
// pow argument in a per-thread Workspace row, one powRow (std::pow's bits)
// runs over the whole block, and p = kP0 * pow is stored once. Expressions
// and their order are exactly computeRrrColumn's, so alpha/p match it bit
// for bit. alpha is stored in NS: the Host body writes (double)(NS
// quotient), which a float row holds exactly.
// ---------------------------------------------------------------------------
constexpr Index kRrrBlock = 8;

template <precision::NsReal NS, bool kAlpha>
void rrrImpl(const Index* cells, Index n, int nlev, const double* delp,
             const double* theta, const double* phi, NS* alpha, double* p) {
  using namespace grist::constants;
  const double gamma = kCp / (kCp - kRd);  // cp/cv
  const Index nblocks = (n + kRrrBlock - 1) / kRrrBlock;
#pragma omp parallel
  {
    Workspace& ws = Workspace::threadLocal();
    ws.reserve(Workspace::bytesFor<double>(kRrrBlock * nlev));
    const Workspace::Frame frame(ws);
    double* __restrict arg = ws.acquire<double>(kRrrBlock * nlev);
#pragma omp for schedule(static)
    for (Index b = 0; b < nblocks; ++b) {
      const Index i0 = b * kRrrBlock;
      const Index nb = std::min(kRrrBlock, n - i0);
      for (Index j = 0; j < nb; ++j) {
        const Index c = cells ? cells[i0 + j] : i0 + j;
        const double* __restrict dp = delp + c * nlev;
        const double* __restrict th = theta + c * nlev;
        const double* __restrict ph = phi + c * (nlev + 1);
        double* __restrict ar = arg + j * nlev;
        NS* __restrict al = kAlpha ? alpha + c * nlev : nullptr;
#pragma omp simd
        for (int k = 0; k < nlev; ++k) {
          const NS dphi = static_cast<NS>(ph[k] - ph[k + 1]);
          if constexpr (kAlpha) al[k] = dphi / static_cast<NS>(dp[k]);
          const double rho = dp[k] / static_cast<double>(dphi);
          ar[k] = rho * kRd * th[k] / kP0;
        }
      }
      powRow(nb * nlev, arg, gamma, arg);
      for (Index j = 0; j < nb; ++j) {
        const Index c = cells ? cells[i0 + j] : i0 + j;
        const double* __restrict ar = arg + j * nlev;
        double* __restrict pr = p + c * nlev;
#pragma omp simd
        for (int k = 0; k < nlev; ++k) pr[k] = kP0 * ar[k];
      }
    }
  }
}

void rrrPImpl(const Index* cells, Index n, int nlev, const double* delp,
              const double* theta, const double* phi, double* p) {
  rrrImpl<double, false>(cells, n, nlev, delp, theta, phi, nullptr, p);
}

// ---------------------------------------------------------------------------
// RK3 save / update / accumulate: elementwise, so the contiguous form is
// one flat cell*k (edge*k) sweep and the band form vectorizes each listed
// row. The positivity backstop is a blend: both divides run and the
// discarded one is dropped (thetam0/delp0 is always defined, and a
// speculative nt/nd cannot trap with exceptions masked).
// ---------------------------------------------------------------------------
void saveCellStartImpl(Index ncells, int nlev, const double* __restrict delp,
                       const double* __restrict theta,
                       double* __restrict delp0, double* __restrict thetam0) {
  const Index total = ncells * nlev;
#pragma omp parallel for simd schedule(static)
  for (Index i = 0; i < total; ++i) {
    delp0[i] = delp[i];
    thetam0[i] = delp[i] * theta[i];
  }
}

void saveEdgeStartImpl(Index nedges, int nlev, const double* __restrict u,
                       double* __restrict u0) {
  const Index total = nedges * nlev;
#pragma omp parallel for simd schedule(static)
  for (Index i = 0; i < total; ++i) u0[i] = u[i];
}

inline void updateCellAt(Index i, double dts, const double* __restrict delp0,
                         const double* __restrict thetam0,
                         const double* __restrict delp_tend,
                         const double* __restrict thetam_tend,
                         double* __restrict delp, double* __restrict theta) {
  const double d0 = delp0[i];
  const double nd = d0 + dts * delp_tend[i];
  const double nt = thetam0[i] + dts * thetam_tend[i];
  const double floor_d = 0.1 * d0;
  const bool floored = nd < floor_d;
  delp[i] = floored ? floor_d : nd;
  theta[i] = floored ? thetam0[i] / d0 : nt / nd;
}

void updateCellsImpl(const Index* cells, Index n, int nlev, double dts,
                     const double* delp0, const double* thetam0,
                     const double* delp_tend, const double* thetam_tend,
                     double* delp, double* theta) {
  if (!cells) {
    const Index total = n * nlev;
#pragma omp parallel for simd schedule(static)
    for (Index i = 0; i < total; ++i) {
      updateCellAt(i, dts, delp0, thetam0, delp_tend, thetam_tend, delp, theta);
    }
    return;
  }
#pragma omp parallel for schedule(static)
  for (Index j = 0; j < n; ++j) {
    const Index base = cells[j] * nlev;
#pragma omp simd
    for (int k = 0; k < nlev; ++k) {
      updateCellAt(base + k, dts, delp0, thetam0, delp_tend, thetam_tend, delp,
                   theta);
    }
  }
}

void updateEdgesImpl(const Index* edges, Index n, int nlev, double dts,
                     const double* __restrict u0,
                     const double* __restrict u_tend, double* __restrict u) {
  if (!edges) {
    const Index total = n * nlev;
#pragma omp parallel for simd schedule(static)
    for (Index i = 0; i < total; ++i) u[i] = u0[i] + dts * u_tend[i];
    return;
  }
#pragma omp parallel for schedule(static)
  for (Index j = 0; j < n; ++j) {
    const Index base = edges[j] * nlev;
#pragma omp simd
    for (int k = 0; k < nlev; ++k) {
      u[base + k] = u0[base + k] + dts * u_tend[base + k];
    }
  }
}

template <precision::NsReal NS>
void accumulateFluxImpl(Index nedges, int nlev, const NS* __restrict flux,
                        double* __restrict acc) {
  const Index total = nedges * nlev;
#pragma omp parallel for simd schedule(static)
  for (Index i = 0; i < total; ++i) acc[i] += flux[i];
}

// ---------------------------------------------------------------------------
// calc_coriolis_term: scalar body is k-outer / j-inner; here j-outer /
// k-inner over qe/acc rows -- each k still accumulates its TRSK stencil in
// ascending-j order, so every chain matches the scalar one bit for bit.
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void calcCoriolisTermImpl(const HexMesh& m, const TrskWeights& trsk,
                          Index nedges, int nlev, const double* flux,
                          const double* qv, double* tend_u) {
#pragma omp parallel
  {
    Workspace& ws = Workspace::threadLocal();
    ws.reserve(Workspace::bytesFor<NS>(nlev) * 2);
#pragma omp for schedule(static)
    for (Index e = 0; e < nedges; ++e) {
      const Workspace::Frame frame(ws);
      NS* __restrict qe_row = ws.acquire<NS>(nlev);
      NS* __restrict acc_row = ws.acquire<NS>(nlev);
      const Index v1 = m.edge_vertex[e][0];
      const Index v2 = m.edge_vertex[e][1];
      const double* __restrict q1 = qv + v1 * nlev;
      const double* __restrict q2 = qv + v2 * nlev;
#pragma omp simd
      for (int k = 0; k < nlev; ++k) {
        qe_row[k] = NS(0.5) * (static_cast<NS>(q1[k]) + static_cast<NS>(q2[k]));
        acc_row[k] = NS(0);
      }
      const Index j0 = trsk.offset[e];
      const Index j1 = trsk.offset[e + 1];
      for (Index j = j0; j < j1; ++j) {
        const Index ep = trsk.edge[j];
        const NS wj = static_cast<NS>(trsk.weight[j]);
        const NS inv_lep = static_cast<NS>(1.0 / m.edge_le[ep]);
        const double* __restrict p1 = qv + m.edge_vertex[ep][0] * nlev;
        const double* __restrict p2 = qv + m.edge_vertex[ep][1] * nlev;
        const double* __restrict fl = flux + ep * nlev;
#pragma omp simd
        for (int k = 0; k < nlev; ++k) {
          const NS qep =
              NS(0.5) * (static_cast<NS>(p1[k]) + static_cast<NS>(p2[k]));
          acc_row[k] += wj * static_cast<NS>(fl[k]) * inv_lep * NS(0.5) *
                        (qe_row[k] + qep);
        }
      }
      double* __restrict tu = tend_u + e * nlev;
#pragma omp simd
      for (int k = 0; k < nlev; ++k) {
        tu[k] = tu[k] + static_cast<double>(acc_row[k]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// tend_grad_ke_at_edge: already elementwise over k.
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void tendGradKeAtEdgeImpl(const HexMesh& m, Index nedges, int nlev,
                          const double* ke, double* tend_u) {
#pragma omp parallel for schedule(static)
  for (Index e = 0; e < nedges; ++e) {
    const Index c1 = m.edge_cell[e][0];
    const Index c2 = m.edge_cell[e][1];
    const NS inv_de = static_cast<NS>(1.0 / m.edge_de[e]);
    const double* __restrict k1 = ke + c1 * nlev;
    const double* __restrict k2 = ke + c2 * nlev;
    double* __restrict tu = tend_u + e * nlev;
#pragma omp simd
    for (int k = 0; k < nlev; ++k) {
      const double add = static_cast<double>(
          -(static_cast<NS>(k2[k]) - static_cast<NS>(k1[k])) * inv_de);
      tu[k] = tu[k] + add;
    }
  }
}

// ---------------------------------------------------------------------------
// div_at_cell: zero fill, then ascending-j accumulation with a vector k
// inner loop (the scalar body is already j-outer / k-inner).
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void divAtCellImpl(const HexMesh& m, Index ncells, int nlev,
                   const double* flux, double* div) {
#pragma omp parallel for schedule(static)
  for (Index c = 0; c < ncells; ++c) {
    const NS inv_area = static_cast<NS>(1.0 / m.cell_area[c]);
    double* __restrict dv = div + c * nlev;
#pragma omp simd
    for (int k = 0; k < nlev; ++k) dv[k] = 0.0;
    const Index j0 = m.cell_offset[c];
    const Index j1 = m.cell_offset[c + 1];
    for (Index j = j0; j < j1; ++j) {
      const NS sign = static_cast<NS>(m.cell_edge_sign[j]);
      const double* __restrict fl = flux + m.cell_edges[j] * nlev;
#pragma omp simd
      for (int k = 0; k < nlev; ++k) {
        const double add =
            static_cast<double>(sign * static_cast<NS>(fl[k]) * inv_area);
        dv[k] = dv[k] + add;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// tracer_hori_flux_limiter: all four FCT phases. Phase 1 runs over every
// mesh edge; phases 2-4 over the prognostic cells, re-ordered j-outer /
// k-inner with Workspace rows. Mass bookkeeping is double throughout, as in
// the scalar body; only phase 1's blending runs in NS.
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void tracerHoriFluxLimiterImpl(const HexMesh& m, Index ncells, int nlev,
                               double dt, const double* mean_flux,
                               const double* delp_old, const double* delp_new,
                               double* q, double* flux_low, double* flux_anti,
                               double* q_td, double* rp, double* rm) {
  // Phase 1 (edges): low-order and antidiffusive fluxes.
#pragma omp parallel for schedule(static)
  for (Index e = 0; e < m.nedges; ++e) {
    const Index c1 = m.edge_cell[e][0];
    const Index c2 = m.edge_cell[e][1];
    const double* __restrict mf = mean_flux + e * nlev;
    const double* __restrict qc1 = q + c1 * nlev;
    const double* __restrict qc2 = q + c2 * nlev;
    double* __restrict lo = flux_low + e * nlev;
    double* __restrict an = flux_anti + e * nlev;
#pragma omp simd
    for (int k = 0; k < nlev; ++k) {
      const double f = mf[k];
      const NS q1 = static_cast<NS>(qc1[k]);
      const NS q2 = static_cast<NS>(qc2[k]);
      const double low = f * static_cast<double>(f >= 0 ? q1 : q2);
      const double high = f * static_cast<double>(NS(0.5) * (q1 + q2));
      lo[k] = low;
      an[k] = high - low;
    }
  }

  // Phase 2 (cells): transported-diffused solution from low-order fluxes.
#pragma omp parallel
  {
    Workspace& ws = Workspace::threadLocal();
    ws.reserve(Workspace::bytesFor<double>(nlev) * 4);
#pragma omp for schedule(static)
    for (Index c = 0; c < ncells; ++c) {
      const Workspace::Frame frame(ws);
      double* __restrict div = ws.acquire<double>(nlev);
#pragma omp simd
      for (int k = 0; k < nlev; ++k) div[k] = 0.0;
      const Index j0 = m.cell_offset[c];
      const Index j1 = m.cell_offset[c + 1];
      for (Index j = j0; j < j1; ++j) {
        const double sign = m.cell_edge_sign[j];
        const double* __restrict lo = flux_low + m.cell_edges[j] * nlev;
#pragma omp simd
        for (int k = 0; k < nlev; ++k) div[k] += sign * lo[k];
      }
      const double area = m.cell_area[c];
      const double* __restrict dpo = delp_old + c * nlev;
      const double* __restrict dpn = delp_new + c * nlev;
      const double* __restrict qc = q + c * nlev;
      double* __restrict td = q_td + c * nlev;
#pragma omp simd
      for (int k = 0; k < nlev; ++k) {
        const double mass_old = dpo[k] * qc[k];
        td[k] = (mass_old - dt * div[k] / area) / dpn[k];
      }
    }
  }

  // Phase 3 (cells): Zalesak limiter factors R+/R-. The max/min folds keep
  // the scalar first-operand-wins order; p_in/p_out gain a literal +0.0 on
  // the untaken branch (bit-exact: both sums stay non-negative).
#pragma omp parallel
  {
    Workspace& ws = Workspace::threadLocal();
    ws.reserve(Workspace::bytesFor<double>(nlev) * 4);
#pragma omp for schedule(static)
    for (Index c = 0; c < ncells; ++c) {
      const Workspace::Frame frame(ws);
      double* __restrict qmax = ws.acquire<double>(nlev);
      double* __restrict qmin = ws.acquire<double>(nlev);
      double* __restrict p_in = ws.acquire<double>(nlev);
      double* __restrict p_out = ws.acquire<double>(nlev);
      const double* __restrict qc = q + c * nlev;
      const double* __restrict td = q_td + c * nlev;
#pragma omp simd
      for (int k = 0; k < nlev; ++k) {
        qmax[k] = std::max(qc[k], td[k]);
        qmin[k] = std::min(qc[k], td[k]);
        p_in[k] = 0.0;
        p_out[k] = 0.0;
      }
      const Index j0 = m.cell_offset[c];
      const Index j1 = m.cell_offset[c + 1];
      for (Index j = j0; j < j1; ++j) {
        const Index nb = m.cell_cells[j];
        const double* __restrict qn = q + nb * nlev;
        const double* __restrict tn = q_td + nb * nlev;
#pragma omp simd
        for (int k = 0; k < nlev; ++k) {
          qmax[k] = std::max(qmax[k], std::max(qn[k], tn[k]));
          qmin[k] = std::min(qmin[k], std::min(qn[k], tn[k]));
        }
      }
      for (Index j = j0; j < j1; ++j) {
        const double sign = m.cell_edge_sign[j];
        const double* __restrict an = flux_anti + m.cell_edges[j] * nlev;
#pragma omp simd
        for (int k = 0; k < nlev; ++k) {
          const double fa = sign * an[k];
          p_in[k] += fa < 0 ? -fa : 0.0;
          p_out[k] += fa < 0 ? 0.0 : fa;
        }
      }
      const double area = m.cell_area[c];
      const double* __restrict dpn = delp_new + c * nlev;
      double* __restrict rpc = rp + c * nlev;
      double* __restrict rmc = rm + c * nlev;
#pragma omp simd
      for (int k = 0; k < nlev; ++k) {
        const double scale = dt / (area * dpn[k]);
        const double room_up = (qmax[k] - td[k]) / scale;
        const double room_dn = (td[k] - qmin[k]) / scale;
        rpc[k] = p_in[k] > 0 ? std::min(1.0, room_up / p_in[k]) : 0.0;
        rmc[k] = p_out[k] > 0 ? std::min(1.0, room_dn / p_out[k]) : 0.0;
      }
    }
  }

  // Phase 4 (cells): apply the limited antidiffusive fluxes in place.
#pragma omp parallel
  {
    Workspace& ws = Workspace::threadLocal();
    ws.reserve(Workspace::bytesFor<double>(nlev) * 4);
#pragma omp for schedule(static)
    for (Index c = 0; c < ncells; ++c) {
      const Workspace::Frame frame(ws);
      double* __restrict corr = ws.acquire<double>(nlev);
#pragma omp simd
      for (int k = 0; k < nlev; ++k) corr[k] = 0.0;
      const Index j0 = m.cell_offset[c];
      const Index j1 = m.cell_offset[c + 1];
      for (Index j = j0; j < j1; ++j) {
        const Index e = m.cell_edges[j];
        const Index c1 = m.edge_cell[e][0];
        const Index c2 = m.edge_cell[e][1];
        const double sign = m.cell_edge_sign[j];
        const double* __restrict an = flux_anti + e * nlev;
        const double* __restrict rp1 = rp + c1 * nlev;
        const double* __restrict rp2 = rp + c2 * nlev;
        const double* __restrict rm1 = rm + c1 * nlev;
        const double* __restrict rm2 = rm + c2 * nlev;
#pragma omp simd
        for (int k = 0; k < nlev; ++k) {
          const double fa = an[k];
          const double limit = fa >= 0 ? std::min(rp2[k], rm1[k])
                                       : std::min(rp1[k], rm2[k]);
          corr[k] += sign * limit * fa;
        }
      }
      const double area = m.cell_area[c];
      const double* __restrict dpn = delp_new + c * nlev;
      const double* __restrict td = q_td + c * nlev;
      double* __restrict qc = q + c * nlev;
#pragma omp simd
      for (int k = 0; k < nlev; ++k) {
        qc[k] = td[k] - dt * corr[k] / (area * dpn[k]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// vert_solve_lanes: the column solve (kernels::vertImplicitColumn) with a
// (column, member) pair as the vector lane. The Thomas recurrence is
// sequential in k but independent across columns and members, so each
// block of 8 consecutive pairs (member fastest) turns 8 divide chains into
// lane-parallel IEEE divides: 8 columns per block at M = 1, one column's 8
// members at M = 8. Lane-major scratch is [k][lane] with a fixed stride of
// 8: a k-offset is a stride-8 offset in a flat loop. A final partial block
// repeats its first pair in the unused lanes and stores only its own.
// Per-lane operation order is exactly vertImplicitColumn's.
// ---------------------------------------------------------------------------
void vertSolveLanesImpl(const Index* cells, Index ncols, int nmembers,
                        int nlev, double dt, double ptop,
                        const double* const* delp, const double* const* theta,
                        const double* const* p, double* const* w,
                        double* const* phi, double w_damp_tau) {
  using namespace grist::constants;
  constexpr int L = 8;
  const double gamma = kCp / (kCp - kRd);
  const double g = kGravity;
  const int n = nlev - 1;
  const std::int64_t npairs = static_cast<std::int64_t>(ncols) * nmembers;
  const std::int64_t nblocks = (npairs + L - 1) / L;

#pragma omp parallel
  {
    Workspace& ws = Workspace::threadLocal();
    const std::size_t row = Workspace::bytesFor<double>(nlev * L);
    const std::size_t irow = Workspace::bytesFor<double>((nlev + 1) * L);
    ws.reserve(7 * row + 3 * irow + Workspace::bytesFor<double>(L));
#pragma omp for schedule(static)
    for (std::int64_t b = 0; b < nblocks; ++b) {
      const Workspace::Frame frame(ws);
      double* dp_ln = ws.acquire<double>(nlev * L);
      double* p_ln = ws.acquire<double>(nlev * L);
      double* comp = ws.acquire<double>(nlev * L);
      double* phi_ln = ws.acquire<double>((nlev + 1) * L);
      double* w_ln = ws.acquire<double>((nlev + 1) * L);
      double* wnew = ws.acquire<double>((nlev + 1) * L);
      double* lower = ws.acquire<double>(n * L);
      double* diag = ws.acquire<double>(n * L);
      double* upper = ws.acquire<double>(n * L);
      double* rhs = ws.acquire<double>(n * L);
      double* theta0 = ws.acquire<double>(L);

      // Lane l solves pair b*L + l: column (pair / M), member (pair % M).
      const int used =
          static_cast<int>(std::min<std::int64_t>(L, npairs - b * L));
      const double* dp_l[L];
      const double* th_l[L];
      const double* p_l[L];
      double* w_l[L];
      double* phi_l[L];
      for (int l = 0; l < L; ++l) {
        const std::int64_t pair = b * L + (l < used ? l : 0);
        const Index i = static_cast<Index>(pair / nmembers);
        const int m = static_cast<int>(pair % nmembers);
        const std::size_t c = static_cast<std::size_t>(cells ? cells[i] : i);
        dp_l[l] = delp[m] + c * nlev;
        th_l[l] = theta[m] + c * nlev;
        p_l[l] = p[m] + c * nlev;
        w_l[l] = w[m] + c * (nlev + 1);
        phi_l[l] = phi[m] + c * (nlev + 1);
      }

      for (int k = 0; k < nlev; ++k) {
        for (int l = 0; l < L; ++l) {
          dp_ln[k * L + l] = dp_l[l][k];
          p_ln[k * L + l] = p_l[l][k];
        }
      }
      for (int k = 0; k <= nlev; ++k) {
        for (int l = 0; l < L; ++l) {
          phi_ln[k * L + l] = phi_l[l][k];
          w_ln[k * L + l] = w_l[l][k];
        }
      }
      for (int l = 0; l < L; ++l) theta0[l] = th_l[l][0];

      // comp[j] = gamma p_j / (phi_j - phi_{j+1}).
#pragma omp simd
      for (int j = 0; j < nlev * L; ++j) {
        comp[j] = gamma * p_ln[j] / (phi_ln[j] - phi_ln[j + L]);
      }
      // Rows for interior interfaces k = 1..n at flat j = (k-1)*L + lane.
#pragma omp simd
      for (int j = 0; j < n * L; ++j) {
        const double dpi = 0.5 * (dp_ln[j] + dp_ln[j + L]);
        const double ck = dt * g / dpi;
        const double a = ck * dt * g;
        lower[j] = -a * comp[j];
        diag[j] = 1.0 + a * (comp[j + L] + comp[j]);
        upper[j] = -a * comp[j + L];
        rhs[j] = w_ln[j + L] + ck * (p_ln[j + L] - p_ln[j]) - dt * g;
      }
      // Thomas: sequential in k, lane-parallel.
      for (int r = 1; r < n; ++r) {
#pragma omp simd
        for (int l = 0; l < L; ++l) {
          const double mm = lower[r * L + l] / diag[(r - 1) * L + l];
          diag[r * L + l] -= mm * upper[(r - 1) * L + l];
          rhs[r * L + l] -= mm * rhs[(r - 1) * L + l];
        }
      }
#pragma omp simd
      for (int j = 0; j < (nlev + 1) * L; ++j) wnew[j] = 0.0;
      if (n > 0) {
#pragma omp simd
        for (int l = 0; l < L; ++l) {
          wnew[n * L + l] = rhs[(n - 1) * L + l] / diag[(n - 1) * L + l];
        }
        for (int r = n - 2; r >= 0; --r) {
#pragma omp simd
          for (int l = 0; l < L; ++l) {
            wnew[(r + 1) * L + l] =
                (rhs[r * L + l] - upper[r * L + l] * wnew[(r + 2) * L + l]) /
                diag[r * L + l];
          }
        }
      }
      if (w_damp_tau > 0) {
#pragma omp simd
        for (int j = L; j < nlev * L; ++j) wnew[j] /= 1.0 + dt / w_damp_tau;
      }
      // Inversion limiter on pre-update phi; wnew row k sits at j + L.
#pragma omp simd
      for (int j = 0; j < n * L; ++j) {
        const double room =
            0.25 * std::min(phi_ln[j] - phi_ln[j + L],
                            phi_ln[j + L] - phi_ln[j + 2 * L]);
        const double bound = room / (dt * g);
        double wk = wnew[j + L];
        wk = wk > bound ? bound : wk;
        wk = wk < -bound ? -bound : wk;
        wnew[j + L] = wk;
      }
      // Scatter w, update interior phi, re-attach the top interface.
      for (int k = 0; k <= nlev; ++k) {
        for (int l = 0; l < used; ++l) w_l[l][k] = wnew[k * L + l];
      }
      for (int k = 1; k <= n; ++k) {
        for (int l = 0; l < used; ++l) phi_l[l][k] += dt * g * wnew[k * L + l];
      }
      double top_pow[L];
      for (int l = 0; l < L; ++l) top_pow[l] = (ptop + 0.5 * dp_ln[l]) / kP0;
      powRow(L, top_pow, kKappa, top_pow);
      for (int l = 0; l < used; ++l) {
        const double pi_top_mid = ptop + 0.5 * dp_ln[l];
        const double alpha_top = kRd * theta0[l] * top_pow[l] / pi_top_mid;
        phi_l[l][0] = phi_l[l][1] + alpha_top * dp_ln[l];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// fused_cell_diagnostics: the scalar body is already j-outer / k-inner with
// memory accumulators, so the vector form is a direct transcription. (A
// k-register-tiled variant measured slower here: the ring's per-edge scalar
// setup re-ran once per tile and the tile arrays stayed in stack memory, so
// it added work without cutting the L1 round-trips.) div_u and ke sum in
// double; under float storage the sums run in per-thread Workspace rows and
// each NS row is written once, rounded.
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void fusedCellDiagnosticsImpl(const HexMesh& m, Index ncells, int nlev,
                              const NS* flux, const NS* uflux, const double* u,
                              double* div_flux, NS* div_u, NS* ke) {
  constexpr bool kDoubleRows = std::is_same_v<NS, double>;
#pragma omp parallel
  {
    // Float storage: each thread sums div_u and ke in two double rows,
    // reused cell after cell.
    Workspace& ws = Workspace::threadLocal();
    if constexpr (!kDoubleRows) {
      ws.reserve(Workspace::bytesFor<double>(nlev) * 2);
    }
    const Workspace::Frame frame(ws);
    double* du_sum = nullptr;
    double* ke_sum = nullptr;
    if constexpr (!kDoubleRows) {
      du_sum = ws.acquire<double>(nlev);
      ke_sum = ws.acquire<double>(nlev);
    }
#pragma omp for schedule(static)
    for (Index c = 0; c < ncells; ++c) {
      const NS inv_area = static_cast<NS>(1.0 / m.cell_area[c]);
      double* __restrict df = div_flux + c * nlev;
      double* __restrict du;
      double* __restrict kc;
      if constexpr (kDoubleRows) {
        du = div_u + c * nlev;
        kc = ke + c * nlev;
      } else {
        du = du_sum;
        kc = ke_sum;
      }
#pragma omp simd
      for (int k = 0; k < nlev; ++k) {
        df[k] = 0.0;
        du[k] = 0.0;
        kc[k] = 0.0;
      }
      const Index j0 = m.cell_offset[c];
      const Index j1 = m.cell_offset[c + 1];
      for (Index j = j0; j < j1; ++j) {
        const Index e = m.cell_edges[j];
        const NS sign = static_cast<NS>(m.cell_edge_sign[j]);
        const NS weight =
            static_cast<NS>(0.25 * m.edge_le[e] * m.edge_de[e]) * inv_area;
        const NS* __restrict fl = flux + e * nlev;
        const NS* __restrict ufl = uflux + e * nlev;
        const double* __restrict ur = u + e * nlev;
#pragma omp simd
        for (int k = 0; k < nlev; ++k) {
          df[k] = df[k] + static_cast<double>(sign * fl[k] * inv_area);
          du[k] = du[k] + static_cast<double>(sign * ufl[k] * inv_area);
          const NS ue = static_cast<NS>(ur[k]);
          kc[k] = kc[k] + static_cast<double>(weight * ue * ue);
        }
      }
      if constexpr (!kDoubleRows) {
        NS* __restrict du_out = div_u + c * nlev;
        NS* __restrict ke_out = ke + c * nlev;
#pragma omp simd
        for (int k = 0; k < nlev; ++k) {
          du_out[k] = static_cast<NS>(du[k]);
          ke_out[k] = static_cast<NS>(kc[k]);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// fused_vertex_diagnostics: k-tiled over the two NS accumulators
// (circulation, kite-weighted mass). The j rings are fixed size 3 and both
// folds plus the divide epilogue fuse into one register-resident pass per
// tile; each k's fold order is preserved exactly.
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void fusedVertexDiagnosticsImpl(const HexMesh& m, Index nvertices, int nlev,
                                const double* u, const double* delp,
                                double omega, NS* vor, NS* qv) {
#pragma omp parallel for schedule(static)
  for (Index v = 0; v < nvertices; ++v) {
    const NS inv_area = static_cast<NS>(1.0 / m.vtx_area[v]);
    const NS f = static_cast<NS>(2.0 * omega * m.vtx_x[v].z);
    const double* __restrict u0 = u + m.vtx_edges[v][0] * nlev;
    const double* __restrict u1 = u + m.vtx_edges[v][1] * nlev;
    const double* __restrict u2 = u + m.vtx_edges[v][2] * nlev;
    NS sde[3], kite[3];
    for (int j = 0; j < 3; ++j) {
      sde[j] =
          static_cast<NS>(m.vtx_edge_sign[v][j] * m.edge_de[m.vtx_edges[v][j]]);
      kite[j] = static_cast<NS>(m.vtx_kite_area[v][j]);
    }
    const double* __restrict d0 = delp + m.vtx_cells[v][0] * nlev;
    const double* __restrict d1 = delp + m.vtx_cells[v][1] * nlev;
    const double* __restrict d2 = delp + m.vtx_cells[v][2] * nlev;
    NS* __restrict vr = vor + v * nlev;
    NS* __restrict qr = qv + v * nlev;
#pragma omp simd
    for (int k = 0; k < nlev; ++k) {
      NS acc = NS(0);
      acc += sde[0] * static_cast<NS>(u0[k]);
      acc += sde[1] * static_cast<NS>(u1[k]);
      acc += sde[2] * static_cast<NS>(u2[k]);
      NS hv_acc = NS(0);
      hv_acc += kite[0] * static_cast<NS>(d0[k]);
      hv_acc += kite[1] * static_cast<NS>(d1[k]);
      hv_acc += kite[2] * static_cast<NS>(d2[k]);
      const NS zeta = acc * inv_area;
      vr[k] = zeta;
      const NS hv = hv_acc * inv_area;
      qr[k] = (zeta + f) / hv;
    }
  }
}

// ---------------------------------------------------------------------------
// fused_scalar_tendencies: direct transcription (already j-outer / k-inner
// with the output rows doubling as accumulators; a register-tiled variant
// measured slower, see fused_cell_diagnostics). The upwind select runs on
// the double scalar rows and converts once: a convert inside each arm is a
// conditional operation that may trap, so the compiler would not if-convert
// (and vectorize) the float loop. Same value bit for bit.
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void fusedScalarTendenciesImpl(const HexMesh& m, Index ncells, int nlev,
                               const NS* flux, const double* scalar,
                               const double* delp, const double* div_flux,
                               double nu, double* delp_tend,
                               double* thetam_tend) {
#pragma omp parallel for schedule(static)
  for (Index c = 0; c < ncells; ++c) {
    const NS inv_area = static_cast<NS>(1.0 / m.cell_area[c]);
    double* __restrict dt_row = delp_tend + c * nlev;
    double* __restrict tt_row = thetam_tend + c * nlev;
#pragma omp simd
    for (int k = 0; k < nlev; ++k) {
      tt_row[k] = 0.0;  // advective accumulator
      dt_row[k] = 0.0;  // del2 accumulator
    }
    const Index j0 = m.cell_offset[c];
    const Index j1 = m.cell_offset[c + 1];
    const double* __restrict sc = scalar + c * nlev;
    for (Index j = j0; j < j1; ++j) {
      const Index e = m.cell_edges[j];
      const Index c1 = m.edge_cell[e][0];
      const Index c2 = m.edge_cell[e][1];
      const Index nb = m.cell_cells[j];
      const NS sign = static_cast<NS>(m.cell_edge_sign[j]);
      const NS w = static_cast<NS>(m.edge_le[e] / m.edge_de[e] * m.edge_de[e] *
                                   m.edge_de[e] * nu) *
                   inv_area;
      const NS* __restrict fl = flux + e * nlev;
      const double* __restrict s1 = scalar + c1 * nlev;
      const double* __restrict s2 = scalar + c2 * nlev;
      const double* __restrict sn = scalar + nb * nlev;
#pragma omp simd
      for (int k = 0; k < nlev; ++k) {
        const NS f = fl[k];
        const NS se = static_cast<NS>(f >= NS(0) ? s1[k] : s2[k]);
        tt_row[k] = tt_row[k] - static_cast<double>(sign * f * se * inv_area);
        dt_row[k] =
            dt_row[k] + static_cast<double>(
                            w * (static_cast<NS>(sn[k]) - static_cast<NS>(sc[k])));
      }
    }
    const double* __restrict dp = delp + c * nlev;
    const double* __restrict df = div_flux + c * nlev;
#pragma omp simd
    for (int k = 0; k < nlev; ++k) {
      tt_row[k] = tt_row[k] + dp[k] * dt_row[k];
      dt_row[k] = -df[k];
    }
  }
}

// ---------------------------------------------------------------------------
// fused_momentum_tendency: the scalar body already hoists the TRSK stencil
// j-outer with qe/acc scratch rows; the vector form just vectorizes its
// three k loops (the final one folds gradKe + Coriolis + PGF + del2 in the
// scalar order, PGF hard double). A k-register-tiled variant measured
// slower: it re-ran the per-ring-edge scalar setup (one divide per TRSK
// edge) once per tile.
// ---------------------------------------------------------------------------
template <precision::NsReal NS>
void fusedMomentumTendencyImpl(const HexMesh& m, const TrskWeights& trsk,
                               Index nedges, int nlev, const NS* ke,
                               const NS* qv, const NS* flux,
                               const double* phi, const NS* alpha,
                               const double* p, const NS* div_u,
                               const NS* vor, double nu_div, double nu_vor,
                               double* tend_u) {
#pragma omp parallel
  {
    Workspace& ws = Workspace::threadLocal();
    ws.reserve(Workspace::bytesFor<NS>(nlev) * 2);
#pragma omp for schedule(static)
    for (Index e = 0; e < nedges; ++e) {
      const Workspace::Frame frame(ws);
      NS* __restrict qe_row = ws.acquire<NS>(nlev);
      NS* __restrict acc_row = ws.acquire<NS>(nlev);
      const Index c1 = m.edge_cell[e][0];
      const Index c2 = m.edge_cell[e][1];
      const Index v1 = m.edge_vertex[e][0];
      const Index v2 = m.edge_vertex[e][1];
      const NS inv_de = static_cast<NS>(1.0 / m.edge_de[e]);
      const NS inv_le = static_cast<NS>(1.0 / m.edge_le[e]);
      const NS scale = static_cast<NS>(m.edge_de[e] * m.edge_de[e]);
      const double inv_de_d = 1.0 / m.edge_de[e];
      const NS* __restrict qv1 = qv + v1 * nlev;
      const NS* __restrict qv2 = qv + v2 * nlev;
#pragma omp simd
      for (int k = 0; k < nlev; ++k) {
        qe_row[k] = NS(0.5) * (qv1[k] + qv2[k]);
        acc_row[k] = NS(0);
      }
      const Index j0 = trsk.offset[e];
      const Index j1 = trsk.offset[e + 1];
      for (Index j = j0; j < j1; ++j) {
        const Index ep = trsk.edge[j];
        const NS wj = static_cast<NS>(trsk.weight[j]);
        const NS inv_lep = static_cast<NS>(1.0 / m.edge_le[ep]);
        const NS* __restrict w1 = qv + m.edge_vertex[ep][0] * nlev;
        const NS* __restrict w2 = qv + m.edge_vertex[ep][1] * nlev;
        const NS* __restrict fl = flux + ep * nlev;
#pragma omp simd
        for (int k = 0; k < nlev; ++k) {
          const NS qep = NS(0.5) * (w1[k] + w2[k]);
          acc_row[k] += wj * fl[k] * inv_lep * NS(0.5) * (qe_row[k] + qep);
        }
      }
      const NS* __restrict ke1 = ke + c1 * nlev;
      const NS* __restrict ke2 = ke + c2 * nlev;
      const double* __restrict ph1 = phi + c1 * (nlev + 1);
      const double* __restrict ph2 = phi + c2 * (nlev + 1);
      const NS* __restrict al1 = alpha + c1 * nlev;
      const NS* __restrict al2 = alpha + c2 * nlev;
      const double* __restrict p1 = p + c1 * nlev;
      const double* __restrict p2 = p + c2 * nlev;
      const NS* __restrict dv1 = div_u + c1 * nlev;
      const NS* __restrict dv2 = div_u + c2 * nlev;
      const NS* __restrict vr1 = vor + v1 * nlev;
      const NS* __restrict vr2 = vor + v2 * nlev;
      double* __restrict tu = tend_u + e * nlev;
#pragma omp simd
      for (int k = 0; k < nlev; ++k) {
        double t = 0.0;
        t += static_cast<double>(-(ke2[k] - ke1[k]) * inv_de);
        t += static_cast<double>(acc_row[k]);
        const double phm1 = 0.5 * (ph1[k] + ph1[k + 1]);
        const double phm2 = 0.5 * (ph2[k] + ph2[k + 1]);
        const double alpha_e = 0.5 * (static_cast<double>(al1[k]) +
                                      static_cast<double>(al2[k]));
        t -= ((phm2 - phm1) + alpha_e * (p2[k] - p1[k])) * inv_de_d;
        const NS grad_div = (dv2[k] - dv1[k]) * inv_de;
        const NS curl_vor = (vr2[k] - vr1[k]) * inv_le;
        t += static_cast<double>(scale * (static_cast<NS>(nu_div) * grad_div -
                                          static_cast<NS>(nu_vor) * curl_vor));
        tu[k] = t;
      }
    }
  }
}

} // namespace

// The tier's table factory: the only external symbol each tier TU exports.
const KernelTable& GRIST_SIMD_TIER_FN() {
  static const KernelTable table = [] {
    KernelTable t;
    t.tier = GRIST_SIMD_TIER_ID;
    t.primal_normal_flux_edge[0] = &primalNormalFluxEdgeImpl<double>;
    t.primal_normal_flux_edge[1] = &primalNormalFluxEdgeImpl<float>;
    t.calc_coriolis_term[0] = &calcCoriolisTermImpl<double>;
    t.calc_coriolis_term[1] = &calcCoriolisTermImpl<float>;
    t.tend_grad_ke_at_edge[0] = &tendGradKeAtEdgeImpl<double>;
    t.tend_grad_ke_at_edge[1] = &tendGradKeAtEdgeImpl<float>;
    t.div_at_cell[0] = &divAtCellImpl<double>;
    t.div_at_cell[1] = &divAtCellImpl<float>;
    t.tracer_hori_flux_limiter[0] = &tracerHoriFluxLimiterImpl<double>;
    t.tracer_hori_flux_limiter[1] = &tracerHoriFluxLimiterImpl<float>;
    t.fused_edge_fluxes = {&fusedEdgeFluxesImpl<double>,
                           &fusedEdgeFluxesImpl<float>};
    t.fused_cell_diagnostics = {&fusedCellDiagnosticsImpl<double>,
                                &fusedCellDiagnosticsImpl<float>};
    t.fused_vertex_diagnostics = {&fusedVertexDiagnosticsImpl<double>,
                                  &fusedVertexDiagnosticsImpl<float>};
    t.fused_scalar_tendencies = {&fusedScalarTendenciesImpl<double>,
                                 &fusedScalarTendenciesImpl<float>};
    t.fused_momentum_tendency = {&fusedMomentumTendencyImpl<double>,
                                 &fusedMomentumTendencyImpl<float>};
    t.rrr_alpha_p = {&rrrImpl<double, true>, &rrrImpl<float, true>};
    t.rrr_p = &rrrPImpl;
    t.pow_row = &powRow;
    t.save_cell_start = &saveCellStartImpl;
    t.save_edge_start = &saveEdgeStartImpl;
    t.update_cells = &updateCellsImpl;
    t.update_edges = &updateEdgesImpl;
    t.accumulate_flux = {&accumulateFluxImpl<double>,
                         &accumulateFluxImpl<float>};
    t.vert_solve_lanes = &vertSolveLanesImpl;
    return t;
  }();
  return table;
}

} // namespace grist::backend::simd
