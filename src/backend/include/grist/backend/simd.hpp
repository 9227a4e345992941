// SimdBackend: the third ExecutionBackend instantiation (beside
// HostBackend and SimBackend) -- explicitly vectorized host kernels.
//
// The single-source kernel bodies (kernels.hpp) are per-entity scalar code;
// HostBackend compiles them to whatever the baseline ISA auto-vectorizes
// (SSE2 on a portable x86-64 build). The stencil sweeps are memory- and
// divide-bound, so the remaining host headroom is vector width: this layer
// re-expresses each Fig. 9 registry kernel with its vertical (nlev) inner
// loop explicitly vectorized -- `#pragma omp simd` over __restrict rows for
// the streaming sweeps, AVX2/AVX-512 intrinsics for the divide-heavy edge
// interpolation where the compiler's cost model gives up -- and compiles the
// whole set three times into scalar / AVX2 / AVX-512 translation units.
//
// Runtime dispatch (mirroring the DiagnosticsFactory CPU/GPU dispatch
// exemplar): cpuid picks the best tier the build carries and the CPU
// supports; GRIST_SIMD_TIER=scalar|avx2|avx512 clamps it down (never up)
// so tests can pin every tier on one machine. The dispatch surface is a
// table of per-kernel function pointers, two slots per NS-templated kernel
// (NS = double / float): the Fig. 9 registry kernels -- compute_rrr and
// vert_implicit_solver in the forms the dycore step calls (rrr_alpha_p /
// rrr_p without the Exner and pi_mid outputs, the column-lane solve) --
// plus the step's RK3 save/update and flux-accumulation sweeps and the
// row pow the EOS runs.
//
// Numerical contract: every tier is BITWISE identical to the HostBackend
// instantiation, in both NS precisions, for every nlev (masked/scalar
// fringe included). That holds because vectorization is only ever over an
// independent dimension (k, the flat entity*k index of an elementwise
// sweep, or the (column, member) pair of the implicit solve) -- per-element
// operation order is untouched, the
// j (stencil) accumulation order is preserved by keeping j loops outer,
// IEEE vector div/cvt round like their scalar forms, and the vector TUs are
// compiled with -ffp-contract=off so no FMA contraction sneaks in relative
// to the FMA-less baseline. The parity gates in tests/backend/test_simd.cpp
// are therefore exact (ULP bound 0); the ULP machinery exists for the day a
// kernel opts into reassociation.
//
// Storage contract (paper §3.4.3: ns is a kind, so it fixes storage as well
// as arithmetic): the step's fused sweeps and the EOS store their seven NS
// intermediates -- flux, uflux (edges), ke, div_u, alpha (cells), vor, qv
// (vertices) -- in NS, so the float slots take float rows and move half the
// bytes with no converts. This is bitwise in both modes because each of
// these is an NS value or is rounded to NS by its reader: alpha is an NS
// quotient whose one reader (the PGF) widens it exactly; flux, vor and qv
// are computed in NS;
// uflux is a double product whose one reader casts it to NS; ke and div_u
// sum in double (a per-thread Workspace row under float storage) and are
// rounded once on store, exactly where their reader rounded them; and
// accumulate_flux widens a float flux exactly. A float slot therefore
// stores (float)x where the Host instantiation stores x, and every
// downstream value is unchanged. div_flux stays double in both modes:
// delp_tend = -div_flux reads the double sum itself, and that path carries
// the dry mass.
//
// Layout contract (src/common): operand arrays are entity-major with nlev
// fastest (unit-stride vector lanes), allocated cache-line aligned and
// padded to whole lines (parallel::FieldT, common::Workspace::acquire).
// Kernels never read past row ends -- the nlev % width fringe runs masked
// (AVX-512) or scalar (AVX2) -- so the padding buys alignment and false-
// sharing isolation, not out-of-bounds slack.
#pragma once

#include <cstddef>
#include <tuple>
#include <vector>

#include "grist/backend/backend.hpp"
#include "grist/common/types.hpp"
#include "grist/grid/hex_mesh.hpp"
#include "grist/grid/trsk.hpp"
#include "grist/precision/ns.hpp"

namespace grist::backend {

/// ExecutionBackend shape of the SIMD tier: views are raw pointers exactly
/// like HostBackend (accounting compiles away), but carry the layout
/// promise above. Kernels without a vectorized driver yet instantiate the
/// shared scalar bodies with this backend -- structurally identical to
/// Host, so falling back is free and bit-exact by construction.
struct SimdBackend {
  using Context = HostBackend::Context;
  template <typename T>
  using View = HostBackend::View<T>;
  template <typename T>
  using MutView = HostBackend::MutView<T>;
};

static_assert(ExecutionBackend<SimdBackend>);

namespace simd {

using grid::HexMesh;
using grid::TrskWeights;

/// Dispatch tiers, ordered: forcing a tier clamps DOWN from the best
/// available, never up past what the build carries or the CPU supports.
enum class Tier { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

const char* tierName(Tier t);

/// A pair of NS slots whose operand types follow the NS: element 0 is the
/// double instantiation, element 1 the float one (index with kNsIndex).
template <template <typename> class Fn>
using NsSlots = std::tuple<Fn<double>, Fn<float>>;

// The fused sweeps' signatures; S is the storage of the NS intermediates
// (flux, uflux, ke, div_u, vor, qv), equal to the sweep's NS.
template <typename S>
using FusedEdgeFluxesFn = void (*)(const HexMesh&, Index nedges, int nlev,
                                   const double* delp, const double* u,
                                   S* flux, S* uflux);
template <typename S>
using FusedCellDiagnosticsFn = void (*)(const HexMesh&, Index ncells, int nlev,
                                        const S* flux, const S* uflux,
                                        const double* u, double* div_flux,
                                        S* div_u, S* ke);
template <typename S>
using FusedVertexDiagnosticsFn = void (*)(const HexMesh&, Index nvertices,
                                          int nlev, const double* u,
                                          const double* delp, double omega,
                                          S* vor, S* qv);
template <typename S>
using FusedScalarTendenciesFn = void (*)(const HexMesh&, Index ncells,
                                         int nlev, const S* flux,
                                         const double* scalar,
                                         const double* delp,
                                         const double* div_flux, double nu,
                                         double* delp_tend,
                                         double* thetam_tend);
template <typename S>
using FusedMomentumTendencyFn = void (*)(
    const HexMesh&, const TrskWeights&, Index nedges, int nlev, const S* ke,
    const S* qv, const S* flux, const double* phi, const S* alpha,
    const double* p, const S* div_u, const S* vor, double nu_div,
    double nu_vor, double* tend_u);
// The EOS's step-facing part; alpha is stored in S (the storage contract).
template <typename S>
using RrrAlphaPFn = void (*)(const Index* cells, Index n, int nlev,
                             const double* delp, const double* theta,
                             const double* phi, S* alpha, double* p);
template <typename S>
using AccumulateFluxFn = void (*)(Index nedges, int nlev, const S* flux,
                                  double* acc);

/// Per-kernel function pointers for one tier. Index the [2] arrays with
/// nsIndex() and the NsSlots with std::get<kNsIndex<NS>>: 0 = NS double,
/// 1 = NS float. Each entry is a whole sweep (OpenMP over entities inside)
/// over entity-major, nlev-fastest, compact-stride operands.
struct KernelTable {
  Tier tier = Tier::kScalar;

  void (*primal_normal_flux_edge[2])(const HexMesh&, Index nedges, int nlev,
                                     const double* delp, const double* u,
                                     double* flux) = {};
  void (*calc_coriolis_term[2])(const HexMesh&, const TrskWeights&,
                                Index nedges, int nlev, const double* flux,
                                const double* qv, double* tend_u) = {};
  void (*tend_grad_ke_at_edge[2])(const HexMesh&, Index nedges, int nlev,
                                  const double* ke, double* tend_u) = {};
  void (*div_at_cell[2])(const HexMesh&, Index ncells, int nlev,
                         const double* flux, double* div) = {};
  /// All four FCT phases: phase 1 over every mesh edge, phases 2-4 over the
  /// first `ncells` (prognostic) cells. flux_low/flux_anti/q_td/rp/rm are
  /// caller-provided scratch (Workspace rows in the production tracer).
  void (*tracer_hori_flux_limiter[2])(const HexMesh&, Index ncells, int nlev,
                                      double dt, const double* mean_flux,
                                      const double* delp_old,
                                      const double* delp_new, double* q,
                                      double* flux_low, double* flux_anti,
                                      double* q_td, double* rp,
                                      double* rm) = {};
  /// The step's five fused sweeps, typed by their NS storage (see "Storage
  /// contract" above): std::get<kNsIndex<NS>> is the NS instantiation.
  NsSlots<FusedEdgeFluxesFn> fused_edge_fluxes = {};
  NsSlots<FusedCellDiagnosticsFn> fused_cell_diagnostics = {};
  NsSlots<FusedVertexDiagnosticsFn> fused_vertex_diagnostics = {};
  NsSlots<FusedScalarTendenciesFn> fused_scalar_tendencies = {};
  NsSlots<FusedMomentumTendencyFn> fused_momentum_tendency = {};

  // --- The dycore step's own sweeps. `cells`/`edges` == nullptr means the
  // contiguous range [0, n); otherwise the n listed entities (the overlap
  // schedule's boundary/interior bands). Entries without an NS slot are
  // double-only. ---

  /// compute_rrr restricted to what the step reads: alpha and p. The
  /// Exner pow and the pi_mid prefix sum are never computed. Bitwise equal
  /// to kernels::computeRrrColumn<NS>'s alpha/p (a float slot stores the
  /// float-valued alpha as float).
  NsSlots<RrrAlphaPFn> rrr_alpha_p = {};
  /// p alone, in double: the pressure the implicit solver reads (bitwise
  /// kernels::computeRrrColumn<double>'s p).
  void (*rrr_p)(const Index* cells, Index n, int nlev, const double* delp,
                const double* theta, const double* phi, double* p) = nullptr;
  /// RK3 step-start copies as flat cell*k sweeps: delp0 = delp,
  /// thetam0 = delp*theta; u0 = u.
  void (*save_cell_start)(Index ncells, int nlev, const double* delp,
                          const double* theta, double* delp0,
                          double* thetam0) = nullptr;
  void (*save_edge_start)(Index nedges, int nlev, const double* u,
                          double* u0) = nullptr;
  /// RK3 stage update from the step-start copies, with the positivity
  /// backstop (a layer drained below 10% of its step-start mass is held
  /// there and keeps its step-start theta) as a branch-free blend.
  void (*update_cells)(const Index* cells, Index n, int nlev, double dts,
                       const double* delp0, const double* thetam0,
                       const double* delp_tend, const double* thetam_tend,
                       double* delp, double* theta) = nullptr;
  void (*update_edges)(const Index* edges, Index n, int nlev, double dts,
                       const double* u0, const double* u_tend,
                       double* u) = nullptr;
  /// acc += flux (the tracer mass-flux window), flat over nedges*nlev;
  /// `flux` is NS-stored, `acc` double (widening a float is exact).
  NsSlots<AccumulateFluxFn> accumulate_flux = {};
  /// The vertical implicit (w, phi) solve for `nmembers` states at once.
  /// The vector lanes hold consecutive (column, member) pairs, member
  /// fastest, 8 per block: 8 columns at nmembers == 1, one column's 8
  /// members at nmembers == 8. The pointer arrays hold one entry per
  /// member. Per-lane arithmetic is exactly kernels::vertImplicitColumn's,
  /// so every column of every member is bitwise the column solve's.
  void (*vert_solve_lanes)(const Index* cells, Index n, int nmembers,
                           int nlev, double dt, double ptop,
                           const double* const* delp,
                           const double* const* theta,
                           const double* const* p, double* const* w,
                           double* const* phi, double w_damp_tau) = nullptr;
  /// out[i] = std::pow(x[i], y) for i < n with std::pow's exact bits (`out`
  /// may alias `x`), the pow every EOS entry above runs. Returns how many
  /// elements ran the scalar std::pow: all n on the scalar and AVX2 tiers,
  /// only the lanes the AVX-512 tier's exactness filter hands back there.
  std::size_t (*pow_row)(Index n, const double* x, double y,
                         double* out) = nullptr;
};

/// Table slot for an NS precision.
template <precision::NsReal NS>
inline constexpr int kNsIndex = std::is_same_v<NS, float> ? 1 : 0;

inline int nsIndex(precision::NsMode ns) {
  return ns == precision::NsMode::kSingle ? 1 : 0;
}

/// Best tier this build carries AND this CPU supports (cpuid), before any
/// override. Stable for the process lifetime.
Tier bestTier();

/// Tiers usable right now, ascending (always starts with kScalar).
std::vector<Tier> availableTiers();

/// The active tier: min(bestTier(), forced), where forced comes from
/// forceTier() or, once at startup, GRIST_SIMD_TIER=scalar|avx2|avx512.
Tier activeTier();

/// Pin the active tier (clamped to bestTier()); used by the parity tests
/// and the per-tier CI stage. Affects subsequent table() calls.
void forceTier(Tier t);

/// Drop the forceTier()/env override and return to bestTier().
void clearForcedTier();

/// The active tier's kernel table.
const KernelTable& table();

/// A specific tier's table (clamped to bestTier()); lets tests and benches
/// compare tiers without mutating the global override.
const KernelTable& table(Tier t);

} // namespace simd
} // namespace grist::backend
