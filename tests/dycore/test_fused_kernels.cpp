// Correctness gate for the fused single-sweep tendency pipeline: every
// fused kernel body must match the unfused body sequence it replaces to
// <= 1 ulp (NS = double) / <= 1e-6 relative (NS = float), both run as Host
// instantiations through backend::hostSweep, and the
// Workspace-backed column solves must perform ZERO heap allocations once
// their per-thread arenas are warm. Also the Dycore's scratch footprint:
// MIX stores its six NS intermediates as float rows.
//
// This binary overrides the global allocation operators to count heap
// traffic, so it is its own test executable (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <vector>

#include "grist/backend/kernels.hpp"
#include "grist/backend/simd.hpp"
#include "grist/common/aligned.hpp"
#include "grist/common/workspace.hpp"
#include "grist/dycore/dycore.hpp"
#include "grist/dycore/state.hpp"
#include "grist/dycore/tracer.hpp"
#include "grist/dycore/vertical_remap.hpp"
#include "grist/grid/hex_mesh.hpp"
#include "grist/grid/trsk.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter. malloc-backed so the override itself is free of
// recursion; every flavor of operator new/delete funnels through here.
// ---------------------------------------------------------------------------
namespace {
std::atomic<long> g_heap_allocs{0};
std::atomic<long> g_heap_bytes{0};
} // namespace

void* operator new(std::size_t size) {
  ++g_heap_allocs;
  g_heap_bytes += static_cast<long>(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  ++g_heap_allocs;
  g_heap_bytes += static_cast<long>(size);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace grist::dycore {
namespace {

using backend::hostMut;
using backend::hostSweep;
using backend::hostView;
using grid::HexMesh;
using grid::TrskWeights;
namespace bk = backend::kernels;

// Lexicographic key: maps doubles to an integer space where adjacent
// representable values differ by 1 (the standard ulp-distance trick).
std::uint64_t lexKey(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return (u & 0x8000000000000000ULL) ? ~u : (u | 0x8000000000000000ULL);
}

std::uint64_t ulpDiff(double a, double b) {
  const std::uint64_t ka = lexKey(a), kb = lexKey(b);
  return ka > kb ? ka - kb : kb - ka;
}

// Tolerance gate per the issue: <= 1 ulp for NS=double, <= 1e-6 relative
// for NS=float (all kernels emit double arrays regardless of NS).
template <typename NS>
void expectClose(const std::vector<double>& fused,
                 const std::vector<double>& ref, const char* what) {
  ASSERT_EQ(fused.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if constexpr (std::is_same_v<NS, double>) {
      ASSERT_LE(ulpDiff(fused[i], ref[i]), 1u)
          << what << " [" << i << "]: " << fused[i] << " vs " << ref[i];
    } else {
      const double denom = std::max(std::abs(ref[i]), 1e-30);
      ASSERT_LE(std::abs(fused[i] - ref[i]) / denom, 1e-6)
          << what << " [" << i << "]: " << fused[i] << " vs " << ref[i];
    }
  }
}

// Shared smooth-but-nontrivial model state on the issue's g4 grid.
struct Fixture {
  HexMesh mesh = grid::buildHexMesh(4);
  TrskWeights trsk = grid::buildTrskWeights(mesh);
  backend::MeshView<backend::HostBackend> mv = backend::makeHostMeshView(mesh);
  backend::TrskView<backend::HostBackend> tv = backend::makeHostTrskView(trsk);
  int nlev = 8;
  std::size_t cn, en, vn;
  std::vector<double> delp, theta, u, phi;
  std::vector<double> alpha, p;  // from the compute_rrr body
  double nu_theta = 0.005 / 300.0;
  double nu_div = 0.02 / 300.0;
  double nu_vor = 0.005 / 300.0;

  Fixture() {
    cn = static_cast<std::size_t>(mesh.ncells) * nlev;
    en = static_cast<std::size_t>(mesh.nedges) * nlev;
    vn = static_cast<std::size_t>(mesh.nvertices) * nlev;
    delp.resize(cn);
    theta.resize(cn);
    phi.resize(static_cast<std::size_t>(mesh.ncells) * (nlev + 1));
    u.resize(en);
    for (Index c = 0; c < mesh.ncells; ++c) {
      for (int k = 0; k < nlev; ++k) {
        delp[c * nlev + k] = 500.0 + 40.0 * std::sin(0.37 * c + 0.9 * k);
        theta[c * nlev + k] = 300.0 + 15.0 * std::cos(0.11 * c - 0.5 * k);
      }
      phi[c * (nlev + 1) + nlev] = 100.0 * std::sin(0.05 * c);
      for (int k = nlev - 1; k >= 0; --k) {
        phi[c * (nlev + 1) + k] =
            phi[c * (nlev + 1) + k + 1] + 2000.0 + 100.0 * std::cos(0.2 * c + k);
      }
    }
    for (Index e = 0; e < mesh.nedges; ++e) {
      for (int k = 0; k < nlev; ++k) {
        u[e * nlev + k] = 12.0 * std::sin(0.23 * e + 0.4 * k) - 3.0;
      }
    }
    alpha.resize(cn);
    p.resize(cn);
    std::vector<double> exner(cn), pi_mid(cn);
    hostSweep(mesh.ncells, [&](auto& ctx, Index c) {
      bk::computeRrrColumn<double, backend::HostBackend>(
          ctx, c, nlev, 225.0, hostView(delp.data()), hostView(theta.data()),
          hostView(phi.data()), hostMut(alpha.data()), hostMut(p.data()),
          hostMut(exner.data()), hostMut(pi_mid.data()));
    });
  }
};

Fixture& fx() {
  static Fixture f;
  return f;
}

/// The fused diagnostic sweeps' Host bodies run once over the Fixture in
/// precision NS: every input the tendency sweeps and the unfused
/// references read.
template <typename NS>
struct Pipeline {
  std::vector<double> flux, uflux, div_flux, div_u, ke, vor, qv;

  explicit Pipeline(const Fixture& f)
      : flux(f.en), uflux(f.en), div_flux(f.cn), div_u(f.cn), ke(f.cn),
        vor(f.vn), qv(f.vn) {
    hostSweep(f.mesh.nedges, [&](auto& ctx, Index e) {
      bk::fusedEdgeFluxes<NS>(ctx, e, f.mv, f.nlev, hostView(f.delp.data()),
                              hostView(f.u.data()), hostMut(flux.data()),
                              hostMut(uflux.data()));
    });
    hostSweep(f.mesh.ncells, [&](auto& ctx, Index c) {
      bk::fusedCellDiagnostics<NS>(
          ctx, c, f.mv, f.nlev, hostView(flux.data()), hostView(uflux.data()),
          hostView(f.u.data()), hostMut(div_flux.data()),
          hostMut(div_u.data()), hostMut(ke.data()));
    });
    hostSweep(f.mesh.nvertices, [&](auto& ctx, Index v) {
      bk::fusedVertexDiagnostics<NS>(ctx, v, f.mv, f.nlev,
                                     hostView(f.u.data()),
                                     hostView(f.delp.data()),
                                     constants::kOmega, hostMut(vor.data()),
                                     hostMut(qv.data()));
    });
  }
};

template <typename NS>
const Pipeline<NS>& pipeline() {
  static const Pipeline<NS> pipe(fx());
  return pipe;
}

template <typename NS>
class FusedKernels : public ::testing::Test {};
using Precisions = ::testing::Types<double, float>;
TYPED_TEST_SUITE(FusedKernels, Precisions);

TYPED_TEST(FusedKernels, EdgeFluxesMatchUnfused) {
  using NS = TypeParam;
  const Fixture& f = fx();
  const Pipeline<NS>& fused = pipeline<NS>();
  std::vector<double> flux_ref(f.en), uflux_ref(f.en);
  hostSweep(f.mesh.nedges, [&](auto& ctx, Index e) {
    bk::primalNormalFluxEdge<NS>(ctx, e, f.mv, f.nlev, hostView(f.delp.data()),
                                 hostView(f.u.data()),
                                 hostMut(flux_ref.data()));
  });
  for (Index e = 0; e < f.mesh.nedges; ++e) {
    for (int k = 0; k < f.nlev; ++k) {
      uflux_ref[e * f.nlev + k] = f.mesh.edge_le[e] * f.u[e * f.nlev + k];
    }
  }
  expectClose<NS>(fused.flux, flux_ref, "flux");
  expectClose<NS>(fused.uflux, uflux_ref, "uflux");
}

TYPED_TEST(FusedKernels, CellDiagnosticsMatchUnfused) {
  using NS = TypeParam;
  const Fixture& f = fx();
  const Pipeline<NS>& fused = pipeline<NS>();
  std::vector<double> div_ref(f.cn), divu_ref(f.cn), ke_ref(f.cn);
  hostSweep(f.mesh.ncells, [&](auto& ctx, Index c) {
    bk::divAtCell<NS>(ctx, c, f.mv, f.nlev, hostView(fused.flux.data()),
                      hostMut(div_ref.data()));
    bk::divAtCell<NS>(ctx, c, f.mv, f.nlev, hostView(fused.uflux.data()),
                      hostMut(divu_ref.data()));
    bk::kineticEnergy<NS>(ctx, c, f.mv, f.nlev, hostView(f.u.data()),
                          hostMut(ke_ref.data()));
  });
  expectClose<NS>(fused.div_flux, div_ref, "div_flux");
  expectClose<NS>(fused.div_u, divu_ref, "div_u");
  expectClose<NS>(fused.ke, ke_ref, "ke");
}

TYPED_TEST(FusedKernels, VertexDiagnosticsMatchUnfused) {
  using NS = TypeParam;
  const Fixture& f = fx();
  const Pipeline<NS>& fused = pipeline<NS>();
  std::vector<double> vor_ref(f.vn), qv_ref(f.vn);
  hostSweep(f.mesh.nvertices, [&](auto& ctx, Index v) {
    bk::vorticityAtVertex<NS>(ctx, v, f.mv, f.nlev, hostView(f.u.data()),
                              hostMut(vor_ref.data()));
    bk::potentialVorticityAtVertex<NS>(
        ctx, v, f.mv, f.nlev, hostView(vor_ref.data()),
        hostView(f.delp.data()), constants::kOmega, hostMut(qv_ref.data()));
  });
  expectClose<NS>(fused.vor, vor_ref, "vor");
  expectClose<NS>(fused.qv, qv_ref, "qv");
}

TYPED_TEST(FusedKernels, ScalarTendenciesMatchUnfused) {
  using NS = TypeParam;
  const Fixture& f = fx();
  const Pipeline<NS>& fused = pipeline<NS>();
  const std::vector<double>& flux = fused.flux;
  const std::vector<double>& div = fused.div_flux;
  // Unfused reference: delp_tend = -div; thetam_tend = advection + diffusion.
  std::vector<double> dt_ref(f.cn), tt_ref(f.cn), s2(f.cn, 0.0);
  for (std::size_t i = 0; i < f.cn; ++i) dt_ref[i] = -div[i];
  hostSweep(f.mesh.ncells, [&](auto& ctx, Index c) {
    bk::scalarFluxTendency<NS>(ctx, c, f.mv, f.nlev, hostView(flux.data()),
                               hostView(f.theta.data()),
                               hostMut(tt_ref.data()));
    bk::del2Scalar<NS>(ctx, c, f.mv, f.nlev, hostView(f.theta.data()),
                       f.nu_theta, hostMut(s2.data()));
  });
  for (std::size_t i = 0; i < f.cn; ++i) tt_ref[i] += f.delp[i] * s2[i];
  std::vector<double> dt(f.cn), tt(f.cn);
  hostSweep(f.mesh.ncells, [&](auto& ctx, Index c) {
    bk::fusedScalarTendencies<NS>(ctx, c, f.mv, f.nlev, hostView(flux.data()),
                                  hostView(f.theta.data()),
                                  hostView(f.delp.data()), hostView(div.data()),
                                  f.nu_theta, hostMut(dt.data()),
                                  hostMut(tt.data()));
  });
  expectClose<NS>(dt, dt_ref, "delp_tend");
  expectClose<NS>(tt, tt_ref, "thetam_tend");
}

TYPED_TEST(FusedKernels, MomentumTendencyMatchesUnfusedSequence) {
  using NS = TypeParam;
  const Fixture& f = fx();
  const Pipeline<NS>& in = pipeline<NS>();
  // Unfused reference: zero-fill then the four accumulating bodies in the
  // pre-fusion Dycore::computeTendencies order.
  std::vector<double> ut_ref(f.en, 0.0);
  hostSweep(f.mesh.nedges, [&](auto& ctx, Index e) {
    const auto ut = hostMut(ut_ref.data());
    bk::tendGradKeAtEdge<NS>(ctx, e, f.mv, f.nlev, hostView(in.ke.data()), ut);
    bk::calcCoriolisTerm<NS>(ctx, e, f.mv, f.tv, f.nlev,
                             hostView(in.flux.data()), hostView(in.qv.data()),
                             ut);
    bk::calcPressureGradient(ctx, e, f.mv, f.nlev, hostView(f.phi.data()),
                             hostView(f.alpha.data()), hostView(f.p.data()),
                             ut);
    bk::del2Momentum<NS>(ctx, e, f.mv, f.nlev, hostView(in.div_u.data()),
                         hostView(in.vor.data()), f.nu_div, f.nu_vor, ut);
  });
  std::vector<double> ut(f.en);
  hostSweep(f.mesh.nedges, [&](auto& ctx, Index e) {
    // Per-level accumulator rows from the thread's arena.
    common::Workspace& ws = common::Workspace::threadLocal();
    ws.reserve(2 * common::Workspace::bytesFor<NS>(f.nlev));
    const common::Workspace::Frame frame(ws);
    NS* qe_row = ws.get<NS>(f.nlev);
    NS* acc_row = ws.get<NS>(f.nlev);
    bk::fusedMomentumTendency<NS>(
        ctx, e, f.mv, f.tv, f.nlev, hostView(in.ke.data()),
        hostView(in.qv.data()), hostView(in.flux.data()),
        hostView(f.phi.data()), hostView(f.alpha.data()), hostView(f.p.data()),
        hostView(in.div_u.data()), hostView(in.vor.data()), f.nu_div,
        f.nu_vor, hostMut(ut.data()), qe_row, acc_row);
  });
  expectClose<NS>(ut, ut_ref, "u_tend");
}

// ---------------------------------------------------------------------------
// Zero-allocation guards: once the per-thread Workspace arenas are warm, the
// column solves must not touch the heap at all.
// ---------------------------------------------------------------------------

long allocsDuring(const std::function<void()>& fn) {
  const long before = g_heap_allocs.load();
  fn();
  return g_heap_allocs.load() - before;
}

TEST(AllocationGuard, VertImplicitSolverIsHeapFreeWhenWarm) {
  // The step's column solve: the dispatch table's member-lane solve at one
  // member.
  Fixture& f = fx();
  std::vector<double> w(static_cast<std::size_t>(f.mesh.ncells) * (f.nlev + 1), 0.1);
  std::vector<double> phi = f.phi;
  const double* delp = f.delp.data();
  const double* theta = f.theta.data();
  const double* p = f.p.data();
  double* wp = w.data();
  double* phip = phi.data();
  const auto solve = [&] {
    backend::simd::table().vert_solve_lanes(nullptr, f.mesh.ncells, 1, f.nlev,
                                            300.0, 225.0, &delp, &theta, &p,
                                            &wp, &phip, 0.0);
  };
  solve();  // warm-up: arenas grow here (at most once per thread)
  EXPECT_EQ(allocsDuring(solve), 0);
}

TEST(AllocationGuard, TracerTransportIsHeapFreeWhenWarm) {
  Fixture& f = fx();
  std::vector<double> q(f.cn, 1.0e-3);
  for (std::size_t i = 0; i < f.cn; ++i) q[i] += 1e-4 * std::sin(0.3 * i);
  TracerTransportArgs args;
  args.mesh = &f.mesh;
  args.ncells_prog = f.mesh.ncells;
  args.nlev = f.nlev;
  args.dt = 300.0;
  args.mean_flux = pipeline<double>().flux.data();
  args.delp_old = f.delp.data();
  args.delp_new = f.delp.data();
  const auto transport = [&] { tracerTransportHoriFluxLimiter<double>(args, q.data()); };
  transport();
  EXPECT_EQ(allocsDuring(transport), 0);
}

TEST(AllocationGuard, VerticalRemapIsHeapFreeWhenWarm) {
  Fixture& f = fx();
  State state(f.mesh, f.nlev, 1);
  for (Index c = 0; c < f.mesh.ncells; ++c) {
    for (int k = 0; k < f.nlev; ++k) {
      state.delp(c, k) = f.delp[c * f.nlev + k];
      state.theta(c, k) = f.theta[c * f.nlev + k];
      state.tracers[0](c, k) = 1e-3;
    }
    for (int k = 0; k <= f.nlev; ++k) {
      state.phi(c, k) = f.phi[c * (f.nlev + 1) + k];
      state.w(c, k) = 0.01;
    }
  }
  State scratch = state;  // remap mutates; keep a pristine copy to re-run
  verticalRemap(f.mesh.ncells, f.nlev, 225.0, scratch);  // warm-up
  State scratch2 = state;
  EXPECT_EQ(allocsDuring([&] {
              verticalRemap(f.mesh.ncells, f.nlev, 225.0, scratch2);
            }),
            0);
}

// ---------------------------------------------------------------------------
// Footprint: a Dycore allocates its scratch once, at construction. MIX
// stores flux, uflux (edges), ke, div_u, alpha (cells), vor and qv
// (vertices) as float rows; every other scratch field, and all of DP's, is
// double.
// ---------------------------------------------------------------------------

long bytesDuring(const std::function<void()>& fn) {
  const long before = g_heap_bytes.load();
  fn();
  return g_heap_bytes.load() - before;
}

TEST(DycoreFootprint, MixStoresItsSixNsIntermediatesInFloat) {
  Fixture& f = fx();
  DycoreConfig cfg;
  // 16 levels make every float row whole cache lines, so the MIX saving is
  // exactly 4 B per NS element (no row padding in the difference).
  cfg.nlev = 16;
  const auto constructed = [&](precision::NsMode ns) {
    cfg.ns = ns;
    return bytesDuring([&] { const Dycore dy(f.mesh, f.trsk, cfg); });
  };
  const long dp = constructed(precision::NsMode::kDouble);
  const long mix = constructed(precision::NsMode::kSingle);
  const auto rows = [&](Index n, std::size_t elem) {
    return static_cast<long>(common::roundUpToCacheLine(
        static_cast<std::size_t>(n) * cfg.nlev * elem));
  };
  const long nc = f.mesh.ncells, ne = f.mesh.nedges, nv = f.mesh.nvertices;
  // The per-member tables: one mass-flux Field and five solve pointers.
  const long tables =
      static_cast<long>(sizeof(parallel::Field) + 5 * sizeof(double*));
  // DP: 9 cell, 5 edge (with the mass-flux window) and 2 vertex double rows.
  EXPECT_EQ(dp, 9 * rows(nc, 8) + 5 * rows(ne, 8) + 2 * rows(nv, 8) + tables);
  EXPECT_EQ(mix, 6 * rows(nc, 8) + 3 * rows(ne, 8) + 3 * rows(nc, 4) +
                     2 * rows(ne, 4) + 2 * rows(nv, 4) + tables);
  EXPECT_GE(dp - mix, 4L * cfg.nlev * (2 * ne + 3 * nc + 2 * nv));
}

} // namespace
} // namespace grist::dycore
