// Correctness gate for the fused single-sweep tendency pipeline: every
// fused kernel must match the unfused kernel sequence it replaces to
// <= 1 ulp (NS = double) / <= 1e-6 relative (NS = float), and the
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

#include "grist/common/aligned.hpp"
#include "grist/common/workspace.hpp"
#include "grist/dycore/dycore.hpp"
#include "grist/dycore/kernels.hpp"
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

using grid::HexMesh;
using grid::TrskWeights;

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
  int nlev = 8;
  std::size_t cn, en, vn;
  std::vector<double> delp, theta, u, phi;
  std::vector<double> alpha, p, exner, pi_mid;  // from computeRrr
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
    exner.resize(cn);
    pi_mid.resize(cn);
    kernels::computeRrr<double>(mesh.ncells, nlev, 225.0, delp.data(),
                                theta.data(), phi.data(), alpha.data(), p.data(),
                                exner.data(), pi_mid.data());
  }
};

Fixture& fx() {
  static Fixture f;
  return f;
}

template <typename NS>
class FusedKernels : public ::testing::Test {};
using Precisions = ::testing::Types<double, float>;
TYPED_TEST_SUITE(FusedKernels, Precisions);

TYPED_TEST(FusedKernels, EdgeFluxesMatchUnfused) {
  using NS = TypeParam;
  Fixture& f = fx();
  std::vector<double> flux_ref(f.en), uflux_ref(f.en);
  kernels::primalNormalFluxEdge<NS>(f.mesh, f.mesh.nedges, f.nlev, f.delp.data(),
                                    f.u.data(), flux_ref.data());
  for (Index e = 0; e < f.mesh.nedges; ++e) {
    for (int k = 0; k < f.nlev; ++k) {
      uflux_ref[e * f.nlev + k] = f.mesh.edge_le[e] * f.u[e * f.nlev + k];
    }
  }
  std::vector<double> flux(f.en), uflux(f.en);
  kernels::fusedEdgeFluxes<NS>(f.mesh, f.mesh.nedges, f.nlev, f.delp.data(),
                               f.u.data(), flux.data(), uflux.data());
  expectClose<NS>(flux, flux_ref, "flux");
  expectClose<NS>(uflux, uflux_ref, "uflux");
}

TYPED_TEST(FusedKernels, CellDiagnosticsMatchUnfused) {
  using NS = TypeParam;
  Fixture& f = fx();
  std::vector<double> flux(f.en), uflux(f.en);
  kernels::fusedEdgeFluxes<NS>(f.mesh, f.mesh.nedges, f.nlev, f.delp.data(),
                               f.u.data(), flux.data(), uflux.data());
  std::vector<double> div_ref(f.cn), divu_ref(f.cn), ke_ref(f.cn);
  kernels::divAtCell<NS>(f.mesh, f.mesh.ncells, f.nlev, flux.data(), div_ref.data());
  kernels::divAtCell<NS>(f.mesh, f.mesh.ncells, f.nlev, uflux.data(), divu_ref.data());
  kernels::kineticEnergy<NS>(f.mesh, f.mesh.ncells, f.nlev, f.u.data(), ke_ref.data());
  std::vector<double> div(f.cn), divu(f.cn), ke(f.cn);
  kernels::fusedCellDiagnostics<NS>(f.mesh, f.mesh.ncells, f.nlev, flux.data(),
                                    uflux.data(), f.u.data(), div.data(),
                                    divu.data(), ke.data());
  expectClose<NS>(div, div_ref, "div_flux");
  expectClose<NS>(divu, divu_ref, "div_u");
  expectClose<NS>(ke, ke_ref, "ke");
}

TYPED_TEST(FusedKernels, VertexDiagnosticsMatchUnfused) {
  using NS = TypeParam;
  Fixture& f = fx();
  std::vector<double> vor_ref(f.vn), qv_ref(f.vn);
  kernels::vorticityAtVertex<NS>(f.mesh, f.mesh.nvertices, f.nlev, f.u.data(),
                                 vor_ref.data());
  kernels::potentialVorticityAtVertex<NS>(f.mesh, f.mesh.nvertices, f.nlev,
                                          vor_ref.data(), f.delp.data(),
                                          constants::kOmega, qv_ref.data());
  std::vector<double> vor(f.vn), qv(f.vn);
  kernels::fusedVertexDiagnostics<NS>(f.mesh, f.mesh.nvertices, f.nlev, f.u.data(),
                                      f.delp.data(), constants::kOmega,
                                      vor.data(), qv.data());
  expectClose<NS>(vor, vor_ref, "vor");
  expectClose<NS>(qv, qv_ref, "qv");
}

TYPED_TEST(FusedKernels, ScalarTendenciesMatchUnfused) {
  using NS = TypeParam;
  Fixture& f = fx();
  std::vector<double> flux(f.en), uflux(f.en);
  kernels::fusedEdgeFluxes<NS>(f.mesh, f.mesh.nedges, f.nlev, f.delp.data(),
                               f.u.data(), flux.data(), uflux.data());
  std::vector<double> div(f.cn);
  kernels::divAtCell<NS>(f.mesh, f.mesh.ncells, f.nlev, flux.data(), div.data());
  // Unfused reference: delp_tend = -div; thetam_tend = advection + diffusion.
  std::vector<double> dt_ref(f.cn), tt_ref(f.cn), s2(f.cn, 0.0);
  for (std::size_t i = 0; i < f.cn; ++i) dt_ref[i] = -div[i];
  kernels::scalarFluxTendency<NS>(f.mesh, f.mesh.ncells, f.nlev, flux.data(),
                                  f.theta.data(), tt_ref.data());
  kernels::del2Scalar<NS>(f.mesh, f.mesh.ncells, f.nlev, f.theta.data(),
                          f.nu_theta, s2.data());
  for (std::size_t i = 0; i < f.cn; ++i) tt_ref[i] += f.delp[i] * s2[i];
  std::vector<double> dt(f.cn), tt(f.cn);
  kernels::fusedScalarTendencies<NS>(f.mesh, f.mesh.ncells, f.nlev, flux.data(),
                                     f.theta.data(), f.delp.data(), div.data(),
                                     f.nu_theta, dt.data(), tt.data());
  expectClose<NS>(dt, dt_ref, "delp_tend");
  expectClose<NS>(tt, tt_ref, "thetam_tend");
}

TYPED_TEST(FusedKernels, MomentumTendencyMatchesUnfusedSequence) {
  using NS = TypeParam;
  Fixture& f = fx();
  std::vector<double> flux(f.en), uflux(f.en);
  kernels::fusedEdgeFluxes<NS>(f.mesh, f.mesh.nedges, f.nlev, f.delp.data(),
                               f.u.data(), flux.data(), uflux.data());
  std::vector<double> div_u(f.cn), ke(f.cn), dummy_div(f.cn);
  kernels::fusedCellDiagnostics<NS>(f.mesh, f.mesh.ncells, f.nlev, flux.data(),
                                    uflux.data(), f.u.data(), dummy_div.data(),
                                    div_u.data(), ke.data());
  std::vector<double> vor(f.vn), qv(f.vn);
  kernels::fusedVertexDiagnostics<NS>(f.mesh, f.mesh.nvertices, f.nlev, f.u.data(),
                                      f.delp.data(), constants::kOmega,
                                      vor.data(), qv.data());
  // Unfused reference: zero-fill then four accumulation passes, exactly as
  // the pre-fusion Dycore::computeTendencies did.
  std::vector<double> ut_ref(f.en, 0.0);
  kernels::tendGradKeAtEdge<NS>(f.mesh, f.mesh.nedges, f.nlev, ke.data(),
                                ut_ref.data());
  kernels::calcCoriolisTerm<NS>(f.mesh, f.trsk, f.mesh.nedges, f.nlev, flux.data(),
                                qv.data(), ut_ref.data());
  kernels::calcPressureGradient(f.mesh, f.mesh.nedges, f.nlev, f.phi.data(),
                                f.alpha.data(), f.p.data(), f.pi_mid.data(),
                                ut_ref.data());
  kernels::del2Momentum<NS>(f.mesh, f.mesh.nedges, f.nlev, div_u.data(),
                            vor.data(), f.nu_div, f.nu_vor, ut_ref.data());
  std::vector<double> ut(f.en);
  kernels::fusedMomentumTendency<NS>(f.mesh, f.trsk, f.mesh.nedges, f.nlev,
                                     ke.data(), qv.data(), flux.data(),
                                     f.phi.data(), f.alpha.data(), f.p.data(),
                                     div_u.data(), vor.data(), f.nu_div,
                                     f.nu_vor, ut.data());
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
  Fixture& f = fx();
  std::vector<double> w(static_cast<std::size_t>(f.mesh.ncells) * (f.nlev + 1), 0.1);
  std::vector<double> phi = f.phi;
  const auto solve = [&] {
    kernels::vertImplicitSolver(f.mesh.ncells, f.nlev, 300.0, 225.0,
                                f.delp.data(), f.theta.data(), f.p.data(),
                                w.data(), phi.data(), 0.0);
  };
  solve();  // warm-up: arenas grow here (at most once per thread)
  EXPECT_EQ(allocsDuring(solve), 0);
}

TEST(AllocationGuard, TracerTransportIsHeapFreeWhenWarm) {
  Fixture& f = fx();
  std::vector<double> q(f.cn, 1.0e-3);
  for (std::size_t i = 0; i < f.cn; ++i) q[i] += 1e-4 * std::sin(0.3 * i);
  std::vector<double> flux(f.en), uflux(f.en);
  kernels::fusedEdgeFluxes<double>(f.mesh, f.mesh.nedges, f.nlev, f.delp.data(),
                                   f.u.data(), flux.data(), uflux.data());
  TracerTransportArgs args;
  args.mesh = &f.mesh;
  args.ncells_prog = f.mesh.ncells;
  args.nlev = f.nlev;
  args.dt = 300.0;
  args.mean_flux = flux.data();
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
// stores flux, uflux (edges), ke, div_u (cells), vor and qv (vertices) as
// float rows; every other scratch field, and all of DP's, is double.
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
  EXPECT_EQ(mix, 7 * rows(nc, 8) + 3 * rows(ne, 8) + 2 * rows(nc, 4) +
                     2 * rows(ne, 4) + 2 * rows(nv, 4) + tables);
  EXPECT_GE(dp - mix, 4L * cfg.nlev * (2 * ne + 2 * nc + 2 * nv));
}

} // namespace
} // namespace grist::dycore
