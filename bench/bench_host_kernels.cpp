// Host-side microbenchmarks (google-benchmark) of the production dycore
// kernels in both precisions. These are NOT a paper figure; they document
// this build's raw kernel throughput, and back the note in section 4.6 that
// mixed precision alone buys little on a conventional cache-rich CPU (the
// big wins in Fig. 9 come from the CPE memory system, reproduced in
// bench_fig9_kernels).
//
// Every Host benchmark runs the shared kernel bodies through
// backend::hostSweep. The BM_Simd*/BM_Fused* pairs measure the explicitly
// vectorized SimdBackend tier (best the CPU supports) against the
// auto-vectorized Host instantiation on identical inputs; the BM_Simd* float
// rows hold the seven NS intermediates in float, as the MIX dycore step does.
// BM_SimdRrrAlphaP/BM_SimdRrrP (the EOS entries), BM_PowRow (the row pow
// against a std::pow loop) and BM_VertSolveLanes (the implicit solve at
// M = 1 and 8) time the step's column work through the same table.
// BM_DycoreStep is one whole dyn step in DP and MIX. Record them to
// BENCH_host_kernels.json with the --benchmark_format=json invocation
// documented in README.md.
//
// Every benchmark makes one untimed warm-up call before the timing loop so
// the first measured iteration sees warm thread-local Workspace arenas and
// faulted-in aligned field pages, not first-touch costs.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "grist/backend/kernels.hpp"
#include "grist/backend/quant.hpp"
#include "grist/backend/simd.hpp"
#include "grist/common/math.hpp"
#include "grist/common/workspace.hpp"
#include "grist/dycore/dycore.hpp"
#include "grist/dycore/init.hpp"
#include "grist/grid/hex_mesh.hpp"
#include "grist/grid/trsk.hpp"
#include "grist/ml/matrix.hpp"
#include "grist/ml/quant.hpp"
#include "grist/ml/ml_suite.hpp"
#include "grist/ml/traindata.hpp"
#include "grist/parallel/field.hpp"

namespace {

using namespace grist;
using backend::hostMut;
using backend::hostSweep;
using backend::hostView;
namespace bk = backend::kernels;

struct Fixture {
  grid::HexMesh mesh = grid::buildHexMesh(5);
  grid::TrskWeights trsk = grid::buildTrskWeights(mesh);
  backend::MeshView<backend::HostBackend> mv = backend::makeHostMeshView(mesh);
  backend::TrskView<backend::HostBackend> tv = backend::makeHostTrskView(trsk);
  int nlev = 30;
  parallel::Field delp{mesh.ncells, nlev, 500.0};
  parallel::Field theta{mesh.ncells, nlev, 300.0};
  parallel::Field phi{mesh.ncells, nlev + 1, 0.0};
  parallel::Field u{mesh.nedges, nlev, 10.0};
  parallel::Field flux{mesh.nedges, nlev, 0.0};
  parallel::Field out_cell{mesh.ncells, nlev, 0.0};
  parallel::Field out_edge{mesh.nedges, nlev, 0.0};
  parallel::Field vor{mesh.nvertices, nlev, 0.0};
  parallel::Field qv{mesh.nvertices, nlev, 1.0e-8};
  // Extra streams for the fused tendency pipeline.
  parallel::Field uflux{mesh.nedges, nlev, 0.0};
  parallel::Field div_flux{mesh.ncells, nlev, 0.0};
  parallel::Field div_u{mesh.ncells, nlev, 0.0};
  parallel::Field ke{mesh.ncells, nlev, 0.0};
  parallel::Field alpha{mesh.ncells, nlev, 0.0};
  parallel::Field p{mesh.ncells, nlev, 0.0};
  parallel::Field exner{mesh.ncells, nlev, 0.0};
  parallel::Field pi_mid{mesh.ncells, nlev, 0.0};
  parallel::Field vvor{mesh.nvertices, nlev, 0.0};
  parallel::Field vqv{mesh.nvertices, nlev, 0.0};
  parallel::Field delp_tend{mesh.ncells, nlev, 0.0};
  parallel::Field thetam_tend{mesh.ncells, nlev, 0.0};
  parallel::Field u_tend{mesh.nedges, nlev, 0.0};
  parallel::Field w{mesh.ncells, nlev + 1, 0.01};
  double nu_theta = 0.005 / 300.0;
  double nu_div = 0.02 / 300.0;
  double nu_vor = 0.005 / 300.0;

  Fixture() {
    // Hydrostatic-ish phi so compute_rrr's pow() sees sane ratios; gentle
    // per-entity variation so upwind branches and limiters see both signs.
    for (Index c = 0; c < mesh.ncells; ++c) {
      for (int k = 0; k < nlev; ++k) {
        delp(c, k) = 500.0 + 20.0 * std::sin(0.37 * c + 0.9 * k);
        theta(c, k) = 300.0 + 10.0 * std::cos(0.11 * c - 0.5 * k);
      }
      for (int k = nlev; k >= 0; --k) phi(c, k) = (nlev - k) * 2000.0;
    }
    for (Index e = 0; e < mesh.nedges; ++e) {
      for (int k = 0; k < nlev; ++k) u(e, k) = 12.0 * std::sin(0.23 * e + 0.4 * k) - 3.0;
    }
    hostSweep(mesh.ncells, [&](auto& ctx, Index c) {
      bk::computeRrrColumn<double, backend::HostBackend>(
          ctx, c, nlev, 225.0, hostView(delp.data()), hostView(theta.data()),
          hostView(phi.data()), hostMut(alpha.data()), hostMut(p.data()),
          hostMut(exner.data()), hostMut(pi_mid.data()));
    });
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

/// Time `run` after one untimed call.
template <typename Run>
void timeLoop(benchmark::State& state, const Run& run, const double* out,
              Index items) {
  run();
  for (auto _ : state) {
    run();
    benchmark::DoNotOptimize(out);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * items * fixture().nlev);
}

template <typename NS>
void BM_PrimalNormalFlux(benchmark::State& state) {
  Fixture& f = fixture();
  const auto run = [&f] {
    hostSweep(f.mesh.nedges, [&](auto& ctx, Index e) {
      bk::primalNormalFluxEdge<NS>(ctx, e, f.mv, f.nlev, hostView(f.delp.data()),
                                   hostView(f.u.data()), hostMut(f.flux.data()));
    });
  };
  timeLoop(state, run, f.flux.data(), f.mesh.nedges);
}

template <typename NS>
void BM_DivAtCell(benchmark::State& state) {
  Fixture& f = fixture();
  const auto run = [&f] {
    hostSweep(f.mesh.ncells, [&](auto& ctx, Index c) {
      bk::divAtCell<NS>(ctx, c, f.mv, f.nlev, hostView(f.flux.data()),
                        hostMut(f.out_cell.data()));
    });
  };
  timeLoop(state, run, f.out_cell.data(), f.mesh.ncells);
}

template <typename NS>
void BM_ComputeRrr(benchmark::State& state) {
  Fixture& f = fixture();
  parallel::Field alpha(f.mesh.ncells, f.nlev), p(f.mesh.ncells, f.nlev),
      exner(f.mesh.ncells, f.nlev), pi(f.mesh.ncells, f.nlev);
  const auto run = [&] {
    hostSweep(f.mesh.ncells, [&](auto& ctx, Index c) {
      bk::computeRrrColumn<NS, backend::HostBackend>(
          ctx, c, f.nlev, 225.0, hostView(f.delp.data()),
          hostView(f.theta.data()), hostView(f.phi.data()),
          hostMut(alpha.data()), hostMut(p.data()), hostMut(exner.data()),
          hostMut(pi.data()));
    });
  };
  timeLoop(state, run, p.data(), f.mesh.ncells);
}

template <typename NS>
void BM_CoriolisTerm(benchmark::State& state) {
  Fixture& f = fixture();
  const auto run = [&f] {
    f.out_edge.fill(0.0);
    hostSweep(f.mesh.nedges, [&](auto& ctx, Index e) {
      bk::calcCoriolisTerm<NS>(ctx, e, f.mv, f.tv, f.nlev,
                               hostView(f.flux.data()), hostView(f.qv.data()),
                               hostMut(f.out_edge.data()));
    });
  };
  timeLoop(state, run, f.out_edge.data(), f.mesh.nedges);
}

// ---------------------------------------------------------------------------
// The five fused sweeps as Host instantiations, on the Fixture's double
// fields: the BM_Fused* partners of the BM_Simd* rows below.
// ---------------------------------------------------------------------------

template <typename NS>
struct HostSweeps {
  Fixture& f = fixture();

  void edge() {
    hostSweep(f.mesh.nedges, [&](auto& ctx, Index e) {
      bk::fusedEdgeFluxes<NS>(ctx, e, f.mv, f.nlev, hostView(f.delp.data()),
                              hostView(f.u.data()), hostMut(f.flux.data()),
                              hostMut(f.uflux.data()));
    });
  }
  void cell() {
    hostSweep(f.mesh.ncells, [&](auto& ctx, Index c) {
      bk::fusedCellDiagnostics<NS>(
          ctx, c, f.mv, f.nlev, hostView(f.flux.data()),
          hostView(f.uflux.data()), hostView(f.u.data()),
          hostMut(f.div_flux.data()), hostMut(f.div_u.data()),
          hostMut(f.ke.data()));
    });
  }
  void vertex() {
    hostSweep(f.mesh.nvertices, [&](auto& ctx, Index v) {
      bk::fusedVertexDiagnostics<NS>(
          ctx, v, f.mv, f.nlev, hostView(f.u.data()), hostView(f.delp.data()),
          constants::kOmega, hostMut(f.vvor.data()), hostMut(f.vqv.data()));
    });
  }
  void scalar() {
    hostSweep(f.mesh.ncells, [&](auto& ctx, Index c) {
      bk::fusedScalarTendencies<NS>(
          ctx, c, f.mv, f.nlev, hostView(f.flux.data()),
          hostView(f.theta.data()), hostView(f.delp.data()),
          hostView(f.div_flux.data()), f.nu_theta,
          hostMut(f.delp_tend.data()), hostMut(f.thetam_tend.data()));
    });
  }
  void momentum() {
    hostSweep(f.mesh.nedges, [&](auto& ctx, Index e) {
      // Per-level accumulator rows from the thread's arena.
      common::Workspace& ws = common::Workspace::threadLocal();
      ws.reserve(2 * common::Workspace::bytesFor<NS>(f.nlev));
      const common::Workspace::Frame frame(ws);
      NS* qe_row = ws.get<NS>(f.nlev);
      NS* acc_row = ws.get<NS>(f.nlev);
      bk::fusedMomentumTendency<NS>(
          ctx, e, f.mv, f.tv, f.nlev, hostView(f.ke.data()),
          hostView(f.vqv.data()), hostView(f.flux.data()),
          hostView(f.phi.data()), hostView(f.alpha.data()),
          hostView(f.p.data()), hostView(f.div_u.data()),
          hostView(f.vvor.data()), f.nu_div, f.nu_vor,
          hostMut(f.u_tend.data()), qe_row, acc_row);
    });
  }
  void all() {
    edge();
    cell();
    vertex();
    scalar();
    momentum();
  }
};

/// Time one sweep of a HostSweeps or SimdSweeps after one untimed pass of
/// the whole pipeline (every input of the sweep populated, arenas warm).
template <typename Sweeps>
void runSweep(benchmark::State& state, void (Sweeps::*sweep)(), Index items,
              const char* label = nullptr) {
  Sweeps sw;
  if (label) state.SetLabel(label);
  sw.all();
  for (auto _ : state) {
    (sw.*sweep)();
    benchmark::DoNotOptimize(&sw);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * items * fixture().nlev);
}

template <typename NS>
void BM_FusedEdgeFluxes(benchmark::State& state) {
  runSweep(state, &HostSweeps<NS>::edge, fixture().mesh.nedges);
}

template <typename NS>
void BM_FusedCellDiagnostics(benchmark::State& state) {
  runSweep(state, &HostSweeps<NS>::cell, fixture().mesh.ncells);
}

template <typename NS>
void BM_FusedVertexDiagnostics(benchmark::State& state) {
  runSweep(state, &HostSweeps<NS>::vertex, fixture().mesh.nvertices);
}

template <typename NS>
void BM_FusedScalarTendencies(benchmark::State& state) {
  runSweep(state, &HostSweeps<NS>::scalar, fixture().mesh.ncells);
}

template <typename NS>
void BM_FusedMomentumTendency(benchmark::State& state) {
  runSweep(state, &HostSweeps<NS>::momentum, fixture().mesh.nedges);
}

// The Host acceptance pipeline: the five fused sweeps, everything
// downstream of compute_rrr.
template <typename NS>
void BM_FusedTendencyPipeline(benchmark::State& state) {
  runSweep(state, &HostSweeps<NS>::all, fixture().mesh.nedges);
}

// ---------------------------------------------------------------------------
// SimdBackend pairs: each BM_Simd* runs the best-available dispatch tier's
// table entry on the same Fixture data as its BM_Fused* partner (which pins
// the HostBackend instantiation). Bitwise-identical output, so the pair
// isolates the cost of explicit vectorization alone. The acceptance gate is
// the BM_Simd*/BM_Fused* geomean across the fused sweeps.
// ---------------------------------------------------------------------------

/// The EOS's and fused sweeps' seven NS intermediates in NS storage, as
/// the dycore step holds them (the storage contract in
/// grist/backend/simd.hpp); alpha starts as the Fixture's, rounded to NS.
template <typename NS>
struct NsScratch {
  parallel::FieldT<NS> flux, uflux, ke, div_u, alpha, vor, qv;

  NsScratch(const grid::HexMesh& m, int nlev, const parallel::Field& alpha0)
      : flux(m.nedges, nlev), uflux(m.nedges, nlev), ke(m.ncells, nlev),
        div_u(m.ncells, nlev), alpha(m.ncells, nlev), vor(m.nvertices, nlev),
        qv(m.nvertices, nlev) {
    for (std::size_t i = 0; i < alpha0.size(); ++i) {
      alpha.data()[i] = static_cast<NS>(alpha0.data()[i]);
    }
  }
};

/// The five fused sweeps through the active tier's NS slots, on the
/// Fixture's double fields and NS-typed intermediates.
template <typename NS>
struct SimdSweeps {
  static constexpr int si = backend::simd::kNsIndex<NS>;
  Fixture& f = fixture();
  const backend::simd::KernelTable& tb = backend::simd::table();
  NsScratch<NS> s{f.mesh, f.nlev, f.alpha};

  void edge() {
    std::get<si>(tb.fused_edge_fluxes)(f.mesh, f.mesh.nedges, f.nlev,
                                       f.delp.data(), f.u.data(),
                                       s.flux.data(), s.uflux.data());
  }
  void cell() {
    std::get<si>(tb.fused_cell_diagnostics)(
        f.mesh, f.mesh.ncells, f.nlev, s.flux.data(), s.uflux.data(),
        f.u.data(), f.div_flux.data(), s.div_u.data(), s.ke.data());
  }
  void vertex() {
    std::get<si>(tb.fused_vertex_diagnostics)(
        f.mesh, f.mesh.nvertices, f.nlev, f.u.data(), f.delp.data(),
        constants::kOmega, s.vor.data(), s.qv.data());
  }
  void scalar() {
    std::get<si>(tb.fused_scalar_tendencies)(
        f.mesh, f.mesh.ncells, f.nlev, s.flux.data(), f.theta.data(),
        f.delp.data(), f.div_flux.data(), f.nu_theta, f.delp_tend.data(),
        f.thetam_tend.data());
  }
  void momentum() {
    std::get<si>(tb.fused_momentum_tendency)(
        f.mesh, f.trsk, f.mesh.nedges, f.nlev, s.ke.data(), s.qv.data(),
        s.flux.data(), f.phi.data(), s.alpha.data(), f.p.data(),
        s.div_u.data(), s.vor.data(), f.nu_div, f.nu_vor, f.u_tend.data());
  }
  void all() {
    edge();
    cell();
    vertex();
    scalar();
    momentum();
  }
};

/// The dispatch tier a BM_Simd* row ran.
const char* simdLabel() {
  return backend::simd::tierName(backend::simd::table().tier);
}

template <typename NS>
void BM_SimdEdgeFluxes(benchmark::State& state) {
  runSweep(state, &SimdSweeps<NS>::edge, fixture().mesh.nedges,
           simdLabel());
}

template <typename NS>
void BM_SimdCellDiagnostics(benchmark::State& state) {
  runSweep(state, &SimdSweeps<NS>::cell, fixture().mesh.ncells,
           simdLabel());
}

template <typename NS>
void BM_SimdVertexDiagnostics(benchmark::State& state) {
  runSweep(state, &SimdSweeps<NS>::vertex, fixture().mesh.nvertices,
           simdLabel());
}

template <typename NS>
void BM_SimdScalarTendencies(benchmark::State& state) {
  runSweep(state, &SimdSweeps<NS>::scalar, fixture().mesh.ncells,
           simdLabel());
}

template <typename NS>
void BM_SimdMomentumTendency(benchmark::State& state) {
  runSweep(state, &SimdSweeps<NS>::momentum, fixture().mesh.nedges,
           simdLabel());
}

// The SIMD acceptance pipeline: the same five fused sweeps as
// BM_FusedTendencyPipeline, all through the dispatch table.
template <typename NS>
void BM_SimdTendencyPipeline(benchmark::State& state) {
  runSweep(state, &SimdSweeps<NS>::all, fixture().mesh.nedges,
           simdLabel());
}

// One full Dycore::step (three RK stages with their EOS and fused sweeps,
// the RK updates, the flux accumulation and the implicit solve) of a G5
// nlev-20 baroclinic wave, dt 300 s: the dyn step a Model runs, in DP
// (double) and MIX (float), without the rest of the model around it.
template <typename NS>
void BM_DycoreStep(benchmark::State& state) {
  const Fixture& f = fixture();
  dycore::DycoreConfig cfg;
  cfg.nlev = 20;
  cfg.ns = std::is_same_v<NS, float> ? precision::NsMode::kSingle
                                     : precision::NsMode::kDouble;
  dycore::State st = dycore::initBaroclinicWave(f.mesh, cfg);
  dycore::Dycore dy(f.mesh, f.trsk, cfg);
  state.SetLabel(backend::simd::tierName(backend::simd::activeTier()));
  dy.step(st);
  for (auto _ : state) {
    dy.step(st);
    benchmark::DoNotOptimize(st.u.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.ncells * cfg.nlev);
}

// ---------------------------------------------------------------------------
// The step's column work through the dispatch table (best tier): the two
// EOS entries, the row pow they run, and the implicit solve.
// ---------------------------------------------------------------------------

// The EOS with alpha stored in NS (rrr_alpha_p, three calls per dyn step)
// and p alone (rrr_p, the pre-solver pressure), over every Fixture cell.
template <typename NS>
void BM_SimdRrrAlphaP(benchmark::State& state) {
  Fixture& f = fixture();
  const backend::simd::KernelTable& tb = backend::simd::table();
  parallel::FieldT<NS> alpha(f.mesh.ncells, f.nlev);
  parallel::Field p(f.mesh.ncells, f.nlev);
  state.SetLabel(simdLabel());
  const auto run = [&] {
    std::get<backend::simd::kNsIndex<NS>>(tb.rrr_alpha_p)(
        nullptr, f.mesh.ncells, f.nlev, f.delp.data(), f.theta.data(),
        f.phi.data(), alpha.data(), p.data());
  };
  timeLoop(state, run, p.data(), f.mesh.ncells);
}

void BM_SimdRrrP(benchmark::State& state) {
  Fixture& f = fixture();
  const backend::simd::KernelTable& tb = backend::simd::table();
  parallel::Field p(f.mesh.ncells, f.nlev);
  state.SetLabel(simdLabel());
  const auto run = [&] {
    tb.rrr_p(nullptr, f.mesh.ncells, f.nlev, f.delp.data(), f.theta.data(),
             f.phi.data(), p.data());
  };
  timeLoop(state, run, p.data(), f.mesh.ncells);
}

// x^(cp/cv) over one G5 field of nlev-20 rows with arguments uniform on the
// EOS range [1e-3, 4], one thread: Arg 0 is a std::pow call per element,
// Arg 1 the table's pow_row per row (same bits). The label reports the
// share of elements that ran std::pow.
void BM_PowRow(benchmark::State& state) {
  const bool table_pow = state.range(0) != 0;
  constexpr int kRow = 20;
  const Index rows = fixture().mesh.ncells;
  const double y = constants::kCp / (constants::kCp - constants::kRd);
  std::vector<double> x(static_cast<std::size_t>(rows) * kRow), out(x.size());
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> uniform(1e-3, 4.0);
  for (double& v : x) v = uniform(rng);
  const backend::simd::KernelTable& tb = backend::simd::table();
  std::size_t scalar = 0;
  const auto run = [&] {
    scalar = 0;
    if (table_pow) {
      for (Index r = 0; r < rows; ++r) {
        scalar += tb.pow_row(kRow, x.data() + r * kRow, y,
                             out.data() + r * kRow);
      }
    } else {
      for (std::size_t i = 0; i < x.size(); ++i) out[i] = std::pow(x[i], y);
      scalar = x.size();
    }
  };
  run();
  for (auto _ : state) {
    run();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
  state.SetLabel(std::string(table_pow ? simdLabel() : "std::pow") +
                 " scalar share " +
                 std::to_string(static_cast<double>(scalar) /
                                static_cast<double>(x.size())));
}

// The implicit (w, phi) solve over every Fixture cell for M members (hard
// double), Workspace-backed: at M = 1 the lanes hold 8 columns, at M = 8
// one column's 8 members. Items are columns x members.
void BM_VertSolveLanes(benchmark::State& state) {
  Fixture& f = fixture();
  const int members = static_cast<int>(state.range(0));
  std::vector<parallel::Field> w(static_cast<std::size_t>(members), f.w);
  std::vector<parallel::Field> phi(static_cast<std::size_t>(members), f.phi);
  std::vector<const double*> delp(w.size(), f.delp.data());
  std::vector<const double*> theta(w.size(), f.theta.data());
  std::vector<const double*> p(w.size(), f.p.data());
  std::vector<double*> wp, phip;
  for (std::size_t m = 0; m < w.size(); ++m) {
    wp.push_back(w[m].data());
    phip.push_back(phi[m].data());
  }
  const backend::simd::KernelTable& tb = backend::simd::table();
  state.SetLabel(simdLabel());
  const auto run = [&] {
    tb.vert_solve_lanes(nullptr, f.mesh.ncells, members, f.nlev, 300.0,
                        225.0, delp.data(), theta.data(), p.data(), wp.data(),
                        phip.data(), 0.0);
  };
  timeLoop(state, run, w[0].data(), f.mesh.ncells * members);
}

// ---------------------------------------------------------------------------
// Naive-vs-blocked SGEMM pairs and per-column-vs-batched ML-physics
// inference: the acceptance numbers for the packed-GEMM refactor. Shapes:
// square (classic compute-bound), and the MLP/conv shapes the ML suite
// actually issues at the Fig. 8 configuration (nlev=20, channels=24,
// column_block=32 -> n = 640).
// ---------------------------------------------------------------------------

struct GemmOperands {
  int m, n, k;
  std::vector<float> a, b, c;
  GemmOperands(int m_, int n_, int k_) : m(m_), n(n_), k(k_) {
    std::mt19937 rng(12345);
    std::uniform_real_distribution<float> dist(-1.f, 1.f);
    a.resize(static_cast<std::size_t>(m) * k);
    b.resize(static_cast<std::size_t>(k) * n);
    c.resize(static_cast<std::size_t>(m) * n, 0.f);
    for (float& v : a) v = dist(rng);
    for (float& v : b) v = dist(rng);
  }
};

void BM_GemmNaive(benchmark::State& state) {
  GemmOperands op(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)),
                  static_cast<int>(state.range(2)));
  ml::gemmNaive(op.m, op.n, op.k, 1.f, op.a.data(), op.k, false, op.b.data(),
                op.n, false, 0.f, op.c.data(), op.n, {});
  for (auto _ : state) {
    ml::gemmNaive(op.m, op.n, op.k, 1.f, op.a.data(), op.k, false, op.b.data(),
                  op.n, false, 0.f, op.c.data(), op.n, {});
    benchmark::DoNotOptimize(op.c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<std::int64_t>(op.m) *
                          op.n * op.k);
}

void BM_GemmBlocked(benchmark::State& state) {
  GemmOperands op(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)),
                  static_cast<int>(state.range(2)));
  ml::gemmBlocked(op.m, op.n, op.k, 1.f, op.a.data(), op.k, false, op.b.data(),
                  op.n, false, 0.f, op.c.data(), op.n, {});
  for (auto _ : state) {
    ml::gemmBlocked(op.m, op.n, op.k, 1.f, op.a.data(), op.k, false,
                    op.b.data(), op.n, false, 0.f, op.c.data(), op.n, {});
    benchmark::DoNotOptimize(op.c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<std::int64_t>(op.m) *
                          op.n * op.k);
}

// Quantized-weight GEMM with the fused dequant epilogue, against the fp32
// BM_GemmBlocked partner on the same shapes. The label records the kernel
// flavor the dispatch actually ran ("avx512-bf16dp", "avx2-fma", ...).
void benchGemmQuant(benchmark::State& state, ml::Precision prec) {
  GemmOperands op(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)),
                  static_cast<int>(state.range(2)));
  ml::Matrix w(op.m, op.k);
  std::copy(op.a.begin(), op.a.end(), w.a.begin());
  const ml::QuantizedWeights qw = ml::QuantizedWeights::pack(prec, w);
  state.SetLabel(backend::quant::table().name);
  ml::gemmQuant(qw, op.n, op.b.data(), op.n, false, op.c.data(), op.n, {});
  for (auto _ : state) {
    ml::gemmQuant(qw, op.n, op.b.data(), op.n, false, op.c.data(), op.n, {});
    benchmark::DoNotOptimize(op.c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(op.m) * op.n * op.k);
}

void BM_GemmQuantBf16(benchmark::State& state) {
  benchGemmQuant(state, ml::Precision::kBf16);
}
void BM_GemmQuantInt8(benchmark::State& state) {
  benchGemmQuant(state, ml::Precision::kInt8);
}

// End-to-end ML-physics suite throughput at the bench_fig8 configuration;
// the per-column/batched pair differs only in MlSuiteConfig::column_block,
// the precision sweep only in MlSuiteConfig::precision.
void benchMlSuite(benchmark::State& state, int column_block,
                  ml::Precision prec = ml::Precision::kFp32) {
  const int nlev = 20;
  const Index ncol = 256;
  ml::Q1Q2NetConfig qcfg;
  qcfg.nlev = nlev;
  qcfg.channels = 24;
  qcfg.res_units = 2;
  ml::RadMlpConfig rcfg;
  rcfg.nlev = nlev;
  rcfg.hidden = 48;
  ml::MlSuiteConfig cfg;
  cfg.column_block = column_block;
  cfg.precision = prec;
  // Untrained random-weight nets exceed the trained-net 5% envelope on int8
  // (see tests/ml/test_quant.cpp); widen so the gate accepts the bench nets.
  cfg.quant_tolerance = 0.15;
  ml::MlPhysicsSuite suite(ncol, nlev, std::make_shared<ml::Q1Q2Net>(qcfg),
                           std::make_shared<ml::RadMlp>(rcfg), cfg);
  physics::PhysicsInput in =
      ml::synthesizeColumns(ml::table1Scenarios()[0], ncol, nlev);
  physics::PhysicsOutput out(ncol, nlev);
  suite.run(in, 600.0, out);
  for (auto _ : state) {
    suite.run(in, 600.0, out);
    benchmark::DoNotOptimize(out.gsw.data());
  }
  state.SetItemsProcessed(state.iterations() * ncol);
}

void BM_MlSuitePerColumn(benchmark::State& state) { benchMlSuite(state, 1); }
void BM_MlSuiteBatched(benchmark::State& state) { benchMlSuite(state, 32); }
void BM_MlSuitePrecisionFp32(benchmark::State& state) {
  benchMlSuite(state, 32, ml::Precision::kFp32);
}
void BM_MlSuitePrecisionBf16(benchmark::State& state) {
  benchMlSuite(state, 32, ml::Precision::kBf16);
}
void BM_MlSuitePrecisionInt8(benchmark::State& state) {
  benchMlSuite(state, 32, ml::Precision::kInt8);
}

} // namespace

BENCHMARK_TEMPLATE(BM_PrimalNormalFlux, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_PrimalNormalFlux, float)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_DivAtCell, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_DivAtCell, float)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_ComputeRrr, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_ComputeRrr, float)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_CoriolisTerm, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_CoriolisTerm, float)->Unit(benchmark::kMillisecond);

BENCHMARK_TEMPLATE(BM_FusedEdgeFluxes, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FusedEdgeFluxes, float)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FusedCellDiagnostics, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FusedCellDiagnostics, float)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FusedMomentumTendency, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FusedMomentumTendency, float)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FusedVertexDiagnostics, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FusedVertexDiagnostics, float)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FusedScalarTendencies, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FusedScalarTendencies, float)->Unit(benchmark::kMillisecond);
// SimdBackend (best dispatch tier) vs the Host instantiation: pair each
// BM_Simd* with the matching BM_Fused* above. The label on each Simd run
// records which tier actually executed.
BENCHMARK_TEMPLATE(BM_SimdEdgeFluxes, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_SimdEdgeFluxes, float)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_SimdCellDiagnostics, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_SimdCellDiagnostics, float)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_SimdVertexDiagnostics, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_SimdVertexDiagnostics, float)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_SimdScalarTendencies, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_SimdScalarTendencies, float)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_SimdMomentumTendency, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_SimdMomentumTendency, float)->Unit(benchmark::kMillisecond);

BENCHMARK_TEMPLATE(BM_FusedTendencyPipeline, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FusedTendencyPipeline, float)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_SimdTendencyPipeline, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_SimdTendencyPipeline, float)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_SimdRrrAlphaP, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_SimdRrrAlphaP, float)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimdRrrP)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PowRow)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_VertSolveLanes)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_DycoreStep, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_DycoreStep, float)->Unit(benchmark::kMillisecond);

// Square, conv-shaped (Fig. 8 res-unit conv at column_block=32), and
// MLP-shaped (hidden x hidden over a column block).
BENCHMARK(BM_GemmNaive)->Args({256, 256, 256})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GemmBlocked)->Args({256, 256, 256})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GemmNaive)->Args({24, 640, 72})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GemmBlocked)->Args({24, 640, 72})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GemmNaive)->Args({48, 32, 48})->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GemmBlocked)->Args({48, 32, 48})->Unit(benchmark::kMicrosecond);
// Quantized partners for the blocked-SGEMM shapes above (the {24, 640, 72}
// conv shape is the bf16 >= 1.3x / int8 >= 1.6x acceptance number).
BENCHMARK(BM_GemmQuantBf16)->Args({256, 256, 256})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GemmQuantInt8)->Args({256, 256, 256})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GemmQuantBf16)->Args({24, 640, 72})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GemmQuantInt8)->Args({24, 640, 72})->Unit(benchmark::kMillisecond);

BENCHMARK(BM_MlSuitePerColumn)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MlSuiteBatched)->Unit(benchmark::kMillisecond);
// Columns/s vs inference precision at the batched configuration (recorded
// to BENCH_quantized_ml.json by scripts/check.sh's quant stage).
BENCHMARK(BM_MlSuitePrecisionFp32)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MlSuitePrecisionBf16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MlSuitePrecisionInt8)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
