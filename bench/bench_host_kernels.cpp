// Host-side microbenchmarks (google-benchmark) of the production dycore
// kernels in both precisions. These are NOT a paper figure; they document
// this build's raw kernel throughput, and back the note in section 4.6 that
// mixed precision alone buys little on a conventional cache-rich CPU (the
// big wins in Fig. 9 come from the CPE memory system, reproduced in
// bench_fig9_kernels).
//
// The BM_Unfused*/BM_Fused* pairs measure the fused single-sweep tendency
// pipeline against the multi-sweep kernel sequence it replaced; the
// BM_Simd*/BM_Fused* pairs measure the explicitly vectorized SimdBackend
// tier (best the CPU supports) against the auto-vectorized Host
// instantiation on identical inputs. Record both to BENCH_host_kernels.json
// with the --benchmark_format=json invocation documented in README.md.
//
// Every benchmark makes one untimed warm-up call before the timing loop so
// the first measured iteration sees warm thread-local Workspace arenas and
// faulted-in aligned field pages, not first-touch costs.
#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "grist/backend/quant.hpp"
#include "grist/backend/simd.hpp"
#include "grist/common/math.hpp"
#include "grist/dycore/kernels.hpp"
#include "grist/grid/hex_mesh.hpp"
#include "grist/grid/trsk.hpp"
#include "grist/ml/matrix.hpp"
#include "grist/ml/quant.hpp"
#include "grist/ml/ml_suite.hpp"
#include "grist/ml/traindata.hpp"
#include "grist/parallel/field.hpp"

namespace {

using namespace grist;

struct Fixture {
  grid::HexMesh mesh = grid::buildHexMesh(5);
  grid::TrskWeights trsk = grid::buildTrskWeights(mesh);
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
  // Extra streams for the fused-vs-unfused tendency pipeline.
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
  parallel::Field scalar_del2{mesh.ncells, nlev, 0.0};
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
    dycore::kernels::computeRrr<double>(mesh.ncells, nlev, 225.0, delp.data(),
                                        theta.data(), phi.data(), alpha.data(),
                                        p.data(), exner.data(), pi_mid.data());
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

template <typename NS>
void BM_PrimalNormalFlux(benchmark::State& state) {
  Fixture& f = fixture();
  dycore::kernels::primalNormalFluxEdge<NS>(f.mesh, f.mesh.nedges, f.nlev,
                                            f.delp.data(), f.u.data(),
                                            f.flux.data());
  for (auto _ : state) {
    dycore::kernels::primalNormalFluxEdge<NS>(f.mesh, f.mesh.nedges, f.nlev,
                                              f.delp.data(), f.u.data(),
                                              f.flux.data());
    benchmark::DoNotOptimize(f.flux.data());
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.nedges * f.nlev);
}

template <typename NS>
void BM_DivAtCell(benchmark::State& state) {
  Fixture& f = fixture();
  dycore::kernels::divAtCell<NS>(f.mesh, f.mesh.ncells, f.nlev, f.flux.data(),
                                 f.out_cell.data());
  for (auto _ : state) {
    dycore::kernels::divAtCell<NS>(f.mesh, f.mesh.ncells, f.nlev, f.flux.data(),
                                   f.out_cell.data());
    benchmark::DoNotOptimize(f.out_cell.data());
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.ncells * f.nlev);
}

template <typename NS>
void BM_ComputeRrr(benchmark::State& state) {
  Fixture& f = fixture();
  parallel::Field alpha(f.mesh.ncells, f.nlev), p(f.mesh.ncells, f.nlev),
      exner(f.mesh.ncells, f.nlev), pi(f.mesh.ncells, f.nlev);
  dycore::kernels::computeRrr<NS>(f.mesh.ncells, f.nlev, 225.0, f.delp.data(),
                                  f.theta.data(), f.phi.data(), alpha.data(),
                                  p.data(), exner.data(), pi.data());
  for (auto _ : state) {
    dycore::kernels::computeRrr<NS>(f.mesh.ncells, f.nlev, 225.0, f.delp.data(),
                                    f.theta.data(), f.phi.data(), alpha.data(),
                                    p.data(), exner.data(), pi.data());
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.ncells * f.nlev);
}

template <typename NS>
void BM_CoriolisTerm(benchmark::State& state) {
  Fixture& f = fixture();
  f.out_edge.fill(0.0);
  dycore::kernels::calcCoriolisTerm<NS>(f.mesh, f.trsk, f.mesh.nedges, f.nlev,
                                        f.flux.data(), f.qv.data(),
                                        f.out_edge.data());
  for (auto _ : state) {
    f.out_edge.fill(0.0);
    dycore::kernels::calcCoriolisTerm<NS>(f.mesh, f.trsk, f.mesh.nedges, f.nlev,
                                          f.flux.data(), f.qv.data(),
                                          f.out_edge.data());
    benchmark::DoNotOptimize(f.out_edge.data());
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.nedges * f.nlev);
}

// ---------------------------------------------------------------------------
// Fused-vs-unfused pairs. Each BM_Unfused* reproduces the pre-fusion kernel
// sequence (including its zero-fill and read-modify-write passes over the
// tendency arrays); the BM_Fused* partner runs the single-sweep replacement
// on identical inputs. The *TendencyPipeline pair is the acceptance number:
// the full horizontal tendency step, everything downstream of computeRrr.
// ---------------------------------------------------------------------------

template <typename NS>
void unfusedEdgeFluxes(Fixture& f) {
  dycore::kernels::primalNormalFluxEdge<NS>(f.mesh, f.mesh.nedges, f.nlev,
                                            f.delp.data(), f.u.data(),
                                            f.flux.data());
  // Pre-fusion dycore filled uflux with its own edge loop (always double).
  double* uflux = f.uflux.data();
  const double* u = f.u.data();
#pragma omp parallel for schedule(static)
  for (Index e = 0; e < f.mesh.nedges; ++e) {
    const double le = f.mesh.edge_le[e];
    for (int k = 0; k < f.nlev; ++k) uflux[e * f.nlev + k] = le * u[e * f.nlev + k];
  }
}

template <typename NS>
void unfusedCellDiagnostics(Fixture& f) {
  dycore::kernels::divAtCell<NS>(f.mesh, f.mesh.ncells, f.nlev, f.flux.data(),
                                 f.div_flux.data());
  dycore::kernels::divAtCell<NS>(f.mesh, f.mesh.ncells, f.nlev, f.uflux.data(),
                                 f.div_u.data());
  dycore::kernels::kineticEnergy<NS>(f.mesh, f.mesh.ncells, f.nlev, f.u.data(),
                                     f.ke.data());
}

template <typename NS>
void unfusedScalarTendencies(Fixture& f) {
  const std::size_t cn = static_cast<std::size_t>(f.mesh.ncells) * f.nlev;
  double* dt = f.delp_tend.data();
  const double* div = f.div_flux.data();
  for (std::size_t i = 0; i < cn; ++i) dt[i] = -div[i];
  f.scalar_del2.fill(0.0);
  dycore::kernels::scalarFluxTendency<NS>(f.mesh, f.mesh.ncells, f.nlev,
                                          f.flux.data(), f.theta.data(),
                                          f.thetam_tend.data());
  dycore::kernels::del2Scalar<NS>(f.mesh, f.mesh.ncells, f.nlev, f.theta.data(),
                                  f.nu_theta, f.scalar_del2.data());
  double* tt = f.thetam_tend.data();
  const double* dp = f.delp.data();
  const double* s2 = f.scalar_del2.data();
  for (std::size_t i = 0; i < cn; ++i) tt[i] += dp[i] * s2[i];
}

template <typename NS>
void unfusedMomentumTendency(Fixture& f) {
  f.u_tend.fill(0.0);
  dycore::kernels::tendGradKeAtEdge<NS>(f.mesh, f.mesh.nedges, f.nlev,
                                        f.ke.data(), f.u_tend.data());
  dycore::kernels::calcCoriolisTerm<NS>(f.mesh, f.trsk, f.mesh.nedges, f.nlev,
                                        f.flux.data(), f.vqv.data(),
                                        f.u_tend.data());
  dycore::kernels::calcPressureGradient(f.mesh, f.mesh.nedges, f.nlev,
                                        f.phi.data(), f.alpha.data(), f.p.data(),
                                        f.pi_mid.data(), f.u_tend.data());
  dycore::kernels::del2Momentum<NS>(f.mesh, f.mesh.nedges, f.nlev,
                                    f.div_u.data(), f.vor.data(), f.nu_div,
                                    f.nu_vor, f.u_tend.data());
}

template <typename NS>
void BM_UnfusedEdgeFluxes(benchmark::State& state) {
  Fixture& f = fixture();
  unfusedEdgeFluxes<NS>(f);
  for (auto _ : state) {
    unfusedEdgeFluxes<NS>(f);
    benchmark::DoNotOptimize(f.uflux.data());
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.nedges * f.nlev);
}

template <typename NS>
void BM_FusedEdgeFluxes(benchmark::State& state) {
  Fixture& f = fixture();
  dycore::kernels::fusedEdgeFluxes<NS>(f.mesh, f.mesh.nedges, f.nlev,
                                       f.delp.data(), f.u.data(),
                                       f.flux.data(), f.uflux.data());
  for (auto _ : state) {
    dycore::kernels::fusedEdgeFluxes<NS>(f.mesh, f.mesh.nedges, f.nlev,
                                         f.delp.data(), f.u.data(),
                                         f.flux.data(), f.uflux.data());
    benchmark::DoNotOptimize(f.uflux.data());
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.nedges * f.nlev);
}

template <typename NS>
void BM_UnfusedCellDiagnostics(benchmark::State& state) {
  Fixture& f = fixture();
  unfusedEdgeFluxes<NS>(f);
  unfusedCellDiagnostics<NS>(f);
  for (auto _ : state) {
    unfusedCellDiagnostics<NS>(f);
    benchmark::DoNotOptimize(f.ke.data());
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.ncells * f.nlev);
}

template <typename NS>
void BM_FusedCellDiagnostics(benchmark::State& state) {
  Fixture& f = fixture();
  unfusedEdgeFluxes<NS>(f);
  dycore::kernels::fusedCellDiagnostics<NS>(f.mesh, f.mesh.ncells, f.nlev,
                                            f.flux.data(), f.uflux.data(),
                                            f.u.data(), f.div_flux.data(),
                                            f.div_u.data(), f.ke.data());
  for (auto _ : state) {
    dycore::kernels::fusedCellDiagnostics<NS>(f.mesh, f.mesh.ncells, f.nlev,
                                              f.flux.data(), f.uflux.data(),
                                              f.u.data(), f.div_flux.data(),
                                              f.div_u.data(), f.ke.data());
    benchmark::DoNotOptimize(f.ke.data());
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.ncells * f.nlev);
}

template <typename NS>
void BM_UnfusedMomentumTendency(benchmark::State& state) {
  Fixture& f = fixture();
  unfusedEdgeFluxes<NS>(f);
  unfusedCellDiagnostics<NS>(f);
  dycore::kernels::fusedVertexDiagnostics<NS>(f.mesh, f.mesh.nvertices, f.nlev,
                                              f.u.data(), f.delp.data(),
                                              constants::kOmega, f.vvor.data(),
                                              f.vqv.data());
  unfusedMomentumTendency<NS>(f);
  for (auto _ : state) {
    unfusedMomentumTendency<NS>(f);
    benchmark::DoNotOptimize(f.u_tend.data());
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.nedges * f.nlev);
}

template <typename NS>
void BM_FusedMomentumTendency(benchmark::State& state) {
  Fixture& f = fixture();
  unfusedEdgeFluxes<NS>(f);
  unfusedCellDiagnostics<NS>(f);
  dycore::kernels::fusedVertexDiagnostics<NS>(f.mesh, f.mesh.nvertices, f.nlev,
                                              f.u.data(), f.delp.data(),
                                              constants::kOmega, f.vvor.data(),
                                              f.vqv.data());
  dycore::kernels::fusedMomentumTendency<NS>(
      f.mesh, f.trsk, f.mesh.nedges, f.nlev, f.ke.data(), f.vqv.data(),
      f.flux.data(), f.phi.data(), f.alpha.data(), f.p.data(), f.div_u.data(),
      f.vvor.data(), f.nu_div, f.nu_vor, f.u_tend.data());
  for (auto _ : state) {
    dycore::kernels::fusedMomentumTendency<NS>(
        f.mesh, f.trsk, f.mesh.nedges, f.nlev, f.ke.data(), f.vqv.data(),
        f.flux.data(), f.phi.data(), f.alpha.data(), f.p.data(),
        f.div_u.data(), f.vvor.data(), f.nu_div, f.nu_vor, f.u_tend.data());
    benchmark::DoNotOptimize(f.u_tend.data());
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.nedges * f.nlev);
}

// Host baselines for the two fused sweeps that previously only appeared
// inside the pipeline benchmark; the BM_Simd* partners below need
// standalone numbers for every registry sweep.
template <typename NS>
void BM_FusedVertexDiagnostics(benchmark::State& state) {
  Fixture& f = fixture();
  dycore::kernels::fusedVertexDiagnostics<NS>(f.mesh, f.mesh.nvertices, f.nlev,
                                              f.u.data(), f.delp.data(),
                                              constants::kOmega, f.vvor.data(),
                                              f.vqv.data());
  for (auto _ : state) {
    dycore::kernels::fusedVertexDiagnostics<NS>(
        f.mesh, f.mesh.nvertices, f.nlev, f.u.data(), f.delp.data(),
        constants::kOmega, f.vvor.data(), f.vqv.data());
    benchmark::DoNotOptimize(f.vqv.data());
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.nvertices * f.nlev);
}

template <typename NS>
void BM_FusedScalarTendencies(benchmark::State& state) {
  Fixture& f = fixture();
  unfusedEdgeFluxes<NS>(f);
  unfusedCellDiagnostics<NS>(f);
  dycore::kernels::fusedScalarTendencies<NS>(
      f.mesh, f.mesh.ncells, f.nlev, f.flux.data(), f.theta.data(),
      f.delp.data(), f.div_flux.data(), f.nu_theta, f.delp_tend.data(),
      f.thetam_tend.data());
  for (auto _ : state) {
    dycore::kernels::fusedScalarTendencies<NS>(
        f.mesh, f.mesh.ncells, f.nlev, f.flux.data(), f.theta.data(),
        f.delp.data(), f.div_flux.data(), f.nu_theta, f.delp_tend.data(),
        f.thetam_tend.data());
    benchmark::DoNotOptimize(f.thetam_tend.data());
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.ncells * f.nlev);
}

// ---------------------------------------------------------------------------
// SimdBackend pairs: each BM_Simd* runs the best-available dispatch tier's
// table entry on the same Fixture data as its BM_Fused* partner (which pins
// the HostBackend instantiation). Bitwise-identical output, so the pair
// isolates the cost of explicit vectorization alone. The acceptance gate is
// the BM_Simd*/BM_Fused* geomean across the fused sweeps.
// ---------------------------------------------------------------------------

template <typename NS>
void BM_SimdEdgeFluxes(benchmark::State& state) {
  Fixture& f = fixture();
  const backend::simd::KernelTable& tb = backend::simd::table();
  constexpr int si = backend::simd::kNsIndex<NS>;
  state.SetLabel(backend::simd::tierName(tb.tier));
  tb.fused_edge_fluxes[si](f.mesh, f.mesh.nedges, f.nlev, f.delp.data(),
                           f.u.data(), f.flux.data(), f.uflux.data());
  for (auto _ : state) {
    tb.fused_edge_fluxes[si](f.mesh, f.mesh.nedges, f.nlev, f.delp.data(),
                             f.u.data(), f.flux.data(), f.uflux.data());
    benchmark::DoNotOptimize(f.uflux.data());
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.nedges * f.nlev);
}

template <typename NS>
void BM_SimdCellDiagnostics(benchmark::State& state) {
  Fixture& f = fixture();
  unfusedEdgeFluxes<NS>(f);
  const backend::simd::KernelTable& tb = backend::simd::table();
  constexpr int si = backend::simd::kNsIndex<NS>;
  state.SetLabel(backend::simd::tierName(tb.tier));
  tb.fused_cell_diagnostics[si](f.mesh, f.mesh.ncells, f.nlev, f.flux.data(),
                                f.uflux.data(), f.u.data(), f.div_flux.data(),
                                f.div_u.data(), f.ke.data());
  for (auto _ : state) {
    tb.fused_cell_diagnostics[si](f.mesh, f.mesh.ncells, f.nlev, f.flux.data(),
                                  f.uflux.data(), f.u.data(),
                                  f.div_flux.data(), f.div_u.data(),
                                  f.ke.data());
    benchmark::DoNotOptimize(f.ke.data());
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.ncells * f.nlev);
}

template <typename NS>
void BM_SimdVertexDiagnostics(benchmark::State& state) {
  Fixture& f = fixture();
  const backend::simd::KernelTable& tb = backend::simd::table();
  constexpr int si = backend::simd::kNsIndex<NS>;
  state.SetLabel(backend::simd::tierName(tb.tier));
  tb.fused_vertex_diagnostics[si](f.mesh, f.mesh.nvertices, f.nlev, f.u.data(),
                                  f.delp.data(), constants::kOmega,
                                  f.vvor.data(), f.vqv.data());
  for (auto _ : state) {
    tb.fused_vertex_diagnostics[si](f.mesh, f.mesh.nvertices, f.nlev,
                                    f.u.data(), f.delp.data(),
                                    constants::kOmega, f.vvor.data(),
                                    f.vqv.data());
    benchmark::DoNotOptimize(f.vqv.data());
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.nvertices * f.nlev);
}

template <typename NS>
void BM_SimdScalarTendencies(benchmark::State& state) {
  Fixture& f = fixture();
  unfusedEdgeFluxes<NS>(f);
  unfusedCellDiagnostics<NS>(f);
  const backend::simd::KernelTable& tb = backend::simd::table();
  constexpr int si = backend::simd::kNsIndex<NS>;
  state.SetLabel(backend::simd::tierName(tb.tier));
  tb.fused_scalar_tendencies[si](f.mesh, f.mesh.ncells, f.nlev, f.flux.data(),
                                 f.theta.data(), f.delp.data(),
                                 f.div_flux.data(), f.nu_theta,
                                 f.delp_tend.data(), f.thetam_tend.data());
  for (auto _ : state) {
    tb.fused_scalar_tendencies[si](f.mesh, f.mesh.ncells, f.nlev,
                                   f.flux.data(), f.theta.data(),
                                   f.delp.data(), f.div_flux.data(),
                                   f.nu_theta, f.delp_tend.data(),
                                   f.thetam_tend.data());
    benchmark::DoNotOptimize(f.thetam_tend.data());
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.ncells * f.nlev);
}

template <typename NS>
void BM_SimdMomentumTendency(benchmark::State& state) {
  Fixture& f = fixture();
  unfusedEdgeFluxes<NS>(f);
  unfusedCellDiagnostics<NS>(f);
  dycore::kernels::fusedVertexDiagnostics<NS>(f.mesh, f.mesh.nvertices, f.nlev,
                                              f.u.data(), f.delp.data(),
                                              constants::kOmega, f.vvor.data(),
                                              f.vqv.data());
  const backend::simd::KernelTable& tb = backend::simd::table();
  constexpr int si = backend::simd::kNsIndex<NS>;
  state.SetLabel(backend::simd::tierName(tb.tier));
  tb.fused_momentum_tendency[si](
      f.mesh, f.trsk, f.mesh.nedges, f.nlev, f.ke.data(), f.vqv.data(),
      f.flux.data(), f.phi.data(), f.alpha.data(), f.p.data(), f.div_u.data(),
      f.vvor.data(), f.nu_div, f.nu_vor, f.u_tend.data());
  for (auto _ : state) {
    tb.fused_momentum_tendency[si](
        f.mesh, f.trsk, f.mesh.nedges, f.nlev, f.ke.data(), f.vqv.data(),
        f.flux.data(), f.phi.data(), f.alpha.data(), f.p.data(),
        f.div_u.data(), f.vvor.data(), f.nu_div, f.nu_vor, f.u_tend.data());
    benchmark::DoNotOptimize(f.u_tend.data());
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.nedges * f.nlev);
}

// The SIMD acceptance pipeline: the same five fused sweeps as
// BM_FusedTendencyPipeline, all through the dispatch table.
template <typename NS>
void BM_SimdTendencyPipeline(benchmark::State& state) {
  Fixture& f = fixture();
  const backend::simd::KernelTable& tb = backend::simd::table();
  constexpr int si = backend::simd::kNsIndex<NS>;
  state.SetLabel(backend::simd::tierName(tb.tier));
  auto run = [&f, &tb] {
    tb.fused_edge_fluxes[si](f.mesh, f.mesh.nedges, f.nlev, f.delp.data(),
                             f.u.data(), f.flux.data(), f.uflux.data());
    tb.fused_cell_diagnostics[si](f.mesh, f.mesh.ncells, f.nlev, f.flux.data(),
                                  f.uflux.data(), f.u.data(),
                                  f.div_flux.data(), f.div_u.data(),
                                  f.ke.data());
    tb.fused_vertex_diagnostics[si](f.mesh, f.mesh.nvertices, f.nlev,
                                    f.u.data(), f.delp.data(),
                                    constants::kOmega, f.vvor.data(),
                                    f.vqv.data());
    tb.fused_scalar_tendencies[si](f.mesh, f.mesh.ncells, f.nlev,
                                   f.flux.data(), f.theta.data(),
                                   f.delp.data(), f.div_flux.data(),
                                   f.nu_theta, f.delp_tend.data(),
                                   f.thetam_tend.data());
    tb.fused_momentum_tendency[si](
        f.mesh, f.trsk, f.mesh.nedges, f.nlev, f.ke.data(), f.vqv.data(),
        f.flux.data(), f.phi.data(), f.alpha.data(), f.p.data(),
        f.div_u.data(), f.vvor.data(), f.nu_div, f.nu_vor, f.u_tend.data());
  };
  run();
  for (auto _ : state) {
    run();
    benchmark::DoNotOptimize(f.u_tend.data());
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.nedges * f.nlev);
}

// The acceptance pair: the whole horizontal tendency step (everything
// downstream of computeRrr), old multi-sweep sequence vs fused pipeline.
template <typename NS>
void BM_UnfusedTendencyPipeline(benchmark::State& state) {
  Fixture& f = fixture();
  auto run = [&f] {
    unfusedEdgeFluxes<NS>(f);
    unfusedCellDiagnostics<NS>(f);
    dycore::kernels::vorticityAtVertex<NS>(f.mesh, f.mesh.nvertices, f.nlev,
                                           f.u.data(), f.vvor.data());
    dycore::kernels::potentialVorticityAtVertex<NS>(
        f.mesh, f.mesh.nvertices, f.nlev, f.vvor.data(), f.delp.data(),
        constants::kOmega, f.vqv.data());
    unfusedScalarTendencies<NS>(f);
    unfusedMomentumTendency<NS>(f);
  };
  run();
  for (auto _ : state) {
    run();
    benchmark::DoNotOptimize(f.u_tend.data());
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.nedges * f.nlev);
}

template <typename NS>
void BM_FusedTendencyPipeline(benchmark::State& state) {
  Fixture& f = fixture();
  auto run = [&f] {
    dycore::kernels::fusedEdgeFluxes<NS>(f.mesh, f.mesh.nedges, f.nlev,
                                         f.delp.data(), f.u.data(),
                                         f.flux.data(), f.uflux.data());
    dycore::kernels::fusedCellDiagnostics<NS>(f.mesh, f.mesh.ncells, f.nlev,
                                              f.flux.data(), f.uflux.data(),
                                              f.u.data(), f.div_flux.data(),
                                              f.div_u.data(), f.ke.data());
    dycore::kernels::fusedVertexDiagnostics<NS>(
        f.mesh, f.mesh.nvertices, f.nlev, f.u.data(), f.delp.data(),
        constants::kOmega, f.vvor.data(), f.vqv.data());
    dycore::kernels::fusedScalarTendencies<NS>(
        f.mesh, f.mesh.ncells, f.nlev, f.flux.data(), f.theta.data(),
        f.delp.data(), f.div_flux.data(), f.nu_theta, f.delp_tend.data(),
        f.thetam_tend.data());
    dycore::kernels::fusedMomentumTendency<NS>(
        f.mesh, f.trsk, f.mesh.nedges, f.nlev, f.ke.data(), f.vqv.data(),
        f.flux.data(), f.phi.data(), f.alpha.data(), f.p.data(),
        f.div_u.data(), f.vvor.data(), f.nu_div, f.nu_vor, f.u_tend.data());
  };
  run();
  for (auto _ : state) {
    run();
    benchmark::DoNotOptimize(f.u_tend.data());
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.nedges * f.nlev);
}

// Workspace-backed column solve (hard double): confirms the arena refactor
// did not slow the Thomas sweeps down.
void BM_VertImplicitSolver(benchmark::State& state) {
  Fixture& f = fixture();
  parallel::Field w = f.w;
  parallel::Field phi = f.phi;
  dycore::kernels::vertImplicitSolver(f.mesh.ncells, f.nlev, 300.0, 225.0,
                                      f.delp.data(), f.theta.data(), f.p.data(),
                                      w.data(), phi.data(), 0.0);
  for (auto _ : state) {
    dycore::kernels::vertImplicitSolver(f.mesh.ncells, f.nlev, 300.0, 225.0,
                                        f.delp.data(), f.theta.data(),
                                        f.p.data(), w.data(), phi.data(), 0.0);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.ncells * f.nlev);
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

BENCHMARK_TEMPLATE(BM_UnfusedEdgeFluxes, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FusedEdgeFluxes, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_UnfusedEdgeFluxes, float)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FusedEdgeFluxes, float)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_UnfusedCellDiagnostics, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FusedCellDiagnostics, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_UnfusedCellDiagnostics, float)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FusedCellDiagnostics, float)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_UnfusedMomentumTendency, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FusedMomentumTendency, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_UnfusedMomentumTendency, float)->Unit(benchmark::kMillisecond);
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

BENCHMARK_TEMPLATE(BM_UnfusedTendencyPipeline, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FusedTendencyPipeline, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_UnfusedTendencyPipeline, float)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FusedTendencyPipeline, float)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_SimdTendencyPipeline, double)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_SimdTendencyPipeline, float)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_VertImplicitSolver)->Unit(benchmark::kMillisecond);

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
