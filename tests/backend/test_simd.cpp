// Parity gates for the SIMD execution backend: every tier this build+CPU
// can dispatch to must reproduce the HostBackend instantiation BITWISE, for
// all 12 Fig. 9 registry kernels, in both NS precisions, across a sweep of
// nlev values that exercises every fringe shape (nlev % 4 and nlev % 8 of
// 0..7, below/at/above one vector, and the production 30).
//
// The reference runner is the swgomp harness's host path
// (runKernelOnData(..., ExecBackend::kHost, ...)): a serial sweep of the
// shared scalar bodies over physically seeded payloads, with the same fixed
// solver constants the sim uses. The SIMD side runs the dispatch table over
// an identically seeded copy; every output array must match bit for bit.
// The fused sweeps' float slots store their six NS intermediates as float
// rows (the storage contract in simd.hpp): each of those must equal the
// Host output rounded to float, bitwise, and everything else the Host
// output itself.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "grist/backend/simd.hpp"
#include "grist/common/math.hpp"
#include "grist/grid/hex_mesh.hpp"
#include "grist/grid/trsk.hpp"
#include "grist/swgomp/sim_kernels.hpp"

namespace grist::backend::simd {
namespace {

using grid::HexMesh;
using grid::TrskWeights;
using grid::buildHexMesh;
using grid::buildTrskWeights;
using precision::NsMode;
using swgomp::ExecBackend;
using swgomp::SimKernel;
using swgomp::SimKernelData;
using swgomp::kernelName;
using swgomp::makeSimKernelData;
using swgomp::runKernelOnData;

// Fixed solver constants, mirroring swgomp/src/sim_kernels.cpp.
constexpr double kDt = 300.0;
constexpr double kPtop = 225.0;
constexpr double kWDampTau = 900.0;
constexpr double kNuTheta = 0.005 / 300.0;
constexpr double kNuDiv = 0.02 / 300.0;
constexpr double kNuVor = 0.005 / 300.0;

/// The seven NS-stored operands of the fused sweeps and the EOS as S rows,
/// seeded from (and written back into) a SimKernelData. Widening a float
/// row back into a double one is exact.
template <typename S>
struct NsRows {
  std::vector<S> flux, uflux, ke, div_u, alpha, vor, qv;

  explicit NsRows(const SimKernelData& d)
      : flux(d.flux.begin(), d.flux.end()),
        uflux(d.uflux.begin(), d.uflux.end()),
        ke(d.ke.begin(), d.ke.end()),
        div_u(d.div_u.begin(), d.div_u.end()),
        alpha(d.alpha.begin(), d.alpha.end()),
        vor(d.vor.begin(), d.vor.end()),
        qv(d.qv.begin(), d.qv.end()) {}

  void writeBack(SimKernelData& d) const {
    d.flux.assign(flux.begin(), flux.end());
    d.uflux.assign(uflux.begin(), uflux.end());
    d.ke.assign(ke.begin(), ke.end());
    d.div_u.assign(div_u.begin(), div_u.end());
    d.alpha.assign(alpha.begin(), alpha.end());
    d.vor.assign(vor.begin(), vor.end());
    d.qv.assign(qv.begin(), qv.end());
  }
};

/// Seeded kernel data for precision `ns`. Under MIX the EOS writes alpha as
/// an NS quotient, so a MIX step only ever sees float-valued alpha: the
/// seed is rounded likewise, which makes a float alpha row hold it exactly.
SimKernelData seedData(const HexMesh& mesh, int nlev, NsMode ns) {
  SimKernelData d = makeSimKernelData(mesh, nlev);
  if (ns == NsMode::kSingle) {
    for (double& a : d.alpha) a = static_cast<float>(a);
  }
  return d;
}

/// One fused sweep through the table's NS slot, on NS-typed rows.
template <precision::NsReal NS>
void runFusedSweep(SimKernel kernel, const HexMesh& mesh,
                   const TrskWeights& trsk, const KernelTable& tb,
                   SimKernelData& d, NsRows<NS>& r) {
  constexpr int si = kNsIndex<NS>;
  const int nlev = d.nlev;
  switch (kernel) {
    case SimKernel::kFusedEdgeFluxes:
      std::get<si>(tb.fused_edge_fluxes)(mesh, d.nedges, nlev, d.delp.data(),
                                         d.u.data(), r.flux.data(),
                                         r.uflux.data());
      return;
    case SimKernel::kFusedCellDiagnostics:
      std::get<si>(tb.fused_cell_diagnostics)(
          mesh, d.ncells, nlev, r.flux.data(), r.uflux.data(), d.u.data(),
          d.div_flux.data(), r.div_u.data(), r.ke.data());
      return;
    case SimKernel::kFusedVertexDiagnostics:
      std::get<si>(tb.fused_vertex_diagnostics)(
          mesh, d.nvertices, nlev, d.u.data(), d.delp.data(),
          constants::kOmega, r.vor.data(), r.qv.data());
      return;
    case SimKernel::kFusedScalarTendencies:
      std::get<si>(tb.fused_scalar_tendencies)(
          mesh, d.ncells, nlev, r.flux.data(), d.theta.data(), d.delp.data(),
          d.div_flux.data(), kNuTheta, d.delp_tend.data(),
          d.thetam_tend.data());
      return;
    case SimKernel::kFusedMomentumTendency:
      std::get<si>(tb.fused_momentum_tendency)(
          mesh, trsk, d.nedges, nlev, r.ke.data(), r.qv.data(), r.flux.data(),
          d.phi.data(), r.alpha.data(), d.p.data(), r.div_u.data(),
          r.vor.data(), kNuDiv, kNuVor, d.tend_u.data());
      return;
    default:
      FAIL() << kernelName(kernel) << " is not a fused sweep";
  }
}

bool isFusedSweep(SimKernel kernel) {
  switch (kernel) {
    case SimKernel::kFusedEdgeFluxes:
    case SimKernel::kFusedCellDiagnostics:
    case SimKernel::kFusedVertexDiagnostics:
    case SimKernel::kFusedScalarTendencies:
    case SimKernel::kFusedMomentumTendency:
      return true;
    default:
      return false;
  }
}

/// The SIMD-table equivalent of runKernelPhases: same entity counts, same
/// constants, outputs land in `d` (a fused sweep's NS rows widened back).
void runSimdKernel(SimKernel kernel, const HexMesh& mesh,
                   const TrskWeights& trsk, NsMode ns, const KernelTable& tb,
                   SimKernelData& d) {
  if (isFusedSweep(kernel)) {
    if (ns == NsMode::kSingle) {
      NsRows<float> rows(d);
      runFusedSweep<float>(kernel, mesh, trsk, tb, d, rows);
      rows.writeBack(d);
    } else {
      NsRows<double> rows(d);
      runFusedSweep<double>(kernel, mesh, trsk, tb, d, rows);
      rows.writeBack(d);
    }
    return;
  }
  const int si = nsIndex(ns);
  const int nlev = d.nlev;
  switch (kernel) {
    case SimKernel::kPrimalNormalFluxEdge:
      tb.primal_normal_flux_edge[si](mesh, d.nedges, nlev, d.delp.data(),
                                     d.u.data(), d.flux.data());
      return;
    case SimKernel::kComputeRrr:
      // The table carries compute_rrr's step-facing part only: alpha and p,
      // alpha in NS storage.
      if (si == 1) {
        std::vector<float> alpha(d.alpha.size());
        std::get<1>(tb.rrr_alpha_p)(nullptr, d.ncells, nlev, d.delp.data(),
                                    d.theta.data(), d.phi.data(),
                                    alpha.data(), d.p.data());
        d.alpha.assign(alpha.begin(), alpha.end());
      } else {
        std::get<0>(tb.rrr_alpha_p)(nullptr, d.ncells, nlev, d.delp.data(),
                                    d.theta.data(), d.phi.data(),
                                    d.alpha.data(), d.p.data());
      }
      return;
    case SimKernel::kCalcCoriolisTerm:
      tb.calc_coriolis_term[si](mesh, trsk, d.nedges, nlev, d.flux.data(),
                                d.qv.data(), d.tend_u.data());
      return;
    case SimKernel::kTendGradKeAtEdge:
      tb.tend_grad_ke_at_edge[si](mesh, d.nedges, nlev, d.ke.data(),
                                  d.tend_u.data());
      return;
    case SimKernel::kDivAtCell:
      tb.div_at_cell[si](mesh, d.ncells, nlev, d.flux.data(),
                         d.div_flux.data());
      return;
    case SimKernel::kTracerHoriFluxLimiter:
      tb.tracer_hori_flux_limiter[si](
          mesh, d.ncells, nlev, kDt, d.mean_flux.data(), d.delp_old.data(),
          d.delp_new.data(), d.q.data(), d.flux_low.data(),
          d.flux_anti.data(), d.q_td.data(), d.rp.data(), d.rm.data());
      return;
    case SimKernel::kVertImplicitSolver: {
      // The member-lane solve with one member is the column solve.
      const double* delp = d.delp.data();
      const double* theta = d.theta.data();
      const double* p = d.p.data();
      double* w = d.w.data();
      double* phi = d.phi.data();
      tb.vert_solve_lanes(nullptr, d.ncells, 1, nlev, kDt, kPtop, &delp,
                          &theta, &p, &w, &phi, kWDampTau);
      return;
    }
    default:
      break;
  }
  FAIL() << "unknown kernel";
}

/// Bitwise comparison (memcmp of the representations): the contract is
/// exactness, not a ULP bound, so NaN payloads and signed zeros count too.
::testing::AssertionResult bitwiseEqual(const std::vector<double>& ref,
                                        const std::vector<double>& got,
                                        const char* name) {
  if (ref.size() != got.size()) {
    return ::testing::AssertionFailure()
           << name << ": size " << got.size() << " != " << ref.size();
  }
  if (std::memcmp(ref.data(), got.data(), ref.size() * sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (std::memcmp(&ref[i], &got[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << name << "[" << i << "]: got " << got[i] << " expected "
             << ref[i] << " (bitwise)";
    }
  }
  return ::testing::AssertionFailure() << name << ": memcmp mismatch";
}

/// `with_exner_pi_mid` = false skips the two compute_rrr outputs the table
/// does not produce.
void expectDataBitwiseEqual(const SimKernelData& ref, const SimKernelData& got,
                            bool with_exner_pi_mid = true) {
  EXPECT_TRUE(bitwiseEqual(ref.alpha, got.alpha, "alpha"));
  EXPECT_TRUE(bitwiseEqual(ref.p, got.p, "p"));
  if (with_exner_pi_mid) {
    EXPECT_TRUE(bitwiseEqual(ref.exner, got.exner, "exner"));
    EXPECT_TRUE(bitwiseEqual(ref.pi_mid, got.pi_mid, "pi_mid"));
  }
  EXPECT_TRUE(bitwiseEqual(ref.ke, got.ke, "ke"));
  EXPECT_TRUE(bitwiseEqual(ref.div_flux, got.div_flux, "div_flux"));
  EXPECT_TRUE(bitwiseEqual(ref.div_u, got.div_u, "div_u"));
  EXPECT_TRUE(bitwiseEqual(ref.delp_tend, got.delp_tend, "delp_tend"));
  EXPECT_TRUE(bitwiseEqual(ref.thetam_tend, got.thetam_tend, "thetam_tend"));
  EXPECT_TRUE(bitwiseEqual(ref.q, got.q, "q"));
  EXPECT_TRUE(bitwiseEqual(ref.q_td, got.q_td, "q_td"));
  EXPECT_TRUE(bitwiseEqual(ref.rp, got.rp, "rp"));
  EXPECT_TRUE(bitwiseEqual(ref.rm, got.rm, "rm"));
  EXPECT_TRUE(bitwiseEqual(ref.phi, got.phi, "phi"));
  EXPECT_TRUE(bitwiseEqual(ref.w, got.w, "w"));
  EXPECT_TRUE(bitwiseEqual(ref.flux, got.flux, "flux"));
  EXPECT_TRUE(bitwiseEqual(ref.uflux, got.uflux, "uflux"));
  EXPECT_TRUE(bitwiseEqual(ref.tend_u, got.tend_u, "tend_u"));
  EXPECT_TRUE(bitwiseEqual(ref.flux_low, got.flux_low, "flux_low"));
  EXPECT_TRUE(bitwiseEqual(ref.flux_anti, got.flux_anti, "flux_anti"));
  EXPECT_TRUE(bitwiseEqual(ref.vor, got.vor, "vor"));
  EXPECT_TRUE(bitwiseEqual(ref.qv, got.qv, "qv"));
}

class SimdParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mesh_ = new HexMesh(buildHexMesh(3));
    trsk_ = new TrskWeights(buildTrskWeights(*mesh_));
  }
  static void TearDownTestSuite() {
    delete trsk_;
    trsk_ = nullptr;
    delete mesh_;
    mesh_ = nullptr;
  }
  static HexMesh* mesh_;
  static TrskWeights* trsk_;
};
HexMesh* SimdParityTest::mesh_ = nullptr;
TrskWeights* SimdParityTest::trsk_ = nullptr;

// nlev sweep: every AVX2 (width 4) and AVX-512 (width 8) fringe shape --
// below one vector, exactly one, one-plus-fringe, two, the production 30
// (4*7+2 / 8*3+6), and an odd just-past-four-vectors 33.
const int kNlevSweep[] = {1, 3, 7, 8, 15, 16, 30, 33};

TEST_F(SimdParityTest, AllKernelsAllTiersAllPrecisionsBitwise) {
  for (const SimKernel kernel : swgomp::allSimKernels()) {
    for (const NsMode ns : {NsMode::kDouble, NsMode::kSingle}) {
      for (const int nlev : kNlevSweep) {
        if (nlev < 2 && kernel == SimKernel::kVertImplicitSolver) {
          continue;  // the column solve needs an interior interface
        }
        SimKernelData ref = seedData(*mesh_, nlev, ns);
        runKernelOnData(kernel, *mesh_, *trsk_, ns, ExecBackend::kHost, ref);
        // A float slot of a fused sweep holds its NS rows in float: the
        // Host rows rounded to float.
        if (ns == NsMode::kSingle && isFusedSweep(kernel)) {
          NsRows<float>(ref).writeBack(ref);
        }
        for (const Tier tier : availableTiers()) {
          SCOPED_TRACE(std::string(kernelName(kernel)) + " ns=" +
                       (ns == NsMode::kSingle ? "single" : "double") +
                       " nlev=" + std::to_string(nlev) + " tier=" +
                       tierName(tier));
          SimKernelData got = seedData(*mesh_, nlev, ns);
          runSimdKernel(kernel, *mesh_, *trsk_, ns, table(tier), got);
          expectDataBitwiseEqual(ref, got, kernel != SimKernel::kComputeRrr);
        }
      }
    }
  }
}

// The five fused sweeps chained as the step chains them (edge, cell,
// vertex, scalar, momentum), each reading what the previous ones stored.
// Per tier and nlev: the float pipeline's six NS rows equal the Host MIX
// pipeline's outputs rounded to float, its four double outputs equal the
// Host's bitwise, and the double pipeline equals the Host DP one outright.
TEST_F(SimdParityTest, FusedPipelineStoresNsRowsBitwisePerTier) {
  const SimKernel pipeline[] = {
      SimKernel::kFusedEdgeFluxes, SimKernel::kFusedCellDiagnostics,
      SimKernel::kFusedVertexDiagnostics, SimKernel::kFusedScalarTendencies,
      SimKernel::kFusedMomentumTendency};
  for (const int nlev : kNlevSweep) {
    for (const NsMode ns : {NsMode::kDouble, NsMode::kSingle}) {
      SimKernelData ref = seedData(*mesh_, nlev, ns);
      for (const SimKernel k : pipeline) {
        runKernelOnData(k, *mesh_, *trsk_, ns, ExecBackend::kHost, ref);
      }
      for (const Tier tier : availableTiers()) {
        SCOPED_TRACE(std::string("nlev=") + std::to_string(nlev) + " tier=" +
                     tierName(tier) +
                     (ns == NsMode::kSingle ? " float rows" : " double rows"));
        SimKernelData got = seedData(*mesh_, nlev, ns);
        if (ns == NsMode::kSingle) {
          NsRows<float> rows(got);
          for (const SimKernel k : pipeline) {
            runFusedSweep<float>(k, *mesh_, *trsk_, table(tier), got, rows);
          }
          const NsRows<float> want(ref);  // the Host rows rounded to float
          const auto same = [](const std::vector<float>& x,
                               const std::vector<float>& y) {
            return x.size() == y.size() &&
                   std::memcmp(x.data(), y.data(),
                               x.size() * sizeof(float)) == 0;
          };
          EXPECT_TRUE(same(want.flux, rows.flux)) << "flux";
          EXPECT_TRUE(same(want.uflux, rows.uflux)) << "uflux";
          EXPECT_TRUE(same(want.ke, rows.ke)) << "ke";
          EXPECT_TRUE(same(want.div_u, rows.div_u)) << "div_u";
          EXPECT_TRUE(same(want.vor, rows.vor)) << "vor";
          EXPECT_TRUE(same(want.qv, rows.qv)) << "qv";
        } else {
          NsRows<double> rows(got);
          for (const SimKernel k : pipeline) {
            runFusedSweep<double>(k, *mesh_, *trsk_, table(tier), got, rows);
          }
          rows.writeBack(got);
          EXPECT_TRUE(bitwiseEqual(ref.flux, got.flux, "flux"));
          EXPECT_TRUE(bitwiseEqual(ref.uflux, got.uflux, "uflux"));
          EXPECT_TRUE(bitwiseEqual(ref.ke, got.ke, "ke"));
          EXPECT_TRUE(bitwiseEqual(ref.div_u, got.div_u, "div_u"));
          EXPECT_TRUE(bitwiseEqual(ref.vor, got.vor, "vor"));
          EXPECT_TRUE(bitwiseEqual(ref.qv, got.qv, "qv"));
        }
        EXPECT_TRUE(bitwiseEqual(ref.div_flux, got.div_flux, "div_flux"));
        EXPECT_TRUE(bitwiseEqual(ref.delp_tend, got.delp_tend, "delp_tend"));
        EXPECT_TRUE(
            bitwiseEqual(ref.thetam_tend, got.thetam_tend, "thetam_tend"));
        EXPECT_TRUE(bitwiseEqual(ref.tend_u, got.tend_u, "tend_u"));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The dycore step's own entries: EOS without Exner/pi_mid, RK3 save/update,
// flux accumulation and the member-lane implicit solve. References are the
// Host bodies (compute_rrr and vert_implicit_solver through
// runKernelOnData) and plain scalar loops; the band-list forms must touch
// exactly the listed entities.
// ---------------------------------------------------------------------------

const int kStepNlevSweep[] = {2, 3, 7, 8, 15, 16, 30, 33};

/// An irregular, out-of-order band: every third entity, walked backwards.
std::vector<Index> sparseBand(Index n) {
  std::vector<Index> band;
  for (Index i = n - 1; i >= 0; i -= 3) band.push_back(i);
  return band;
}

/// 1 where `band` lists the entity, else 0.
std::vector<char> bandMask(const std::vector<Index>& band, Index n) {
  std::vector<char> in(static_cast<std::size_t>(n), 0);
  for (const Index i : band) in[static_cast<std::size_t>(i)] = 1;
  return in;
}

/// Rows of `got` inside the band must equal `ref` bitwise; rows outside it
/// must still hold `untouched`.
::testing::AssertionResult bandRowsMatch(const std::vector<double>& ref,
                                         const std::vector<double>& got,
                                         const std::vector<double>& untouched,
                                         const std::vector<char>& in,
                                         int row, const char* name) {
  for (std::size_t e = 0; e < in.size(); ++e) {
    const std::vector<double>& want = in[e] ? ref : untouched;
    const std::size_t off = e * static_cast<std::size_t>(row);
    if (std::memcmp(want.data() + off, got.data() + off,
                    static_cast<std::size_t>(row) * sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << name << " row " << e << (in[e] ? " (listed)" : " (unlisted)")
             << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// The Host compute_rrr body's alpha and p in precision `ns` for d's
/// state.
void hostAlphaP(const SimKernelData& d, const HexMesh& mesh,
                const TrskWeights& trsk, NsMode ns, std::vector<double>& alpha,
                std::vector<double>& p) {
  SimKernelData ref = d;
  runKernelOnData(SimKernel::kComputeRrr, mesh, trsk, ns, ExecBackend::kHost,
                  ref);
  alpha = std::move(ref.alpha);
  p = std::move(ref.p);
}

TEST_F(SimdParityTest, EosEntriesMatchHostComputeRrrAlphaAndP) {
  for (const int nlev : kStepNlevSweep) {
    const SimKernelData d = makeSimKernelData(*mesh_, nlev);
    const Index n = d.ncells;
    const std::size_t cn = d.delp.size();
    // Indexed by nsIndex(): [0] = double, [1] = float.
    std::vector<double> ref_alpha[2], ref_p[2];
    hostAlphaP(d, *mesh_, *trsk_, NsMode::kDouble, ref_alpha[0], ref_p[0]);
    hostAlphaP(d, *mesh_, *trsk_, NsMode::kSingle, ref_alpha[1], ref_p[1]);
    const std::vector<Index> band = sparseBand(n);
    const std::vector<char> in = bandMask(band, n);
    const std::vector<double> sentinel(cn, -7.0);
    for (const Tier tier : availableTiers()) {
      const KernelTable& tb = table(tier);
      for (const NsMode ns : {NsMode::kDouble, NsMode::kSingle}) {
        const int si = nsIndex(ns);
        SCOPED_TRACE(std::string("nlev=") + std::to_string(nlev) + " tier=" +
                     tierName(tier) + " ns=" + (si ? "single" : "double"));
        // The double slot writes alpha into a double row; the float slot
        // into a float row, widened here (exactly) for the comparison.
        const auto eos = [&](const std::vector<Index>* cells,
                             std::vector<double>& alpha,
                             std::vector<double>& p) {
          const Index* list = cells ? cells->data() : nullptr;
          const Index count = cells ? static_cast<Index>(cells->size()) : n;
          if (si == 1) {
            std::vector<float> alpha_sp(alpha.begin(), alpha.end());
            std::get<1>(tb.rrr_alpha_p)(list, count, nlev, d.delp.data(),
                                        d.theta.data(), d.phi.data(),
                                        alpha_sp.data(), p.data());
            alpha.assign(alpha_sp.begin(), alpha_sp.end());
          } else {
            std::get<0>(tb.rrr_alpha_p)(list, count, nlev, d.delp.data(),
                                        d.theta.data(), d.phi.data(),
                                        alpha.data(), p.data());
          }
        };
        std::vector<double> alpha(sentinel), p(sentinel);
        eos(nullptr, alpha, p);
        EXPECT_TRUE(bitwiseEqual(ref_alpha[si], alpha, "alpha"));
        EXPECT_TRUE(bitwiseEqual(ref_p[si], p, "p"));
        alpha = sentinel;
        p = sentinel;
        eos(&band, alpha, p);
        EXPECT_TRUE(bandRowsMatch(ref_alpha[si], alpha, sentinel, in, nlev,
                                  "alpha (band)"));
        EXPECT_TRUE(bandRowsMatch(ref_p[si], p, sentinel, in, nlev,
                                  "p (band)"));
      }
      // p-only is the double-precision pre-solver pressure in both modes.
      SCOPED_TRACE(std::string("rrr_p nlev=") + std::to_string(nlev) +
                   " tier=" + tierName(tier));
      std::vector<double> p(sentinel);
      tb.rrr_p(nullptr, n, nlev, d.delp.data(), d.theta.data(), d.phi.data(),
               p.data());
      EXPECT_TRUE(bitwiseEqual(ref_p[0], p, "p-only"));
      p = sentinel;
      tb.rrr_p(band.data(), static_cast<Index>(band.size()), nlev,
               d.delp.data(), d.theta.data(), d.phi.data(), p.data());
      EXPECT_TRUE(bandRowsMatch(ref_p[0], p, sentinel, in, nlev,
                                "p-only (band)"));
    }
  }
}

TEST_F(SimdParityTest, RkSweepsMatchScalarLoopsContiguousAndBanded) {
  const double dts = 100.0;
  for (const int nlev : kStepNlevSweep) {
    const SimKernelData d = makeSimKernelData(*mesh_, nlev);
    const Index nc = d.ncells;
    const Index ne = d.nedges;
    // Tendencies with a few layers driven past the positivity floor.
    std::vector<double> delp_tend(d.delp.size()), thetam_tend(d.delp.size());
    for (std::size_t i = 0; i < delp_tend.size(); ++i) {
      delp_tend[i] = (i % 97 == 0) ? -10.0 : 0.01 * std::sin(0.7 * i);
      thetam_tend[i] = 3.0 * std::cos(0.3 * i);
    }
    std::vector<double> u_tend(d.u.size());
    for (std::size_t i = 0; i < u_tend.size(); ++i) {
      u_tend[i] = 1e-3 * std::sin(0.2 * i);
    }
    // Scalar references: the save, the stage update with its positivity
    // backstop as a branch, and the accumulation.
    std::vector<double> delp0(d.delp), thetam0(d.delp.size()), ref_delp(d.delp),
        ref_theta(d.theta), ref_u(d.u), ref_acc(d.flux);
    for (std::size_t i = 0; i < d.delp.size(); ++i) {
      thetam0[i] = d.delp[i] * d.theta[i];
      const double nd = delp0[i] + dts * delp_tend[i];
      const double nt = thetam0[i] + dts * thetam_tend[i];
      if (nd < 0.1 * delp0[i]) {
        ref_delp[i] = 0.1 * delp0[i];
        ref_theta[i] = thetam0[i] / delp0[i];
      } else {
        ref_delp[i] = nd;
        ref_theta[i] = nt / nd;
      }
    }
    for (std::size_t i = 0; i < d.u.size(); ++i) {
      ref_u[i] = d.u[i] + dts * u_tend[i];
      ref_acc[i] = d.flux[i] + d.uflux[i];
    }
    const std::vector<Index> cband = sparseBand(nc), eband = sparseBand(ne);
    const std::vector<char> cin = bandMask(cband, nc), ein = bandMask(eband, ne);
    for (const Tier tier : availableTiers()) {
      const KernelTable& tb = table(tier);
      SCOPED_TRACE(std::string("nlev=") + std::to_string(nlev) + " tier=" +
                   tierName(tier));
      std::vector<double> s_delp0(d.delp.size()), s_thetam0(d.delp.size()),
          s_u0(d.u.size());
      tb.save_cell_start(nc, nlev, d.delp.data(), d.theta.data(),
                         s_delp0.data(), s_thetam0.data());
      tb.save_edge_start(ne, nlev, d.u.data(), s_u0.data());
      EXPECT_TRUE(bitwiseEqual(delp0, s_delp0, "delp0"));
      EXPECT_TRUE(bitwiseEqual(thetam0, s_thetam0, "thetam0"));
      EXPECT_TRUE(bitwiseEqual(d.u, s_u0, "u0"));

      std::vector<double> delp(d.delp), theta(d.theta), u(d.u);
      tb.update_cells(nullptr, nc, nlev, dts, delp0.data(), thetam0.data(),
                      delp_tend.data(), thetam_tend.data(), delp.data(),
                      theta.data());
      tb.update_edges(nullptr, ne, nlev, dts, d.u.data(), u_tend.data(),
                      u.data());
      EXPECT_TRUE(bitwiseEqual(ref_delp, delp, "delp"));
      EXPECT_TRUE(bitwiseEqual(ref_theta, theta, "theta"));
      EXPECT_TRUE(bitwiseEqual(ref_u, u, "u"));

      delp = d.delp;
      theta = d.theta;
      u = d.u;
      tb.update_cells(cband.data(), static_cast<Index>(cband.size()), nlev,
                      dts, delp0.data(), thetam0.data(), delp_tend.data(),
                      thetam_tend.data(), delp.data(), theta.data());
      tb.update_edges(eband.data(), static_cast<Index>(eband.size()), nlev,
                      dts, d.u.data(), u_tend.data(), u.data());
      EXPECT_TRUE(bandRowsMatch(ref_delp, delp, d.delp, cin, nlev, "delp (band)"));
      EXPECT_TRUE(bandRowsMatch(ref_theta, theta, d.theta, cin, nlev,
                                "theta (band)"));
      EXPECT_TRUE(bandRowsMatch(ref_u, u, d.u, ein, nlev, "u (band)"));

      std::vector<double> acc(d.flux);
      std::get<0>(tb.accumulate_flux)(ne, nlev, d.uflux.data(), acc.data());
      EXPECT_TRUE(bitwiseEqual(ref_acc, acc, "acc"));
      // A float-stored flux widens exactly into the double window.
      const std::vector<float> uflux_sp(d.uflux.begin(), d.uflux.end());
      std::vector<double> ref_acc_sp(d.flux);
      for (std::size_t i = 0; i < ref_acc_sp.size(); ++i) {
        ref_acc_sp[i] += static_cast<double>(uflux_sp[i]);
      }
      acc = d.flux;
      std::get<1>(tb.accumulate_flux)(ne, nlev, uflux_sp.data(), acc.data());
      EXPECT_TRUE(bitwiseEqual(ref_acc_sp, acc, "acc (float flux)"));
    }
  }
}

TEST_F(SimdParityTest, MemberLaneSolveMatchesHostColumnSolvePerMember) {
  // Band lists: the whole range (contiguous), the sparse backwards band,
  // and short irregular lists of 1, 7, 9 and 17 cells, so that lane blocks
  // of consecutive (column, member) pairs end mid-vector for every M.
  const auto irregular = [](Index n, Index count) {
    std::vector<Index> band;
    for (Index j = 0; j < count; ++j) band.push_back((n - 1 - 37 * j) % n);
    return band;
  };
  for (const int nlev : kStepNlevSweep) {
    const SimKernelData d = makeSimKernelData(*mesh_, nlev);
    const Index n = d.ncells;
    const std::vector<std::vector<Index>> bands = {
        sparseBand(n), irregular(n, 1), irregular(n, 7), irregular(n, 9),
        irregular(n, 17)};
    // 2, 3 and 9 do not divide 8; 8 fills a block with one column; 9 spans
    // two blocks per column.
    for (const int members : {1, 2, 3, 8, 9}) {
      // Distinct physical members: shifted theta, wiggled interior phi, a
      // nonzero w; p from the Host EOS, then the Host column solve.
      std::vector<std::vector<double>> delp(members, d.delp), theta, p, w,
          phi, ref_w, ref_phi;
      for (int m = 0; m < members; ++m) {
        SimKernelData dm = d;
        for (double& t : dm.theta) t += 0.5 * m;
        for (std::size_t i = 0; i < dm.phi.size(); ++i) {
          dm.w[i] = 0.2 * std::sin(0.1 * i + m);
          if (i % (nlev + 1) != 0 && i % (nlev + 1) != static_cast<std::size_t>(nlev)) {
            dm.phi[i] += 30.0 * std::sin(0.05 * i + m);
          }
        }
        runKernelOnData(SimKernel::kComputeRrr, *mesh_, *trsk_,
                        NsMode::kDouble, ExecBackend::kHost, dm);
        theta.push_back(dm.theta);
        p.push_back(dm.p);
        w.push_back(dm.w);
        phi.push_back(dm.phi);
        runKernelOnData(SimKernel::kVertImplicitSolver, *mesh_, *trsk_,
                        NsMode::kDouble, ExecBackend::kHost, dm);
        ref_w.push_back(std::move(dm.w));
        ref_phi.push_back(std::move(dm.phi));
      }
      for (const Tier tier : availableTiers()) {
        // band < 0: contiguous; otherwise bands[band].
        for (int band = -1; band < static_cast<int>(bands.size()); ++band) {
          SCOPED_TRACE(std::string("nlev=") + std::to_string(nlev) + " M=" +
                       std::to_string(members) + " tier=" + tierName(tier) +
                       " band=" + std::to_string(band));
          const std::vector<Index>* list =
              band < 0 ? nullptr : &bands[static_cast<std::size_t>(band)];
          std::vector<std::vector<double>> gw(w), gphi(phi);
          std::vector<const double*> dp_ptr, th_ptr, p_ptr;
          std::vector<double*> w_ptr, phi_ptr;
          for (int m = 0; m < members; ++m) {
            dp_ptr.push_back(delp[m].data());
            th_ptr.push_back(theta[m].data());
            p_ptr.push_back(p[m].data());
            w_ptr.push_back(gw[m].data());
            phi_ptr.push_back(gphi[m].data());
          }
          table(tier).vert_solve_lanes(
              list ? list->data() : nullptr,
              list ? static_cast<Index>(list->size()) : n, members, nlev, kDt,
              kPtop, dp_ptr.data(), th_ptr.data(), p_ptr.data(), w_ptr.data(),
              phi_ptr.data(), kWDampTau);
          for (int m = 0; m < members; ++m) {
            if (list) {
              const std::vector<char> in = bandMask(*list, n);
              EXPECT_TRUE(bandRowsMatch(ref_w[m], gw[m], w[m], in, nlev + 1,
                                        "w (band)"));
              EXPECT_TRUE(bandRowsMatch(ref_phi[m], gphi[m], phi[m], in,
                                        nlev + 1, "phi (band)"));
            } else {
              EXPECT_TRUE(bitwiseEqual(ref_w[m], gw[m], "w"));
              EXPECT_TRUE(bitwiseEqual(ref_phi[m], gphi[m], "phi"));
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The row pow (KernelTable::pow_row): std::pow's exact bits on every tier,
// for the EOS's two exponents over the EOS argument range, log-uniform
// inputs, both sides of every 2^-12 mantissa boundary (a superset of the
// AVX-512 tier's log-table interval edges) and the special inputs. Inputs
// are streamed in chunks of nlev-20 rows, as the EOS calls it.
// ---------------------------------------------------------------------------

constexpr double kPowExponents[] = {
    constants::kCp / (constants::kCp - constants::kRd),  // cp/cv
    constants::kRd / constants::kCp};                     // Rd/cp

/// std::pow's contract: NaN equals NaN, everything else bitwise.
bool samePow(double want, double got) {
  return std::isnan(want) ? std::isnan(got)
                          : std::memcmp(&want, &got, sizeof(double)) == 0;
}

/// Mismatches against std::pow and scalar-call count of one tier over
/// every input.
struct PowTally {
  long inputs = 0;
  long mismatches = 0;
  long scalar = 0;
};

/// Streams `total` inputs from `fill` (which writes one chunk) through every
/// tier's pow_row with exponent y, in rows of `row` elements.
std::vector<PowTally> tallyPowRow(
    long total, double y, int row,
    const std::function<void(std::vector<double>&)>& fill) {
  const std::vector<Tier> tiers = availableTiers();
  std::vector<PowTally> tally(tiers.size());
  const std::size_t chunk = static_cast<std::size_t>(row) * 3277;  // ~2^16
  std::vector<double> x(chunk), want(chunk), got(chunk);
  for (long done = 0; done < total; done += static_cast<long>(chunk)) {
    x.resize(static_cast<std::size_t>(
        std::min<long>(static_cast<long>(chunk), total - done)));
    fill(x);
    want.resize(x.size());
    got.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) want[i] = std::pow(x[i], y);
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      const KernelTable& tb = table(tiers[t]);
      for (std::size_t i = 0; i < x.size(); i += static_cast<std::size_t>(row)) {
        const Index n = static_cast<Index>(
            std::min(static_cast<std::size_t>(row), x.size() - i));
        tally[t].scalar += static_cast<long>(
            tb.pow_row(n, x.data() + i, y, got.data() + i));
      }
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (!samePow(want[i], got[i])) {
          if (tally[t].mismatches < 3) {
            ADD_FAILURE() << tierName(tiers[t]) << ": pow(" << std::hexfloat
                          << x[i] << ", " << y << ") = " << got[i]
                          << ", std::pow gives " << want[i]
                          << std::defaultfloat;
          }
          ++tally[t].mismatches;
        }
      }
      tally[t].inputs += static_cast<long>(x.size());
    }
  }
  return tally;
}

void expectNoPowMismatch(const std::vector<PowTally>& tally) {
  const std::vector<Tier> tiers = availableTiers();
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    EXPECT_EQ(tally[t].mismatches, 0)
        << tierName(tiers[t]) << ": of " << tally[t].inputs << " inputs";
  }
}

constexpr long kPowInputs = 1L << 24;

TEST(VectorPow, MatchesStdPowOnTheEosRange) {
  for (const double y : kPowExponents) {
    SCOPED_TRACE(std::string("y=") + std::to_string(y));
    std::mt19937_64 rng(20241);
    std::uniform_real_distribution<double> uniform(1e-3, 4.0);
    const auto tally = tallyPowRow(kPowInputs, y, 20, [&](std::vector<double>& x) {
      for (double& v : x) v = uniform(rng);
    });
    expectNoPowMismatch(tally);
    // Only the AVX-512 tier has vector lanes; there at most 10% of the EOS
    // arguments may fall back to std::pow.
    const std::vector<Tier> tiers = availableTiers();
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      if (tiers[t] != Tier::kAvx512) {
        EXPECT_EQ(tally[t].scalar, tally[t].inputs) << tierName(tiers[t]);
        continue;
      }
      const double share = static_cast<double>(tally[t].scalar) /
                           static_cast<double>(tally[t].inputs);
      EXPECT_LE(share, 0.10) << "fallback share " << share;
    }
  }
}

TEST(VectorPow, MatchesStdPowLogUniformOverTheNormalRange) {
  // Every binade of [2^-1020, 2^1020] equally likely, uniform mantissa.
  for (const double y : kPowExponents) {
    SCOPED_TRACE(std::string("y=") + std::to_string(y));
    std::mt19937_64 rng(20242);
    std::uniform_int_distribution<std::uint64_t> exponent(1023 - 1020,
                                                          1023 + 1019);
    const auto tally = tallyPowRow(kPowInputs, y, 20, [&](std::vector<double>& x) {
      for (double& v : x) {
        v = std::bit_cast<double>((exponent(rng) << 52) |
                                  (rng() & 0x000fffffffffffffULL));
      }
    });
    expectNoPowMismatch(tally);
  }
}

TEST(VectorPow, MatchesStdPowOnBothSidesOfTableEdges) {
  // Each 2^-12 mantissa boundary in 64 binades around 1 and across the
  // range, with its two neighbours below and two above; plus both sides of
  // |y ln x| = 8, where the vector lanes hand over to std::pow.
  for (const double y : kPowExponents) {
    SCOPED_TRACE(std::string("y=") + std::to_string(y));
    std::vector<double> inputs;
    for (int e = -32; e < 32; ++e) {
      const int binade = e * (e < -8 || e > 8 ? 31 : 1);  // dense near 1
      for (std::uint64_t m = 0; m < 4096; ++m) {
        const double edge = std::bit_cast<double>(
            (static_cast<std::uint64_t>(1023 + binade) << 52) | (m << 40));
        double lo = edge, hi = edge;
        inputs.push_back(edge);
        for (int s = 0; s < 2; ++s) {
          lo = std::nextafter(lo, 0.0);
          hi = std::nextafter(hi, 2.0 * hi);
          inputs.push_back(lo);
          inputs.push_back(hi);
        }
      }
    }
    for (const double t : {-8.0, 8.0}) {
      double below = std::exp(t / y), above = below;
      inputs.push_back(below);
      for (int s = 0; s < 64; ++s) {
        below = std::nextafter(below, 0.0);
        above = std::nextafter(above, 2.0 * above);
        inputs.push_back(below);
        inputs.push_back(above);
      }
    }
    std::size_t next = 0;
    const auto tally = tallyPowRow(static_cast<long>(inputs.size()), y, 20,
                                   [&](std::vector<double>& x) {
                                     for (double& v : x) v = inputs[next++];
                                   });
    expectNoPowMismatch(tally);
  }
}

TEST(VectorPow, MatchesStdPowOnSpecialInputsAndRowShapes) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kMinSub = std::numeric_limits<double>::denorm_min();
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  constexpr double kMax = std::numeric_limits<double>::max();
  const std::vector<double> special = {
      0.0, -0.0, kMinSub, 2 * kMinSub, 0.5 * kMinNormal,
      std::nextafter(kMinNormal, 0.0), kMinNormal, 1.0,
      std::nextafter(1.0, 0.0), std::nextafter(1.0, 2.0), kMax, kInf, -kInf,
      kNaN, -kNaN, -1.0, -2.5, -kMinSub, -kMax, 0.25, 4.0, 1e-3};
  for (const double y : kPowExponents) {
    SCOPED_TRACE(std::string("y=") + std::to_string(y));
    // Each special value at every lane position of rows of 1..17 elements,
    // among ordinary EOS arguments, so masked tails and mixed fallback
    // lanes are covered.
    for (int row = 1; row <= 17; ++row) {
      const std::size_t w = static_cast<std::size_t>(row);
      const long count = static_cast<long>(special.size() * w * w);
      std::size_t next = 0;
      // Row r holds special[r / w] at lane r % w.
      const auto tally = tallyPowRow(count, y, row, [&](std::vector<double>& x) {
        for (std::size_t i = 0; i < x.size(); ++i, ++next) {
          const std::size_t r = next / w;
          const std::size_t lane = next % w;
          x[i] = lane == r % w ? special[r / w]
                               : 0.05 + 0.1 * static_cast<double>(lane);
        }
      });
      expectNoPowMismatch(tally);
    }
  }
  // In place (out aliases x), on every tier.
  for (const Tier tier : availableTiers()) {
    std::vector<double> x = special, want(special.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      want[i] = std::pow(x[i], kPowExponents[0]);
    }
    table(tier).pow_row(static_cast<Index>(x.size()), x.data(),
                        kPowExponents[0], x.data());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_TRUE(samePow(want[i], x[i])) << tierName(tier) << " [" << i << "]";
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch mechanics.
// ---------------------------------------------------------------------------

TEST(SimdDispatch, AvailableTiersAscendFromScalarToBest) {
  const auto tiers = availableTiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), Tier::kScalar);
  EXPECT_EQ(tiers.back(), bestTier());
  for (std::size_t i = 1; i < tiers.size(); ++i) {
    EXPECT_LT(static_cast<int>(tiers[i - 1]), static_cast<int>(tiers[i]));
  }
}

TEST(SimdDispatch, ForceTierClampsDownNeverUp) {
  clearForcedTier();
  EXPECT_EQ(activeTier(), bestTier());
  forceTier(Tier::kScalar);
  EXPECT_EQ(activeTier(), Tier::kScalar);
  EXPECT_EQ(table().tier, Tier::kScalar);
  // Forcing past the best available clamps to best, never invents a tier.
  forceTier(Tier::kAvx512);
  EXPECT_LE(static_cast<int>(activeTier()), static_cast<int>(bestTier()));
  clearForcedTier();
  EXPECT_EQ(activeTier(), bestTier());
}

TEST(SimdDispatch, TableReportsItsOwnTier) {
  for (const Tier t : availableTiers()) {
    EXPECT_EQ(table(t).tier, t) << tierName(t);
  }
  // Asking for a tier above best returns the best tier's table.
  EXPECT_EQ(table(Tier::kAvx512).tier, bestTier());
}

TEST(SimdDispatch, EveryTableSlotIsPopulated) {
  for (const Tier t : availableTiers()) {
    const KernelTable& tb = table(t);
    for (int si = 0; si < 2; ++si) {
      EXPECT_NE(tb.primal_normal_flux_edge[si], nullptr);
      EXPECT_NE(tb.calc_coriolis_term[si], nullptr);
      EXPECT_NE(tb.tend_grad_ke_at_edge[si], nullptr);
      EXPECT_NE(tb.div_at_cell[si], nullptr);
      EXPECT_NE(tb.tracer_hori_flux_limiter[si], nullptr);
    }
    const auto both_slots = [](const auto& slots) {
      return std::get<0>(slots) != nullptr && std::get<1>(slots) != nullptr;
    };
    EXPECT_TRUE(both_slots(tb.fused_edge_fluxes));
    EXPECT_TRUE(both_slots(tb.fused_cell_diagnostics));
    EXPECT_TRUE(both_slots(tb.fused_vertex_diagnostics));
    EXPECT_TRUE(both_slots(tb.fused_scalar_tendencies));
    EXPECT_TRUE(both_slots(tb.fused_momentum_tendency));
    EXPECT_TRUE(both_slots(tb.accumulate_flux));
    EXPECT_TRUE(both_slots(tb.rrr_alpha_p));
    EXPECT_NE(tb.rrr_p, nullptr);
    EXPECT_NE(tb.save_cell_start, nullptr);
    EXPECT_NE(tb.save_edge_start, nullptr);
    EXPECT_NE(tb.update_cells, nullptr);
    EXPECT_NE(tb.update_edges, nullptr);
    EXPECT_NE(tb.vert_solve_lanes, nullptr);
    EXPECT_NE(tb.pow_row, nullptr);
  }
}

} // namespace
} // namespace grist::backend::simd
