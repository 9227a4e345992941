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

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "grist/backend/simd.hpp"
#include "grist/common/math.hpp"
#include "grist/dycore/kernels.hpp"
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

/// The SIMD-table equivalent of runKernelPhases: same entity counts, same
/// constants, outputs land in `d`.
void runSimdKernel(SimKernel kernel, const HexMesh& mesh,
                   const TrskWeights& trsk, NsMode ns, const KernelTable& tb,
                   SimKernelData& d) {
  const int si = nsIndex(ns);
  const int nlev = d.nlev;
  switch (kernel) {
    case SimKernel::kPrimalNormalFluxEdge:
      tb.primal_normal_flux_edge[si](mesh, d.nedges, nlev, d.delp.data(),
                                     d.u.data(), d.flux.data());
      return;
    case SimKernel::kComputeRrr:
      // The table carries compute_rrr's step-facing part only: alpha and p.
      tb.rrr_alpha_p[si](nullptr, d.ncells, nlev, d.delp.data(),
                         d.theta.data(), d.phi.data(), d.alpha.data(),
                         d.p.data());
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
    case SimKernel::kFusedEdgeFluxes:
      tb.fused_edge_fluxes[si](mesh, d.nedges, nlev, d.delp.data(),
                               d.u.data(), d.flux.data(), d.uflux.data());
      return;
    case SimKernel::kFusedCellDiagnostics:
      tb.fused_cell_diagnostics[si](mesh, d.ncells, nlev, d.flux.data(),
                                    d.uflux.data(), d.u.data(),
                                    d.div_flux.data(), d.div_u.data(),
                                    d.ke.data());
      return;
    case SimKernel::kFusedVertexDiagnostics:
      tb.fused_vertex_diagnostics[si](mesh, d.nvertices, nlev, d.u.data(),
                                      d.delp.data(), constants::kOmega,
                                      d.vor.data(), d.qv.data());
      return;
    case SimKernel::kFusedScalarTendencies:
      tb.fused_scalar_tendencies[si](mesh, d.ncells, nlev, d.flux.data(),
                                     d.theta.data(), d.delp.data(),
                                     d.div_flux.data(), kNuTheta,
                                     d.delp_tend.data(), d.thetam_tend.data());
      return;
    case SimKernel::kFusedMomentumTendency:
      tb.fused_momentum_tendency[si](
          mesh, trsk, d.nedges, nlev, d.ke.data(), d.qv.data(), d.flux.data(),
          d.phi.data(), d.alpha.data(), d.p.data(), d.div_u.data(),
          d.vor.data(), kNuDiv, kNuVor, d.tend_u.data());
      return;
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
        SimKernelData ref = makeSimKernelData(*mesh_, nlev);
        runKernelOnData(kernel, *mesh_, *trsk_, ns, ExecBackend::kHost, ref);
        for (const Tier tier : availableTiers()) {
          SCOPED_TRACE(std::string(kernelName(kernel)) + " ns=" +
                       (ns == NsMode::kSingle ? "single" : "double") +
                       " nlev=" + std::to_string(nlev) + " tier=" +
                       tierName(tier));
          SimKernelData got = makeSimKernelData(*mesh_, nlev);
          runSimdKernel(kernel, *mesh_, *trsk_, ns, table(tier), got);
          expectDataBitwiseEqual(ref, got, kernel != SimKernel::kComputeRrr);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The dycore step's own entries: EOS without Exner/pi_mid, RK3 save/update,
// flux accumulation and the member-lane implicit solve. References are the
// Host drivers (computeRrr, vertImplicitSolver) and plain scalar loops; the
// band-list forms must touch exactly the listed entities.
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

/// Host computeRrr<NS>'s alpha and p for d's state.
template <precision::NsReal NS>
void hostAlphaP(const SimKernelData& d, std::vector<double>& alpha,
                std::vector<double>& p) {
  const std::size_t cn = d.delp.size();
  std::vector<double> exner(cn), pi_mid(cn);
  alpha.assign(cn, 0.0);
  p.assign(cn, 0.0);
  dycore::kernels::computeRrr<NS>(d.ncells, d.nlev, kPtop, d.delp.data(),
                                  d.theta.data(), d.phi.data(), alpha.data(),
                                  p.data(), exner.data(), pi_mid.data());
}

TEST_F(SimdParityTest, EosEntriesMatchHostComputeRrrAlphaAndP) {
  for (const int nlev : kStepNlevSweep) {
    const SimKernelData d = makeSimKernelData(*mesh_, nlev);
    const Index n = d.ncells;
    const std::size_t cn = d.delp.size();
    // Indexed by nsIndex(): [0] = double, [1] = float.
    std::vector<double> ref_alpha[2], ref_p[2];
    hostAlphaP<double>(d, ref_alpha[0], ref_p[0]);
    hostAlphaP<float>(d, ref_alpha[1], ref_p[1]);
    const std::vector<Index> band = sparseBand(n);
    const std::vector<char> in = bandMask(band, n);
    const std::vector<double> sentinel(cn, -7.0);
    for (const Tier tier : availableTiers()) {
      const KernelTable& tb = table(tier);
      for (const NsMode ns : {NsMode::kDouble, NsMode::kSingle}) {
        const int si = nsIndex(ns);
        SCOPED_TRACE(std::string("nlev=") + std::to_string(nlev) + " tier=" +
                     tierName(tier) + " ns=" + (si ? "single" : "double"));
        std::vector<double> alpha(sentinel), p(sentinel);
        tb.rrr_alpha_p[si](nullptr, n, nlev, d.delp.data(), d.theta.data(),
                           d.phi.data(), alpha.data(), p.data());
        EXPECT_TRUE(bitwiseEqual(ref_alpha[si], alpha, "alpha"));
        EXPECT_TRUE(bitwiseEqual(ref_p[si], p, "p"));
        alpha = sentinel;
        p = sentinel;
        tb.rrr_alpha_p[si](band.data(), static_cast<Index>(band.size()), nlev,
                           d.delp.data(), d.theta.data(), d.phi.data(),
                           alpha.data(), p.data());
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
      tb.accumulate_flux(ne, nlev, d.uflux.data(), acc.data());
      EXPECT_TRUE(bitwiseEqual(ref_acc, acc, "acc"));
    }
  }
}

TEST_F(SimdParityTest, MemberLaneSolveMatchesHostColumnSolvePerMember) {
  namespace dk = dycore::kernels;
  for (const int nlev : kStepNlevSweep) {
    const SimKernelData d = makeSimKernelData(*mesh_, nlev);
    const Index n = d.ncells;
    const std::size_t cn = d.delp.size();
    const std::vector<Index> band = sparseBand(n);
    const std::vector<char> in = bandMask(band, n);
    for (const int members : {1, 3, 9}) {  // 9 spans two lane blocks
      // Distinct physical members: shifted theta, wiggled interior phi, a
      // nonzero w; p from the Host EOS.
      std::vector<std::vector<double>> delp(members, d.delp),
          theta(members, d.theta), p(members, std::vector<double>(cn)),
          w(members, d.w), phi(members, d.phi);
      for (int m = 0; m < members; ++m) {
        for (std::size_t i = 0; i < cn; ++i) theta[m][i] += 0.5 * m;
        for (std::size_t i = 0; i < phi[m].size(); ++i) {
          w[m][i] = 0.2 * std::sin(0.1 * i + m);
          if (i % (nlev + 1) != 0 && i % (nlev + 1) != static_cast<std::size_t>(nlev)) {
            phi[m][i] += 30.0 * std::sin(0.05 * i + m);
          }
        }
        std::vector<double> alpha(cn), exner(cn), pi_mid(cn);
        dk::computeRrr<double>(n, nlev, kPtop, delp[m].data(), theta[m].data(),
                               phi[m].data(), alpha.data(), p[m].data(),
                               exner.data(), pi_mid.data());
      }
      std::vector<std::vector<double>> ref_w(w), ref_phi(phi);
      for (int m = 0; m < members; ++m) {
        dk::vertImplicitSolver(n, nlev, kDt, kPtop, delp[m].data(),
                               theta[m].data(), p[m].data(), ref_w[m].data(),
                               ref_phi[m].data(), kWDampTau);
      }
      for (const Tier tier : availableTiers()) {
        SCOPED_TRACE(std::string("nlev=") + std::to_string(nlev) + " M=" +
                     std::to_string(members) + " tier=" + tierName(tier));
        for (const bool banded : {false, true}) {
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
              banded ? band.data() : nullptr,
              banded ? static_cast<Index>(band.size()) : n, members, nlev, kDt,
              kPtop, dp_ptr.data(), th_ptr.data(), p_ptr.data(), w_ptr.data(),
              phi_ptr.data(), kWDampTau);
          for (int m = 0; m < members; ++m) {
            if (banded) {
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
      EXPECT_NE(tb.rrr_alpha_p[si], nullptr);
      EXPECT_NE(tb.calc_coriolis_term[si], nullptr);
      EXPECT_NE(tb.tend_grad_ke_at_edge[si], nullptr);
      EXPECT_NE(tb.div_at_cell[si], nullptr);
      EXPECT_NE(tb.tracer_hori_flux_limiter[si], nullptr);
      EXPECT_NE(tb.fused_edge_fluxes[si], nullptr);
      EXPECT_NE(tb.fused_cell_diagnostics[si], nullptr);
      EXPECT_NE(tb.fused_vertex_diagnostics[si], nullptr);
      EXPECT_NE(tb.fused_scalar_tendencies[si], nullptr);
      EXPECT_NE(tb.fused_momentum_tendency[si], nullptr);
    }
    EXPECT_NE(tb.rrr_p, nullptr);
    EXPECT_NE(tb.save_cell_start, nullptr);
    EXPECT_NE(tb.save_edge_start, nullptr);
    EXPECT_NE(tb.update_cells, nullptr);
    EXPECT_NE(tb.update_edges, nullptr);
    EXPECT_NE(tb.accumulate_flux, nullptr);
    EXPECT_NE(tb.vert_solve_lanes, nullptr);
  }
}

} // namespace
} // namespace grist::backend::simd
