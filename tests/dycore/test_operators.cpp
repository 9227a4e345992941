#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "grist/backend/kernels.hpp"
#include "grist/grid/hex_mesh.hpp"

namespace grist::dycore {
namespace {

using grid::HexMesh;
namespace bk = backend::kernels;
using backend::hostMut;
using backend::hostSweep;
using backend::hostView;

// Normal velocities from a dual-vertex streamfunction: u(e) = dpsi/le.
// This is the discrete "curl" of psi; the FV divergence of it must vanish
// IDENTICALLY (mimetic property), because every vertex value enters each
// cell's circulation twice with opposite signs.
std::vector<double> curlOfStreamfunction(const HexMesh& m,
                                         const std::vector<double>& psi) {
  std::vector<double> u(m.nedges);
  for (Index e = 0; e < m.nedges; ++e) {
    u[e] = (psi[m.edge_vertex[e][1]] - psi[m.edge_vertex[e][0]]) / m.edge_le[e];
  }
  return u;
}

// Normal velocities from a cell potential: u(e) = dchi/de (discrete
// gradient). The circulation of a gradient around any dual vertex must
// vanish identically.
std::vector<double> gradOfPotential(const HexMesh& m, const std::vector<double>& chi) {
  std::vector<double> u(m.nedges);
  for (Index e = 0; e < m.nedges; ++e) {
    u[e] = (chi[m.edge_cell[e][1]] - chi[m.edge_cell[e][0]]) / m.edge_de[e];
  }
  return u;
}

class MimeticIdentities : public ::testing::TestWithParam<int> {
 protected:
  HexMesh mesh_ = grid::buildHexMesh(GetParam());
};

TEST_P(MimeticIdentities, DivergenceOfCurlIsExactlyZero) {
  std::vector<double> psi(mesh_.nvertices);
  for (Index v = 0; v < mesh_.nvertices; ++v) {
    psi[v] = std::sin(3.0 * mesh_.vtx_x[v].x) + mesh_.vtx_x[v].z * mesh_.vtx_x[v].y;
  }
  const std::vector<double> u = curlOfStreamfunction(mesh_, psi);
  // flux = le * u (unit thickness); FV divergence per cell.
  std::vector<double> flux(mesh_.nedges), div(mesh_.ncells);
  for (Index e = 0; e < mesh_.nedges; ++e) flux[e] = mesh_.edge_le[e] * u[e];
  const auto mv = backend::makeHostMeshView(mesh_);
  hostSweep(mesh_.ncells, [&](auto& ctx, Index c) {
    bk::divAtCell<double>(ctx, c, mv, 1, hostView(flux.data()),
                          hostMut(div.data()));
  });
  for (Index c = 0; c < mesh_.ncells; ++c) {
    // Scale-relative machine zero.
    ASSERT_LT(std::abs(div[c]) * mesh_.cell_area[c], 1e-7)
        << "cell " << c;  // sums of O(1e6)-sized terms cancel to rounding
  }
}

TEST_P(MimeticIdentities, CirculationOfGradientIsExactlyZero) {
  std::vector<double> chi(mesh_.ncells);
  for (Index c = 0; c < mesh_.ncells; ++c) {
    chi[c] = std::cos(2.0 * mesh_.cell_x[c].y) + mesh_.cell_x[c].z;
  }
  const std::vector<double> u = gradOfPotential(mesh_, chi);
  std::vector<double> vor(mesh_.nvertices);
  const auto mv = backend::makeHostMeshView(mesh_);
  hostSweep(mesh_.nvertices, [&](auto& ctx, Index v) {
    bk::vorticityAtVertex<double>(ctx, v, mv, 1, hostView(u.data()),
                                  hostMut(vor.data()));
  });
  for (Index v = 0; v < mesh_.nvertices; ++v) {
    ASSERT_LT(std::abs(vor[v]) * mesh_.vtx_area[v], 1e-7) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, MimeticIdentities, ::testing::Values(2, 3, 4));

// L2 error of the FV divergence against the analytic Laplacian of
// chi = sin(lat): div(grad chi) = -2 sin(lat) / R^2.
double divergenceError(int level) {
  const HexMesh m = grid::buildHexMesh(level);
  const double r = m.radius;
  std::vector<double> chi(m.ncells);
  for (Index c = 0; c < m.ncells; ++c) chi[c] = std::sin(m.cell_ll[c].lat) * r;
  // u = grad chi (de is already in meters, chi scaled by R so u is O(1)).
  std::vector<double> u = gradOfPotential(m, chi);
  std::vector<double> flux(m.nedges), div(m.ncells);
  for (Index e = 0; e < m.nedges; ++e) flux[e] = m.edge_le[e] * u[e];
  const auto mv = backend::makeHostMeshView(m);
  hostSweep(m.ncells, [&](auto& ctx, Index c) {
    bk::divAtCell<double>(ctx, c, mv, 1, hostView(flux.data()),
                          hostMut(div.data()));
  });
  double err2 = 0, ref2 = 0, area = 0;
  for (Index c = 0; c < m.ncells; ++c) {
    const double exact = -2.0 * std::sin(m.cell_ll[c].lat) / r;
    err2 += (div[c] - exact) * (div[c] - exact) * m.cell_area[c];
    ref2 += exact * exact * m.cell_area[c];
    area += m.cell_area[c];
  }
  (void)area;
  return std::sqrt(err2 / ref2);
}

TEST(OperatorConvergence, DivGradApproachesLaplacianWithRefinement) {
  const double e3 = divergenceError(3);
  const double e4 = divergenceError(4);
  const double e5 = divergenceError(5);
  EXPECT_LT(e4, e3);
  EXPECT_LT(e5, e4);
  // At least first-order convergence on the raw bisection grid (the
  // scheme is ~2nd order on smooth, centroidal regions).
  EXPECT_GT(e3 / e5, 3.0);
  EXPECT_LT(e5, 0.1);
}

TEST(OperatorConvergence, VorticityOfSolidBodyRotation) {
  // Solid-body rotation about the pole: V = Omega x r; zeta = 2*Omega
  // everywhere. Verified through the actual vorticity kernel.
  const HexMesh m = grid::buildHexMesh(4);
  const double omega = 1e-5;
  std::vector<double> u(m.nedges);
  for (Index e = 0; e < m.nedges; ++e) {
    const Vec3 vel = Vec3{0, 0, omega}.cross(m.edge_x[e]) * m.radius;
    u[e] = vel.dot(m.edge_normal[e]);
  }
  std::vector<double> vor(m.nvertices);
  const auto mv = backend::makeHostMeshView(m);
  hostSweep(m.nvertices, [&](auto& ctx, Index v) {
    bk::vorticityAtVertex<double>(ctx, v, mv, 1, hostView(u.data()),
                                  hostMut(vor.data()));
  });
  for (Index v = 0; v < m.nvertices; ++v) {
    // zeta = 2 omega sin(lat)... for rotation about z the RELATIVE
    // vorticity on the sphere surface is 2 omega sin(lat).
    const double exact = 2.0 * omega * m.vtx_x[v].z;
    ASSERT_NEAR(vor[v], exact, 0.05 * 2.0 * omega + 1e-12) << "vertex " << v;
  }
}

} // namespace
} // namespace grist::dycore
