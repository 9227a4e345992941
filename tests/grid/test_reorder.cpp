#include "grist/grid/reorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace grist::grid {
namespace {

// Simple layer-free divergence used as a physics-invariance probe.
std::vector<double> divergence(const HexMesh& m, const std::vector<double>& u_edge) {
  std::vector<double> div(m.ncells, 0.0);
  for (Index c = 0; c < m.ncells; ++c) {
    for (Index k = m.cell_offset[c]; k < m.cell_offset[c + 1]; ++k) {
      const Index e = m.cell_edges[k];
      div[c] += m.cell_edge_sign[k] * m.edge_le[e] * u_edge[e];
    }
    div[c] /= m.cell_area[c];
  }
  return div;
}

TEST(Reorder, PermutationIsBijective) {
  // BFS over a shuffled mesh, so the permutation is not the identity.
  const HexMesh built = buildHexMesh(3);
  const HexMesh mesh = applyPermutation(built, randomPermutation(built, 5));
  const Permutation p = bfsPermutation(mesh);
  for (const auto* v : {&p.cell, &p.edge, &p.vertex}) {
    std::vector<Index> sorted(*v);
    std::sort(sorted.begin(), sorted.end());
    for (Index i = 0; i < static_cast<Index>(sorted.size()); ++i) EXPECT_EQ(sorted[i], i);
  }
}

TEST(Reorder, GeometryCarriesOver) {
  const HexMesh mesh = buildHexMesh(3);
  const Permutation p = randomPermutation(mesh, 11);
  const HexMesh re = applyPermutation(mesh, p);
  ASSERT_EQ(re.ncells, mesh.ncells);
  ASSERT_EQ(re.nedges, mesh.nedges);
  ASSERT_EQ(re.nvertices, mesh.nvertices);
  double total_old = std::accumulate(mesh.cell_area.begin(), mesh.cell_area.end(), 0.0);
  double total_new = std::accumulate(re.cell_area.begin(), re.cell_area.end(), 0.0);
  EXPECT_NEAR(total_old, total_new, 1e-6 * total_old);
  for (Index c = 0; c < mesh.ncells; ++c) {
    EXPECT_DOUBLE_EQ(mesh.cell_area[c], re.cell_area[p.cell[c]]);
    EXPECT_EQ(mesh.cellDegree(c), re.cellDegree(p.cell[c]));
  }
  for (Index e = 0; e < mesh.nedges; ++e) {
    EXPECT_DOUBLE_EQ(mesh.edge_de[e], re.edge_de[p.edge[e]]);
    EXPECT_DOUBLE_EQ(mesh.edge_le[e], re.edge_le[p.edge[e]]);
  }
}

TEST(Reorder, OperatorsInvariantUnderRenumbering) {
  const HexMesh mesh = buildHexMesh(3);
  const Permutation p = randomPermutation(mesh, 11);
  const HexMesh re = applyPermutation(mesh, p);

  const Vec3 v{11, -4, 6};
  std::vector<double> u_old(mesh.nedges), u_new(re.nedges);
  for (Index e = 0; e < mesh.nedges; ++e) {
    u_old[e] = v.dot(mesh.edge_normal[e]);
    u_new[p.edge[e]] = v.dot(re.edge_normal[p.edge[e]]);
  }
  const std::vector<double> div_old = divergence(mesh, u_old);
  const std::vector<double> div_new = divergence(re, u_new);
  for (Index c = 0; c < mesh.ncells; ++c) {
    EXPECT_NEAR(div_old[c], div_new[p.cell[c]], 1e-18);
  }
}

TEST(Reorder, BfsImprovesIndexLocality) {
  // The paper's section 3.1.3 claim: BFS-sorted indices raise the cache hit
  // rate. The measurable analog is a smaller normalized neighbor-id spread
  // than a numbering with no locality at all.
  const HexMesh bfs = buildHexMesh(5);
  const HexMesh shuffled = applyPermutation(bfs, randomPermutation(bfs, 20250301));
  EXPECT_LT(indexSpread(bfs), indexSpread(shuffled));
  // BFS should cut the spread substantially, not marginally.
  EXPECT_LT(indexSpread(bfs), 0.5 * indexSpread(shuffled));
}

TEST(Reorder, BuiltNumberingIsBfs) {
  // buildHexMesh already returns the BFS numbering, so BFS-renumbering it
  // again changes nothing.
  for (int level = 0; level <= 5; ++level) {
    const HexMesh mesh = buildHexMesh(level);
    const Permutation p = bfsPermutation(mesh);
    for (const auto* v : {&p.cell, &p.edge, &p.vertex}) {
      for (Index i = 0; i < static_cast<Index>(v->size()); ++i) {
        ASSERT_EQ((*v)[i], i) << "level " << level;
      }
    }
  }
}

TEST(Reorder, BuiltNumberingIsPinned) {
  // Checkpoints record the numbering relative to the built one, so a change
  // to the built numbering itself is invisible to them. If this fails, bump
  // io::Snapshot::kFormatVersion (older files would restore into the wrong
  // cells) and then update the hashes.
  const std::uint64_t expected[] = {
      0x98fe2ee39a4d18b9ull,
      0xc5e2b0ea42df83acull,
      0x4ce6d302a94d1b6aull,
      0xa47d96de36c1b0cfull,
      0x4d885f3856ef49d4ull};
  for (int level = 0; level <= 4; ++level) {
    const HexMesh mesh = buildHexMesh(level);
    EXPECT_EQ(mesh.built_connectivity_hash, connectivityHash(mesh));
    EXPECT_EQ(connectivityHash(mesh), expected[level]) << "level " << level;
  }
}

TEST(Reorder, NumberingFingerprintIsRelativeToTheBuiltNumbering) {
  const HexMesh built = buildHexMesh(3);
  EXPECT_EQ(numberingFingerprint(built), 0u);
  const Permutation p = randomPermutation(built, 3);
  const HexMesh shuffled = applyPermutation(built, p);
  EXPECT_NE(numberingFingerprint(shuffled), 0u);
  EXPECT_NE(numberingFingerprint(shuffled),
            numberingFingerprint(applyPermutation(built, randomPermutation(built, 4))));
  // Relabeling back restores the built numbering.
  Permutation inv;
  for (auto [fwd, back] : {std::pair{&p.cell, &inv.cell}, {&p.edge, &inv.edge},
                           {&p.vertex, &inv.vertex}}) {
    back->resize(fwd->size());
    for (Index i = 0; i < static_cast<Index>(fwd->size()); ++i) (*back)[(*fwd)[i]] = i;
  }
  EXPECT_EQ(numberingFingerprint(applyPermutation(shuffled, inv)), 0u);
}

TEST(Reorder, RandomPermutationIsSeededBijection) {
  const HexMesh mesh = buildHexMesh(2);
  const Permutation a = randomPermutation(mesh, 7);
  const Permutation b = randomPermutation(mesh, 7);
  EXPECT_EQ(a.cell, b.cell);
  EXPECT_EQ(a.edge, b.edge);
  EXPECT_EQ(a.vertex, b.vertex);
  EXPECT_NE(a.cell, randomPermutation(mesh, 8).cell);
  for (const auto* v : {&a.cell, &a.edge, &a.vertex}) {
    std::vector<Index> sorted(*v);
    std::sort(sorted.begin(), sorted.end());
    for (Index i = 0; i < static_cast<Index>(sorted.size()); ++i) EXPECT_EQ(sorted[i], i);
  }
}

TEST(Reorder, RootOutOfRangeThrows) {
  const HexMesh mesh = buildHexMesh(1);
  EXPECT_THROW(bfsPermutation(mesh, -1), std::out_of_range);
  EXPECT_THROW(bfsPermutation(mesh, mesh.ncells), std::out_of_range);
}

} // namespace
} // namespace grist::grid
