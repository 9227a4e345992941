// Breadth-first index reordering (paper section 3.1.3): GRIST maps the
// unstructured grid through indirect addressing and optimizes the index
// sequence with BFS to raise cache hit rates. We renumber cells by BFS over
// the neighbor graph and renumber edges/vertices in first-touch order.
// buildHexMesh applies this to every mesh it returns, so a BFS permutation of
// a built mesh is the identity; tests and the ablation bench use
// applyPermutation to relabel meshes on purpose.
#pragma once

#include <cstdint>
#include <vector>

#include "grist/common/types.hpp"
#include "grist/grid/hex_mesh.hpp"

namespace grist::grid {

/// old-index -> new-index permutations for each entity kind.
struct Permutation {
  std::vector<Index> cell;
  std::vector<Index> edge;
  std::vector<Index> vertex;
};

/// BFS permutation rooted at `root`.
Permutation bfsPermutation(const HexMesh& mesh, Index root = 0);

/// Uniformly shuffled permutation, reproducible from `seed`: a numbering
/// with no locality, which the locality ablation and the numbering tests
/// relabel meshes with.
Permutation randomPermutation(const HexMesh& mesh, std::uint64_t seed);

/// Mesh with all entity arrays renumbered by `perm`.
HexMesh applyPermutation(const HexMesh& mesh, const Permutation& perm);

/// Locality figure of merit: mean |new(edge_cell[0]) - new(edge_cell[1])|
/// over edges, normalized by ncells; lower is more cache-friendly.
double indexSpread(const HexMesh& mesh);

} // namespace grist::grid
