// The unstructured hexagonal C-grid that drives the GRIST dynamical core
// (paper section 3.1.2): primal cells are hexagons (12 pentagons), dual
// cells are triangles, and normal velocities live on the shared edges.
//
// Conventions used throughout the dycore:
//  - edge normal n_e points from edge_cell[e][0] to edge_cell[e][1];
//  - edge tangent t_e = r x n_e (90 deg counterclockwise seen from outside),
//    and edge_vertex[e] is ordered so t_e points from vertex[0] to vertex[1];
//  - per-cell edge/vertex rings are counterclockwise; cell_vertices[k] lies
//    between cell_edges[k] and cell_edges[k+1 mod n];
//  - divergence at cell i:   (1/A_i) sum_e  s_{i,e} le_e u_e,
//    with s_{i,e} = +1 when n_e points out of i;
//  - vorticity at vertex v:  (1/A_v) sum_e  c_{v,e} de_e u_e,
//    with c_{v,e} = +1 when n_e is aligned with ccw circulation around v.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "grist/common/math.hpp"
#include "grist/common/types.hpp"
#include "grist/grid/tri_mesh.hpp"

namespace grist::grid {

struct HexMesh {
  int level = 0;
  Index ncells = 0;
  Index nedges = 0;
  Index nvertices = 0;

  // ---- cells (primal hexagons/pentagons) ----
  std::vector<Vec3> cell_x;          ///< cell center (unit sphere)
  std::vector<LonLat> cell_ll;
  std::vector<double> cell_area;     ///< m^2, == sum of the cell's kites
  std::vector<Index> cell_offset;    ///< CSR offsets, size ncells+1
  std::vector<Index> cell_edges;     ///< ccw edge ring (CSR payload)
  std::vector<double> cell_edge_sign;///< +1 when edge normal points outward
  std::vector<Index> cell_vertices;  ///< ccw dual-vertex ring (CSR payload)
  std::vector<Index> cell_cells;     ///< neighbor across cell_edges[k]

  // ---- edges ----
  std::vector<std::array<Index, 2>> edge_cell;
  std::vector<std::array<Index, 2>> edge_vertex;
  std::vector<Vec3> edge_x;          ///< crossing of primal and dual arcs
  std::vector<LonLat> edge_ll;
  std::vector<double> edge_de;       ///< m, distance between cell centers
  std::vector<double> edge_le;       ///< m, distance between dual vertices
  std::vector<Vec3> edge_normal;     ///< unit, tangent to sphere
  std::vector<Vec3> edge_tangent;    ///< r x n

  // ---- vertices (dual triangles) ----
  std::vector<Vec3> vtx_x;
  std::vector<double> vtx_area;      ///< m^2, == sum of the vertex's 3 kites
  std::vector<std::array<Index, 3>> vtx_edges;
  std::vector<std::array<double, 3>> vtx_edge_sign;  ///< circulation sign c_{v,e}
  std::vector<std::array<Index, 3>> vtx_cells;       ///< cell opposite nothing; corner cells
  std::vector<std::array<double, 3>> vtx_kite_area;  ///< R_{i,v} per corner cell

  // Convenience accessors -------------------------------------------------
  int cellDegree(Index cell) const {
    return static_cast<int>(cell_offset[cell + 1] - cell_offset[cell]);
  }
  /// Sphere radius the geometry was scaled to (m).
  double radius = constants::kEarthRadius;
  /// Connectivity hash (see numberingFingerprint) of this mesh as
  /// buildHexMesh returned it; applyPermutation carries it over. 0 for a
  /// mesh assembled by other means.
  std::uint64_t built_connectivity_hash = 0;

  /// Mean and extreme grid spacings (m), from edge_de.
  double meanSpacing() const;
  double minSpacing() const;
  double maxSpacing() const;
};

/// Build the hexagonal C-grid as the Voronoi dual of the level-L icosahedral
/// triangulation, on a sphere of radius `radius` (meters). Small-planet
/// idealized tests pass a reduced radius.
///
/// Entities come in breadth-first locality order (paper section 3.1.3):
/// cells in BFS order from cell 0, edges and dual vertices in the order that
/// BFS first touches them (grid/reorder.hpp). Stencil neighbours therefore
/// sit close together in memory. This is the only numbering any run uses.
HexMesh buildHexMesh(int level, double radius = constants::kEarthRadius);

/// FNV-1a hash of the mesh connectivity (cell_offset, cell_cells, edge_cell,
/// edge_vertex). Two meshes hash equal only if they number every entity the
/// same way.
std::uint64_t connectivityHash(const HexMesh& mesh);

/// How `mesh` is numbered relative to the numbering buildHexMesh gave it:
/// connectivityHash(mesh) XOR mesh.built_connectivity_hash. 0 for a mesh in
/// its built numbering, nonzero for a relabeled one. Checkpoints record it
/// because they store values by index. The built numbering itself is pinned
/// by a connectivity-hash golden test; changing it must bump
/// io::Snapshot::kFormatVersion.
std::uint64_t numberingFingerprint(const HexMesh& mesh);

/// Adjacency graph over cells (CSR), used by the partitioner and by the
/// BFS index reordering.
struct CellGraph {
  std::vector<Index> offset;
  std::vector<Index> neighbor;
};
CellGraph cellGraph(const HexMesh& mesh);

} // namespace grist::grid
