#include "grist/grid/reorder.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <random>
#include <stdexcept>
#include <utility>

namespace grist::grid {

Permutation bfsPermutation(const HexMesh& m, Index root) {
  if (root < 0 || root >= m.ncells) throw std::out_of_range("bfsPermutation: root");
  Permutation p;
  p.cell.assign(m.ncells, kInvalidIndex);
  p.edge.assign(m.nedges, kInvalidIndex);
  p.vertex.assign(m.nvertices, kInvalidIndex);

  Index next_cell = 0, next_edge = 0, next_vertex = 0;
  std::queue<Index> queue;
  queue.push(root);
  p.cell[root] = next_cell++;
  while (!queue.empty()) {
    const Index c = queue.front();
    queue.pop();
    for (Index k = m.cell_offset[c]; k < m.cell_offset[c + 1]; ++k) {
      const Index e = m.cell_edges[k];
      if (p.edge[e] == kInvalidIndex) p.edge[e] = next_edge++;
      const Index v = m.cell_vertices[k];
      if (p.vertex[v] == kInvalidIndex) p.vertex[v] = next_vertex++;
      const Index nb = m.cell_cells[k];
      if (p.cell[nb] == kInvalidIndex) {
        p.cell[nb] = next_cell++;
        queue.push(nb);
      }
    }
  }
  // The sphere is connected, so everything must have been visited.
  if (next_cell != m.ncells || next_edge != m.nedges || next_vertex != m.nvertices) {
    throw std::logic_error("bfsPermutation: mesh not fully connected");
  }
  return p;
}

Permutation randomPermutation(const HexMesh& m, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Permutation p;
  for (auto [v, n] : {std::pair{&p.cell, m.ncells}, {&p.edge, m.nedges},
                      {&p.vertex, m.nvertices}}) {
    v->resize(n);
    std::iota(v->begin(), v->end(), Index{0});
    std::shuffle(v->begin(), v->end(), rng);
  }
  return p;
}

HexMesh applyPermutation(const HexMesh& m, const Permutation& p) {
  HexMesh out;
  out.level = m.level;
  out.radius = m.radius;
  out.built_connectivity_hash = m.built_connectivity_hash;
  out.ncells = m.ncells;
  out.nedges = m.nedges;
  out.nvertices = m.nvertices;

  // Cells -----------------------------------------------------------------
  out.cell_x.resize(m.ncells);
  out.cell_ll.resize(m.ncells);
  out.cell_area.resize(m.ncells);
  std::vector<Index> degree(m.ncells);
  for (Index c = 0; c < m.ncells; ++c) {
    const Index nc = p.cell[c];
    out.cell_x[nc] = m.cell_x[c];
    out.cell_ll[nc] = m.cell_ll[c];
    out.cell_area[nc] = m.cell_area[c];
    degree[nc] = m.cell_offset[c + 1] - m.cell_offset[c];
  }
  out.cell_offset.assign(m.ncells + 1, 0);
  for (Index c = 0; c < m.ncells; ++c) out.cell_offset[c + 1] = out.cell_offset[c] + degree[c];
  const Index ring = out.cell_offset[m.ncells];
  out.cell_edges.resize(ring);
  out.cell_edge_sign.resize(ring);
  out.cell_vertices.resize(ring);
  out.cell_cells.resize(ring);
  for (Index c = 0; c < m.ncells; ++c) {
    const Index lo = m.cell_offset[c];
    const Index nlo = out.cell_offset[p.cell[c]];
    for (Index k = 0; k < m.cell_offset[c + 1] - lo; ++k) {
      out.cell_edges[nlo + k] = p.edge[m.cell_edges[lo + k]];
      out.cell_edge_sign[nlo + k] = m.cell_edge_sign[lo + k];
      out.cell_vertices[nlo + k] = p.vertex[m.cell_vertices[lo + k]];
      out.cell_cells[nlo + k] = p.cell[m.cell_cells[lo + k]];
    }
  }

  // Edges -----------------------------------------------------------------
  out.edge_cell.resize(m.nedges);
  out.edge_vertex.resize(m.nedges);
  out.edge_x.resize(m.nedges);
  out.edge_ll.resize(m.nedges);
  out.edge_de.resize(m.nedges);
  out.edge_le.resize(m.nedges);
  out.edge_normal.resize(m.nedges);
  out.edge_tangent.resize(m.nedges);
  for (Index e = 0; e < m.nedges; ++e) {
    const Index ne = p.edge[e];
    out.edge_cell[ne] = {p.cell[m.edge_cell[e][0]], p.cell[m.edge_cell[e][1]]};
    out.edge_vertex[ne] = {p.vertex[m.edge_vertex[e][0]], p.vertex[m.edge_vertex[e][1]]};
    out.edge_x[ne] = m.edge_x[e];
    out.edge_ll[ne] = m.edge_ll[e];
    out.edge_de[ne] = m.edge_de[e];
    out.edge_le[ne] = m.edge_le[e];
    out.edge_normal[ne] = m.edge_normal[e];
    out.edge_tangent[ne] = m.edge_tangent[e];
  }

  // Vertices ----------------------------------------------------------------
  out.vtx_x.resize(m.nvertices);
  out.vtx_area.resize(m.nvertices);
  out.vtx_edges.resize(m.nvertices);
  out.vtx_edge_sign.resize(m.nvertices);
  out.vtx_cells.resize(m.nvertices);
  out.vtx_kite_area.resize(m.nvertices);
  for (Index v = 0; v < m.nvertices; ++v) {
    const Index nv = p.vertex[v];
    out.vtx_x[nv] = m.vtx_x[v];
    out.vtx_area[nv] = m.vtx_area[v];
    for (int k = 0; k < 3; ++k) {
      out.vtx_edges[nv][k] = p.edge[m.vtx_edges[v][k]];
      out.vtx_edge_sign[nv][k] = m.vtx_edge_sign[v][k];
      out.vtx_cells[nv][k] = p.cell[m.vtx_cells[v][k]];
      out.vtx_kite_area[nv][k] = m.vtx_kite_area[v][k];
    }
  }
  return out;
}

double indexSpread(const HexMesh& m) {
  if (m.nedges == 0) return 0.0;
  double sum = 0.0;
  for (Index e = 0; e < m.nedges; ++e) {
    sum += std::abs(static_cast<double>(m.edge_cell[e][0]) -
                    static_cast<double>(m.edge_cell[e][1]));
  }
  return sum / static_cast<double>(m.nedges) / static_cast<double>(m.ncells);
}

} // namespace grist::grid
