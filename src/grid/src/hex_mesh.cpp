#include "grist/grid/hex_mesh.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "grist/grid/reorder.hpp"

namespace grist::grid {
namespace {

// Local tangent-plane basis at unit vector r, robust near the poles.
struct Basis {
  Vec3 east, north;
};
Basis basisAt(const Vec3& r) {
  const Vec3 helper = std::abs(r.z) < 0.9 ? Vec3{0, 0, 1} : Vec3{1, 0, 0};
  const Vec3 east = helper.cross(r).normalized();
  return {east, r.cross(east)};
}

// Intersection of great-circle arcs (a0,a1) and (b0,b1), picked on the side
// of the arc midpoints. Falls back to the (a0,a1) midpoint if degenerate.
Vec3 arcIntersection(const Vec3& a0, const Vec3& a1, const Vec3& b0, const Vec3& b1) {
  const Vec3 na = a0.cross(a1);
  const Vec3 nb = b0.cross(b1);
  Vec3 dir = na.cross(nb);
  const double len = dir.norm();
  const Vec3 mid = (a0 + a1).normalized();
  if (len < 1e-14) return mid;
  dir = dir * (1.0 / len);
  if (dir.dot(mid) < 0) dir = dir * -1.0;
  return dir;
}

} // namespace

double HexMesh::meanSpacing() const {
  if (edge_de.empty()) return 0;
  return std::accumulate(edge_de.begin(), edge_de.end(), 0.0) /
         static_cast<double>(edge_de.size());
}
double HexMesh::minSpacing() const {
  return edge_de.empty() ? 0 : *std::min_element(edge_de.begin(), edge_de.end());
}
double HexMesh::maxSpacing() const {
  return edge_de.empty() ? 0 : *std::max_element(edge_de.begin(), edge_de.end());
}

namespace {

// The Voronoi dual in the numbering the icosahedral bisection produces:
// cells are triangulation vertices, edges and dual vertices follow the
// triangulation's edges and triangles. Neighbour ids are scattered across
// the whole array (see buildHexMesh).
HexMesh buildBisectionHexMesh(int level, double radius) {
  if (radius <= 0) throw std::invalid_argument("buildHexMesh: radius must be positive");
  const TriMesh tri = buildTriMesh(level);
  const std::vector<TriEdge> tedges = extractEdges(tri);

  HexMesh m;
  m.level = level;
  m.radius = radius;
  m.ncells = static_cast<Index>(tri.vertices.size());
  m.nedges = static_cast<Index>(tedges.size());
  m.nvertices = static_cast<Index>(tri.triangles.size());

  // ---- dual vertices: spherical circumcenters of the triangles ----
  m.vtx_x.resize(m.nvertices);
#pragma omp parallel for schedule(static)
  for (Index t = 0; t < m.nvertices; ++t) {
    const auto& tr = tri.triangles[t];
    m.vtx_x[t] = sphericalCircumcenter(tri.vertices[tr[0]], tri.vertices[tr[1]],
                                       tri.vertices[tr[2]]);
  }

  // ---- cells ----
  m.cell_x = tri.vertices;
  m.cell_ll.resize(m.ncells);
#pragma omp parallel for schedule(static)
  for (Index c = 0; c < m.ncells; ++c) m.cell_ll[c] = toLonLat(m.cell_x[c]);

  // ---- edges: endpoints, geometry, orientation ----
  m.edge_cell.resize(m.nedges);
  m.edge_vertex.resize(m.nedges);
  m.edge_x.resize(m.nedges);
  m.edge_ll.resize(m.nedges);
  m.edge_de.resize(m.nedges);
  m.edge_le.resize(m.nedges);
  m.edge_normal.resize(m.nedges);
  m.edge_tangent.resize(m.nedges);
#pragma omp parallel for schedule(static)
  for (Index e = 0; e < m.nedges; ++e) {
    const TriEdge& te = tedges[e];
    const Vec3& c0 = m.cell_x[te.v0];
    const Vec3& c1 = m.cell_x[te.v1];
    const Vec3& d0 = m.vtx_x[te.t0];
    const Vec3& d1 = m.vtx_x[te.t1];
    m.edge_cell[e] = {te.v0, te.v1};
    const Vec3 x = arcIntersection(c0, c1, d0, d1);
    m.edge_x[e] = x;
    m.edge_ll[e] = toLonLat(x);
    m.edge_de[e] = greatCircleDistance(c0, c1, radius);
    m.edge_le[e] = greatCircleDistance(d0, d1, radius);
    // Normal: direction c0 -> c1 projected onto the tangent plane at x.
    Vec3 n = (c1 - c0) - x * x.dot(c1 - c0);
    n = n.normalized();
    m.edge_normal[e] = n;
    const Vec3 t = x.cross(n);  // r x n: 90 deg ccw
    m.edge_tangent[e] = t;
    // Order the dual vertices so the tangent points vertex[0] -> vertex[1].
    if ((d1 - d0).dot(t) >= 0) {
      m.edge_vertex[e] = {te.t0, te.t1};
    } else {
      m.edge_vertex[e] = {te.t1, te.t0};
    }
  }

  // ---- per-cell incident edge lists (counterclockwise) ----
  std::vector<int> degree(m.ncells, 0);
  for (Index e = 0; e < m.nedges; ++e) {
    ++degree[m.edge_cell[e][0]];
    ++degree[m.edge_cell[e][1]];
  }
  m.cell_offset.assign(m.ncells + 1, 0);
  for (Index c = 0; c < m.ncells; ++c) m.cell_offset[c + 1] = m.cell_offset[c] + degree[c];
  const Index ring = m.cell_offset[m.ncells];
  m.cell_edges.assign(ring, kInvalidIndex);
  {
    std::vector<Index> fill(m.cell_offset.begin(), m.cell_offset.end() - 1);
    for (Index e = 0; e < m.nedges; ++e) {
      m.cell_edges[fill[m.edge_cell[e][0]]++] = e;
      m.cell_edges[fill[m.edge_cell[e][1]]++] = e;
    }
  }
  // Sort each ring by azimuth of the edge crossing point around the center.
#pragma omp parallel for schedule(static)
  for (Index c = 0; c < m.ncells; ++c) {
    const Basis b = basisAt(m.cell_x[c]);
    const Index lo = m.cell_offset[c], hi = m.cell_offset[c + 1];
    std::sort(m.cell_edges.begin() + lo, m.cell_edges.begin() + hi,
              [&](Index ea, Index eb) {
                const Vec3 pa = m.edge_x[ea] - m.cell_x[c];
                const Vec3 pb = m.edge_x[eb] - m.cell_x[c];
                return std::atan2(b.north.dot(pa), b.east.dot(pa)) <
                       std::atan2(b.north.dot(pb), b.east.dot(pb));
              });
  }

  // ---- outward signs, neighbor cells, vertex rings ----
  m.cell_edge_sign.resize(ring);
  m.cell_cells.resize(ring);
  m.cell_vertices.assign(ring, kInvalidIndex);
#pragma omp parallel for schedule(static)
  for (Index c = 0; c < m.ncells; ++c) {
    const Index lo = m.cell_offset[c], hi = m.cell_offset[c + 1];
    for (Index k = lo; k < hi; ++k) {
      const Index e = m.cell_edges[k];
      const bool outward = (m.edge_cell[e][0] == c);
      m.cell_edge_sign[k] = outward ? 1.0 : -1.0;
      m.cell_cells[k] = outward ? m.edge_cell[e][1] : m.edge_cell[e][0];
      // Vertex k sits between edges k and k+1: their shared dual vertex.
      const Index enext = m.cell_edges[k + 1 < hi ? k + 1 : lo];
      for (const Index va : m.edge_vertex[e]) {
        if (va == m.edge_vertex[enext][0] || va == m.edge_vertex[enext][1]) {
          m.cell_vertices[k] = va;
        }
      }
    }
  }

  // ---- dual-vertex data: corner cells, incident edges, circulation signs ----
  m.vtx_edges.assign(m.nvertices, {kInvalidIndex, kInvalidIndex, kInvalidIndex});
  m.vtx_cells.assign(m.nvertices, {kInvalidIndex, kInvalidIndex, kInvalidIndex});
  m.vtx_edge_sign.assign(m.nvertices, {0, 0, 0});
  m.vtx_kite_area.assign(m.nvertices, {0, 0, 0});
  {
    std::vector<int> nfill(m.nvertices, 0);
    for (Index e = 0; e < m.nedges; ++e) {
      for (const Index v : m.edge_vertex[e]) {
        const int slot = nfill[v]++;
        m.vtx_edges[v][slot] = e;
      }
    }
  }
#pragma omp parallel for schedule(static)
  for (Index v = 0; v < m.nvertices; ++v) {
    const auto& tr = tri.triangles[v];
    m.vtx_cells[v] = {tr[0], tr[1], tr[2]};
    for (int k = 0; k < 3; ++k) {
      const Index e = m.vtx_edges[v][k];
      // ccw traversal direction of the dual-cell boundary at the crossing
      // point: rotate the outward offset by 90 degrees.
      const Vec3 offset = m.edge_x[e] - m.vtx_x[v];
      const Vec3 ccw = m.edge_x[e].cross(offset);
      m.vtx_edge_sign[v][k] = m.edge_normal[e].dot(ccw) >= 0 ? 1.0 : -1.0;
    }
  }

  // ---- kite areas; cell and vertex areas are their exact sums so that the
  //      TRSK partition-of-unity identities hold to rounding error ----
  m.cell_area.assign(m.ncells, 0.0);
  m.vtx_area.assign(m.nvertices, 0.0);
  const double r2 = radius * radius;
  for (Index c = 0; c < m.ncells; ++c) {
    const Index lo = m.cell_offset[c], hi = m.cell_offset[c + 1];
    for (Index k = lo; k < hi; ++k) {
      const Index e0 = m.cell_edges[k];
      const Index e1 = m.cell_edges[k + 1 < hi ? k + 1 : lo];
      const Index v = m.cell_vertices[k];
      // Kite (c, x_e0, v, x_e1): split into two spherical triangles.
      const double kite =
          (std::abs(sphericalTriangleArea(m.cell_x[c], m.edge_x[e0], m.vtx_x[v])) +
           std::abs(sphericalTriangleArea(m.cell_x[c], m.vtx_x[v], m.edge_x[e1]))) *
          r2;
      m.cell_area[c] += kite;
      m.vtx_area[v] += kite;
      for (int s = 0; s < 3; ++s) {
        if (m.vtx_cells[v][s] == c) m.vtx_kite_area[v][s] = kite;
      }
    }
  }
  return m;
}

} // namespace

HexMesh buildHexMesh(int level, double radius) {
  const HexMesh bisection = buildBisectionHexMesh(level, radius);
  HexMesh m = applyPermutation(bisection, bfsPermutation(bisection));
  m.built_connectivity_hash = connectivityHash(m);
  return m;
}

std::uint64_t connectivityHash(const HexMesh& mesh) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;  // FNV-1a prime
    }
  };
  mix(mesh.cell_offset.data(), mesh.cell_offset.size() * sizeof(Index));
  mix(mesh.cell_cells.data(), mesh.cell_cells.size() * sizeof(Index));
  mix(mesh.edge_cell.data(), mesh.edge_cell.size() * sizeof(mesh.edge_cell[0]));
  mix(mesh.edge_vertex.data(), mesh.edge_vertex.size() * sizeof(mesh.edge_vertex[0]));
  return h;
}

std::uint64_t numberingFingerprint(const HexMesh& mesh) {
  return connectivityHash(mesh) ^ mesh.built_connectivity_hash;
}

CellGraph cellGraph(const HexMesh& mesh) {
  CellGraph g;
  g.offset = mesh.cell_offset;
  g.neighbor = mesh.cell_cells;
  return g;
}

} // namespace grist::grid
