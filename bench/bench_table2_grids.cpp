// Table 2 reproduction: grid/timestep configurations of the paper's
// experiment ladder. Counts come from the analytic formulas (verified
// against built meshes up to G6 right here); resolutions use the
// sqrt-cell-area metric the paper quotes.
#include <cstdio>
#include <string>

#include "grist/grid/counts.hpp"
#include "grist/grid/hex_mesh.hpp"
#include "grist/io/table.hpp"

namespace {

std::string human(std::int64_t n) {
  char buf[32];
  if (n >= 10'000'000) {
    std::snprintf(buf, sizeof buf, "%.0fM", n / 1e6);
  } else if (n >= 1'000'000) {
    std::snprintf(buf, sizeof buf, "%.1fM", n / 1e6);
  } else if (n >= 10'000) {
    std::snprintf(buf, sizeof buf, "%.0fK", n / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(n));
  }
  return buf;
}

struct Row {
  const char* label;
  int level;
  int layers;
  int dyn, trac, phy, rad;  // timesteps, seconds
};

} // namespace

int main() {
  using namespace grist;
  std::printf("== Table 2: configuration of grids and timesteps ==\n\n");

  const Row rows[] = {
      {"G12", 12, 30, 4, 30, 60, 180},  {"G11W", 11, 30, 4, 30, 60, 180},
      {"G11S", 11, 30, 8, 60, 120, 360}, {"G10", 10, 30, 4, 30, 60, 180},
      {"G9", 9, 30, 4, 30, 60, 180},     {"G8", 8, 30, 4, 30, 60, 180},
      {"G6", 6, 30, 4, 30, 60, 180},
  };

  io::Table table({"Label", "Resolution(km)", "Layers", "Dyn", "Trac", "Phy",
                   "Rad", "Cells", "Edges", "Vertices"});
  for (const Row& r : rows) {
    const auto counts = grid::countsForLevel(r.level);
    char res[40];
    std::snprintf(res, sizeof res, "%.3g~%.3g", grid::minSpacingKm(r.level),
                  grid::maxSpacingKm(r.level));
    table.addRow({r.label, res, std::to_string(r.layers), std::to_string(r.dyn),
                  std::to_string(r.trac), std::to_string(r.phy),
                  std::to_string(r.rad), human(counts.cells), human(counts.edges),
                  human(counts.vertices)});
  }
  table.print();

  std::printf(
      "\nPaper's Table 2 reference counts: G12 167M/503M/336M, G6 41.0K/123K/81.9K.\n"
      "Verification against MATERIALIZED meshes (exact counts):\n\n");
  io::Table verify({"Level", "Built cells", "Formula", "Built edges", "Formula",
                    "Built vertices", "Formula", "Match"});
  for (int level : {3, 4, 5, 6}) {
    const grid::HexMesh mesh = grid::buildHexMesh(level);
    const auto counts = grid::countsForLevel(level);
    const bool ok = mesh.ncells == counts.cells && mesh.nedges == counts.edges &&
                    mesh.nvertices == counts.vertices;
    verify.addRow({std::string("G").append(std::to_string(level)),
                   std::to_string(mesh.ncells),
                   std::to_string(counts.cells), std::to_string(mesh.nedges),
                   std::to_string(counts.edges), std::to_string(mesh.nvertices),
                   std::to_string(counts.vertices), ok ? "yes" : "NO"});
  }
  verify.print();
  return 0;
}
