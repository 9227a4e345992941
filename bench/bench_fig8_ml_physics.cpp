// Fig. 8 reproduction: the resolution-adaptive ML physics suite.
//  (a)(b) short-term weather: 3-hour rainfall from the conventional vs the
//         ML suite at the finest affordable grid;
//  (c)-(f) climate: multi-day mean rainfall at a coarse (G6-analog) and a
//         finer (G8-analog) grid, conventional vs ML.
// The ML suite is trained ONCE on coarse-grained conventional-physics data
// (the distillation analog of the paper's 5 km -> 30 km pipeline) and then
// reused unchanged at every resolution -- the paper's "resolution-adaptive"
// property under test.
#include <chrono>
#include <cstdio>
#include <memory>

#include "grist/backend/quant.hpp"
#include "grist/core/model.hpp"
#include "grist/coupler/coupler.hpp"
#include "grist/dycore/diagnostics.hpp"
#include "grist/dycore/init.hpp"
#include "grist/io/table.hpp"
#include "grist/ml/traindata.hpp"

using namespace grist;

namespace {

constexpr int kNlev = 20;

void trainSuite(std::shared_ptr<ml::Q1Q2Net>& q1q2, std::shared_ptr<ml::RadMlp>& rad) {
  ml::Q1Q2NetConfig qcfg;
  qcfg.nlev = kNlev;
  qcfg.channels = 24;
  qcfg.res_units = 2;
  q1q2 = std::make_shared<ml::Q1Q2Net>(qcfg);
  ml::RadMlpConfig rcfg;
  rcfg.nlev = kNlev;
  rcfg.hidden = 48;
  rad = std::make_shared<ml::RadMlp>(rcfg);

  std::vector<ml::ColumnSample> cols;
  std::vector<ml::RadSample> rads;
  // (1) Scenario-conditioned columns (Table 1 diversity)...
  for (const auto& sc : ml::table1Scenarios()) {
    physics::PhysicsInput in = ml::synthesizeColumns(sc, 256, kNlev);
    physics::ConventionalSuite conv(in.ncolumns, kNlev);
    ml::harvestSamples(in, conv, 600.0, cols, rads);
  }
  // (2) ...plus columns harvested from an actual conventional-physics model
  // run (the paper trains on its own GSRM output).
  {
    const grid::HexMesh mesh = grid::buildHexMesh(4);
    const grid::TrskWeights trsk = grid::buildTrskWeights(mesh);
    core::ModelConfig cfg;
    cfg.dyn.nlev = kNlev;
    cfg.dyn.dt = 450.0;
    cfg.dyn.w_damp_tau = 900.0;
    cfg.dyn.div_damp = 0.06;
    cfg.dyn.diff_coef = 0.02;
    cfg.trac_interval = 4;
    cfg.phy_interval = 4;
    core::Model model(mesh, trsk, cfg, dycore::initBaroclinicWave(mesh, cfg.dyn, 3));
    coupler::Coupler coupler(mesh, kNlev);
    physics::ConventionalSuite harvest_suite(mesh.ncells, kNlev);
    physics::PhysicsInput in(mesh.ncells, kNlev);
    for (int snap = 0; snap < 8; ++snap) {
      model.run(24);  // 3 simulated hours apart
      coupler.stateToPhysics(model.state(), model.tskin(), model.simSeconds(), in);
      std::vector<ml::ColumnSample> all_cols;
      std::vector<ml::RadSample> all_rads;
      ml::harvestSamples(in, harvest_suite, cfg.phy_interval * cfg.dyn.dt, all_cols,
                         all_rads);
      // Subsample to keep training affordable.
      for (std::size_t i = 0; i < all_cols.size(); i += 4) {
        cols.push_back(std::move(all_cols[i]));
        rads.push_back(std::move(all_rads[i]));
      }
    }
  }
  std::printf("   training set: %zu column samples\n", cols.size());
  std::vector<ml::ColumnSample> train, test;
  ml::splitTrainTest(cols, 2025, train, test);
  q1q2->fitNormalization(train);
  rad->fitNormalization(rads);
  ml::Adam a1(ml::AdamConfig{.lr = 2e-3f}), a2(ml::AdamConfig{.lr = 2e-3f});
  a1.registerParams(q1q2->paramViews());
  a2.registerParams(rad->paramViews());
  const double before = q1q2->evaluate(test);
  for (int epoch = 0; epoch < 8; ++epoch) {
    for (std::size_t base = 0; base + 64 <= train.size(); base += 64) {
      std::vector<ml::ColumnSample> batch(train.begin() + base,
                                          train.begin() + base + 64);
      q1q2->trainBatch(batch, a1);
    }
    rad->trainBatch(rads, a2);
  }
  std::printf("   Q1/Q2 CNN test loss (normalized MSE): %.3f -> %.3f\n", before,
              q1q2->evaluate(test));
}

struct RunOut {
  std::vector<double> rain;  // mm/day on the run's own grid
  double tropical_band = 0;  // mean rain rate |lat| < 20 deg
  double extratropics = 0;   // mean rain rate |lat| > 40 deg
  bool stable = true;
};

RunOut runClimate(int level, bool use_ml, int nsteps, double dt,
                  const std::shared_ptr<ml::Q1Q2Net>& q1q2,
                  const std::shared_ptr<ml::RadMlp>& rad) {
  const grid::HexMesh mesh = grid::buildHexMesh(level);
  const grid::TrskWeights trsk = grid::buildTrskWeights(mesh);
  core::ModelConfig cfg;
  cfg.dyn.nlev = kNlev;
  cfg.dyn.dt = dt;
  // Hydrostatic-scale stabilizers (see bench_fig7_typhoon.cpp).
  cfg.dyn.w_damp_tau = 2.0 * dt;
  cfg.dyn.div_damp = 0.06;
  cfg.dyn.diff_coef = 0.02;
  cfg.trac_interval = 4;
  cfg.phy_interval = 4;
  cfg.scheme = use_ml ? core::PhysicsScheme::kMl : core::PhysicsScheme::kConventional;
  cfg.q1q2 = q1q2;
  cfg.rad_mlp = rad;
  core::Model model(mesh, trsk, cfg, dycore::initBaroclinicWave(mesh, cfg.dyn, 3));
  model.run(nsteps);
  RunOut out;
  out.rain = model.meanPrecipRate();
  double trop = 0, trop_area = 0, extra = 0, extra_area = 0;
  for (Index c = 0; c < mesh.ncells; ++c) {
    if (!std::isfinite(out.rain[c])) out.stable = false;
    const double lat = std::abs(mesh.cell_ll[c].lat);
    if (lat < 0.349) {
      trop += out.rain[c] * mesh.cell_area[c];
      trop_area += mesh.cell_area[c];
    } else if (lat > 0.698) {
      extra += out.rain[c] * mesh.cell_area[c];
      extra_area += mesh.cell_area[c];
    }
  }
  out.tropical_band = trop / trop_area;
  out.extratropics = extra / extra_area;
  return out;
}

// Inference-precision sweep over the TRAINED suite (quantizing an untrained
// random net says nothing about the acceptance envelope): columns/s and the
// gate's rel-L2 per output at fp32 / bf16 / int8. Follows the warm-up
// convention of bench_host_kernels: one untimed invocation per configuration
// before the timing loop, so the first measured run sees warm Workspace
// arenas and an already-built, already-gated quantized snapshot.
void precisionSweep(const std::shared_ptr<ml::Q1Q2Net>& q1q2,
                    const std::shared_ptr<ml::RadMlp>& rad) {
  const Index ncol = 1024;
  physics::PhysicsInput in =
      ml::synthesizeColumns(ml::table1Scenarios()[0], ncol, kNlev);
  io::Table table({"Precision", "Kernel", "Columns/s", "Speedup",
                   "Worst gate rel-L2"});
  double fp32_rate = 0.0;
  for (const ml::Precision prec :
       {ml::Precision::kFp32, ml::Precision::kBf16, ml::Precision::kInt8}) {
    ml::MlSuiteConfig cfg;
    cfg.precision = prec;
    ml::MlPhysicsSuite suite(ncol, kNlev, q1q2, rad, cfg);
    physics::PhysicsOutput out(ncol, kNlev);
    suite.run(in, 600.0, out);  // untimed warm-up: arenas, snapshot, gate
    const int reps = 20;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) suite.run(in, 600.0, out);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    const double rate = reps * static_cast<double>(ncol) / dt.count();
    if (prec == ml::Precision::kFp32) fp32_rate = rate;
    double worst = 0.0;
    for (const auto& [var, rel] : suite.quantGateRecords()) {
      worst = std::max(worst, rel);
    }
    table.addRow({ml::precisionName(prec),
                  prec == ml::Precision::kFp32 ? "sgemm-packed"
                                               : backend::quant::table().name,
                  io::Table::num(rate, 0),
                  io::Table::num(rate / fp32_rate, 2) + "x",
                  prec == ml::Precision::kFp32 ? "-" : io::Table::num(worst, 4)});
  }
  table.print();
}

} // namespace

int main() {
  std::printf("== Fig. 8: conventional vs ML-based parameterization ==\n\n");
  std::printf("-- training the ML suite (distillation from the conventional\n"
              "   suite on Table 1 scenario columns; paper: 5km -> 30km\n"
              "   coarse-grained GSRM data) --\n");
  std::shared_ptr<ml::Q1Q2Net> q1q2;
  std::shared_ptr<ml::RadMlp> rad;
  trainSuite(q1q2, rad);

  // ---- quantized-inference sweep on the trained suite ----
  std::printf("\n-- inference precision sweep (quantized ML physics,\n"
              "   Table 3 rel-L2 acceptance gate at %.0f%%) --\n",
              100.0 * ml::MlSuiteConfig{}.quant_tolerance);
  precisionSweep(q1q2, rad);

  // ---- (a)(b): 3-hour weather run at the finest affordable grid ----
  std::printf("\n-- (a)(b) 3-hour weather integration, G5 (G12 analog) --\n");
  const RunOut conv_fine = runClimate(5, false, 36, 300.0, q1q2, rad);
  const RunOut ml_fine = runClimate(5, true, 36, 300.0, q1q2, rad);
  {
    const grid::HexMesh mesh = grid::buildHexMesh(5);
    const double corr = dycore::patternCorrelation(mesh, ml_fine.rain, conv_fine.rain);
    io::Table table({"Suite", "Stable", "Tropical rain (mm/day)",
                     "Pattern corr vs conventional"});
    table.addRow({"Conventional", conv_fine.stable ? "yes" : "NO",
                  io::Table::num(conv_fine.tropical_band, 2), "1.000"});
    table.addRow({"ML-physics", ml_fine.stable ? "yes" : "NO",
                  io::Table::num(ml_fine.tropical_band, 2), io::Table::num(corr, 3)});
    table.print();
  }

  // ---- (c)-(f): multi-day "climate" at two resolutions ----
  std::printf("\n-- (c)-(f) 2-day climate integrations (annual-mean analog) --\n");
  io::Table table({"Grid", "Analog of", "Suite", "Stable",
                   "Tropics (mm/day)", "Extratropics", "Band contrast"});
  struct Case {
    int level;
    const char* analog;
    int nsteps;
    double dt;
  };
  const Case cases[] = {{3, "G6 (92-113 km)", 288, 600.0},
                        {4, "G8 (22-28 km)", 384, 450.0}};
  for (const Case& cs : cases) {
    for (const bool use_ml : {false, true}) {
      const RunOut out = runClimate(cs.level, use_ml, cs.nsteps, cs.dt, q1q2, rad);
      const double contrast =
          out.extratropics > 1e-12 ? out.tropical_band / out.extratropics : 0.0;
      table.addRow({std::string("G").append(std::to_string(cs.level)),
                    cs.analog,
                    use_ml ? "ML-physics" : "Conventional",
                    out.stable ? "yes" : "NO", io::Table::num(out.tropical_band, 2),
                    io::Table::num(out.extratropics, 2),
                    contrast > 0 ? io::Table::num(contrast, 1) : "inf"});
    }
  }
  table.print();

  std::printf(
      "\nPaper's findings to compare: the ML suite (trained once, at one\n"
      "resolution) reproduces the observed rainfall band at BOTH grids and\n"
      "keeps multi-year runs stable; short 3-hour weather stays reasonable\n"
      "even beyond the training resolution. Here \"band contrast\" > 1 means\n"
      "a tropical rain band is present.\n");
  return 0;
}
