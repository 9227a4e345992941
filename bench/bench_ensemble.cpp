// Batched ensemble engine vs M independent Model instances (google-
// benchmark): the members/s acceptance pair for the EnsembleRunner.
//
// Configuration matches the solo-model throughput setup the README table
// quotes: G4 (2562 cells), nlev 20, DP dycore, fp32 ML physics suite
// (q1q2 channels 24 / res 2, rad hidden 48), default cadences (tracer
// every 8, physics every 15 dynamics steps), M = 8 perturbed members.
// Two variants, identical numerics (the ENSEMBLE ctest label asserts
// bitwise member-vs-solo identity):
//   BM_SoloModels           -- M independent Model instances, the baseline
//   BM_EnsembleBatched      -- one EnsembleRunner stepping all M members
// Record to BENCH_ensemble.json via the GRIST_ENSEMBLE_BENCH=1 stage of
// scripts/check.sh; a committed baseline turns the run into a >5%
// regression gate through scripts/bench_compare.py.
//
// Every fixture makes one untimed warm-up run before the timing loop so
// the first measured iteration sees grown Workspace arenas and warm OpenMP
// teams, not first-touch costs.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "grist/core/ensemble_runner.hpp"
#include "grist/core/model.hpp"
#include "grist/dycore/init.hpp"
#include "grist/grid/hex_mesh.hpp"
#include "grist/grid/trsk.hpp"

namespace {

using namespace grist;

constexpr int kGlevel = 4;
constexpr int kNlev = 20;
constexpr int kMembers = 8;
constexpr int kStepsPerIter = 15;  // one full physics window per iteration
constexpr std::uint64_t kSeed = 42;

core::ModelConfig modelConfig() {
  core::ModelConfig mc;
  mc.dyn.nlev = kNlev;
  mc.dyn.dt = 300.0;
  mc.dyn.ns = precision::NsMode::kDouble;
  mc.scheme = core::PhysicsScheme::kMl;
  ml::Q1Q2NetConfig qcfg;
  qcfg.nlev = kNlev;
  qcfg.channels = 24;
  qcfg.res_units = 2;
  mc.q1q2 = std::make_shared<ml::Q1Q2Net>(qcfg);
  ml::RadMlpConfig rcfg;
  rcfg.nlev = kNlev;
  rcfg.hidden = 48;
  mc.rad_mlp = std::make_shared<ml::RadMlp>(rcfg);
  return mc;
}

struct Fixture {
  grid::HexMesh mesh;
  grid::TrskWeights trsk;
  core::ModelConfig mc;
  dycore::State initial;

  Fixture()
      : mesh(grid::buildHexMesh(kGlevel)), trsk(grid::buildTrskWeights(mesh)),
        mc(modelConfig()), initial(dycore::initBaroclinicWave(mesh, mc.dyn, 3)) {}

  dycore::State memberState(int m) const {
    dycore::State s = initial;
    core::EnsembleRunner::perturbState(
        s, core::EnsembleRunner::memberSeed(kSeed, m), 1e-3);
    return s;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void addMemberStepsRate(benchmark::State& state) {
  state.counters["member_steps_per_s"] = benchmark::Counter(
      static_cast<double>(kMembers) * kStepsPerIter,
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_SoloModels(benchmark::State& state) {
  Fixture& f = fixture();
  std::vector<std::unique_ptr<core::Model>> models;
  for (int m = 0; m < kMembers; ++m) {
    models.push_back(std::make_unique<core::Model>(f.mesh, f.trsk, f.mc,
                                                   f.memberState(m)));
  }
  for (auto& model : models) model->run(kStepsPerIter);  // warm-up, untimed
  for (auto _ : state) {
    for (auto& model : models) model->run(kStepsPerIter);
  }
  addMemberStepsRate(state);
}
BENCHMARK(BM_SoloModels)->Unit(benchmark::kMillisecond);

void BM_EnsembleBatched(benchmark::State& state) {
  Fixture& f = fixture();
  core::EnsembleConfig ec;
  ec.model = f.mc;
  ec.members = kMembers;
  ec.perturb_seed = kSeed;
  core::EnsembleRunner runner(f.mesh, f.trsk, ec, f.initial);
  runner.run(kStepsPerIter);  // warm-up, untimed
  for (auto _ : state) {
    runner.run(kStepsPerIter);
  }
  addMemberStepsRate(state);
}
BENCHMARK(BM_EnsembleBatched)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
