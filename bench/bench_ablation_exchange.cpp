// Ablation: the halo-exchange protocol, the overlapped step and the
// transport. Every halo moves through one protocol, post()/wait()
// (parallel/exchange.hpp).
//
// (1) Batched vs per-variable exchange (paper section 3.1.3: "a linked
//     list is utilized to gather variables for exchange, and a single call
//     to the communication interface efficiently completes the data
//     exchange for all listed variables"): identical bytes, very different
//     message counts.
// (2) BM_ExchangePacked: one packed post/wait round (pack -> slot ->
//     unpack per neighbor pair) of the seed ablation's traffic.
// (3) The overlapped step on the Fig. 10 weak-scaling configuration (~320
//     cells/rank), with instant delivery and with an emulated wire of
//     latency tau per exchange round. The narrative reports the exposed
//     wire time t(tau) - t(0) against the blocking bound of 4 rounds x tau
//     -- what a step would pay if no interior compute ran under the wire.
// (4) Transport: the same overlapped step with ranks as THREADS of this
//     process vs as OS PROCESSES over the POSIX shm transport (BM_StepShm*,
//     with and without core pinning and the emulated wire). This binary
//     fork+execs itself as the rank workers, so worker dispatch runs first
//     in main().
//
// The BM_Exchange*/BM_Step* benchmarks emit the standard google-benchmark
// JSON with --benchmark_format=json (same schema as the bench_host_kernels
// pairs); the narrative tables print first. scripts/check.sh records them
// to BENCH_exchange_schedules.json under GRIST_EXCHANGE_BENCH=1.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "grist/core/mp_runner.hpp"
#include "grist/core/parallel_model.hpp"
#include "grist/dycore/init.hpp"
#include "grist/io/table.hpp"
#include "grist/network/fat_tree.hpp"
#include "grist/parallel/exchange.hpp"

namespace {

using namespace grist;

// ---------------------------------------------------------------------------
// Exchange-transport fixture: the seed ablation configuration (G5 mesh, 16
// ranks, 8 cell variables x 30 levels).
// ---------------------------------------------------------------------------
struct ExchangeFixture {
  grid::HexMesh mesh = grid::buildHexMesh(5);
  Index nranks = 16;
  parallel::Decomposition decomp = parallel::decompose(mesh, nranks);
  int nlev = 30;
  int nvars = 8;
  std::vector<std::vector<parallel::Field>> vars;
  std::vector<parallel::ExchangeList> lists;

  ExchangeFixture() {
    vars.resize(nvars);
    for (int v = 0; v < nvars; ++v) {
      for (Index r = 0; r < nranks; ++r) {
        vars[v].emplace_back(decomp.domains[r].mesh.ncells, nlev, 1.0 + v);
      }
    }
    lists.resize(nranks);
    for (Index r = 0; r < nranks; ++r) {
      for (int v = 0; v < nvars; ++v) lists[r].addCellField(vars[v][r]);
    }
  }
};

ExchangeFixture& exchangeFixture() {
  static ExchangeFixture f;
  return f;
}

/// One post/wait round driven from this thread: every rank posts before
/// any rank waits, so no wait blocks on an unposted message.
void exchangeRound(parallel::Communicator& comm, Index nranks) {
  for (Index r = 0; r < nranks; ++r) comm.post(r);
  for (Index r = 0; r < nranks; ++r) comm.wait(r);
}

void BM_ExchangePacked(benchmark::State& state) {
  ExchangeFixture& f = exchangeFixture();
  parallel::Communicator comm(f.decomp);
  comm.plan(f.lists);
  for (auto _ : state) {
    exchangeRound(comm, f.nranks);
    benchmark::DoNotOptimize(f.vars[0][0].data());
  }
  state.SetBytesProcessed(state.iterations() *
                          (comm.stats().bytes / comm.stats().exchanges));
}

// ---------------------------------------------------------------------------
// Step fixture: the measured point of the Fig. 10 weak-scaling ladder
// this host can hold (G4 mesh, 8 ranks, ~320 cells/rank, nlev 10, dt 240)
// -- the same configuration bench_fig10_weak_scaling measures.
// ---------------------------------------------------------------------------
struct StepFixture {
  grid::HexMesh mesh = grid::buildHexMesh(4);
  grid::TrskWeights trsk = grid::buildTrskWeights(mesh);
  dycore::DycoreConfig cfg;
  Index nranks = 8;
  double wire_tau = 0.0;  ///< emulated interconnect latency per round (s)

  StepFixture() {
    cfg.nlev = 10;
    cfg.dt = 240.0;
    // The in-process transport delivers instantly; the machine the Fig. 10
    // rung emulates does not. Price one exchange round of this rung's
    // actual per-rank halo traffic on the fat-tree model at the paper's
    // full 524,288-CG scale and use it as the emulated wire latency.
    const dycore::State init = dycore::initBaroclinicWave(mesh, cfg);
    core::ParallelModel probe(mesh, trsk, cfg, nranks, init);
    probe.step();
    const parallel::CommStats s = probe.commStats();
    const double bytes_per_rank =
        static_cast<double>(s.bytes) / s.exchanges / nranks;
    wire_tau = network::FatTreeModel().haloExchangeTime(524288, bytes_per_rank, 6);
  }
};

StepFixture& stepFixture() {
  static StepFixture f;
  return f;
}

void benchStep(benchmark::State& state, double wire_latency) {
  StepFixture& f = stepFixture();
  const dycore::State init = dycore::initBaroclinicWave(f.mesh, f.cfg);
  core::ParallelModel model(f.mesh, f.trsk, f.cfg, f.nranks, init);
  model.setWireLatency(wire_latency);
  model.step();  // warm-up: pool, OpenMP teams, Workspace arenas
  for (auto _ : state) {
    model.step();
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.ncells * f.cfg.nlev);
}

// Instant in-process delivery: the step's compute plus the protocol's
// pack/unpack and doorbell cost.
void BM_StepOverlapPacked(benchmark::State& state) { benchStep(state, 0.0); }

// Emulated interconnect (wire latency from the fat-tree model at full
// machine scale): each round's interior compute runs under the window.
void BM_StepOverlapPackedWire(benchmark::State& state) {
  benchStep(state, stepFixture().wire_tau);
}

// ---------------------------------------------------------------------------
// Transport ablation: the same overlapped step with one OS process per rank
// over the shm transport. Identical kernels, identical exchanged bytes
// (bitwise-identical states, see tests/multiprocess/); what changes hands
// is the address-space boundary and the doorbell primitive (futexes on
// mapped words instead of in-process atomics).
// ---------------------------------------------------------------------------
void benchStepShm(benchmark::State& state, bool pin, double wire_latency) {
  StepFixture& f = stepFixture();
  core::mp::RunSpec spec;
  spec.grid_level = 4;
  spec.dyn = f.cfg;
  spec.nranks = f.nranks;
  spec.pin = pin;
  spec.wire_latency = wire_latency;
  core::mp::MpSession session(spec, dycore::initBaroclinicWave(f.mesh, f.cfg));
  session.run(1);  // warm-up: fleet up, plans live, slots recycled
  for (auto _ : state) {
    session.run(1);
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.ncells * f.cfg.nlev);
}

void BM_StepShmOverlap(benchmark::State& state) {
  benchStepShm(state, /*pin=*/false, 0.0);
}
void BM_StepShmOverlapPinned(benchmark::State& state) {
  benchStepShm(state, /*pin=*/true, 0.0);
}
void BM_StepShmOverlapWire(benchmark::State& state) {
  benchStepShm(state, /*pin=*/false, stepFixture().wire_tau);
}

// ---------------------------------------------------------------------------
// Narrative tables (printed before the google-benchmark runs).
// ---------------------------------------------------------------------------

/// Exposed wire time of the overlapped step: t(tau) - t(0) per step,
/// against the 4 x tau a step with nothing between post and wait would
/// stall. Alternating blocks of warm steps on one model, medians of the
/// per-block means.
void printExposedWire() {
  StepFixture& f = stepFixture();
  const dycore::State init = dycore::initBaroclinicWave(f.mesh, f.cfg);
  core::ParallelModel model(f.mesh, f.trsk, f.cfg, f.nranks, init);
  model.step();  // warm-up: pool, OpenMP teams, Workspace arenas
  const auto blockMs = [&model](double tau) {
    constexpr int kSteps = 10;
    model.setWireLatency(tau);
    const auto t0 = std::chrono::steady_clock::now();
    model.run(kSteps);
    const std::chrono::duration<double, std::milli> dt =
        std::chrono::steady_clock::now() - t0;
    return dt.count() / kSteps;
  };
  constexpr int kBlocks = 7;
  std::vector<double> t_zero, t_wire;
  for (int b = 0; b < kBlocks; ++b) {
    t_zero.push_back(blockMs(0.0));
    t_wire.push_back(blockMs(f.wire_tau));
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double t0 = median(t_zero);
  const double tw = median(t_wire);
  const double bound = 4.0 * f.wire_tau * 1e3;
  std::printf(
      "-- overlapped step, Fig. 10 measured configuration (G4, %d ranks,\n"
      "   ~320 cells/rank). The wire emulates the interconnect this rung\n"
      "   stands in for: the fat-tree model prices one round of its\n"
      "   per-rank halo traffic at the full 524,288-CG scale at %.1f us,\n"
      "   and a posted message only becomes consumable that much later. --\n\n",
      static_cast<int>(f.nranks), f.wire_tau * 1e6);
  io::Table table({"t(0) ms/step", "t(tau) ms/step", "exposed ms/step",
                   "blocking bound 4 x tau", "hidden"});
  table.addRow({io::Table::num(t0, 3), io::Table::num(tw, 3),
                io::Table::num(tw - t0, 3), io::Table::num(bound, 3),
                io::Table::num(100.0 * (1.0 - (tw - t0) / bound), 0) + "%"});
  table.print();
  std::printf("\n");
}

void printNarrative() {
  std::printf("== Ablation: halo-exchange protocol, overlap and transport ==\n\n");
  std::printf("-- batched vs per-variable exchange (message counts) --\n\n");
  ExchangeFixture& f = exchangeFixture();
  parallel::Communicator comm(f.decomp);

  comm.plan(f.lists);
  exchangeRound(comm, f.nranks);
  const parallel::CommStats batched = comm.stats();

  comm.resetStats();
  for (int v = 0; v < f.nvars; ++v) {
    std::vector<parallel::ExchangeList> single(f.nranks);
    for (Index r = 0; r < f.nranks; ++r) single[r].addCellField(f.vars[v][r]);
    comm.plan(single);
    exchangeRound(comm, f.nranks);
  }
  const parallel::CommStats pervar = comm.stats();

  io::Table table({"Strategy", "Messages/step", "Bytes/step"});
  table.addRow({"one batched round",
                io::Table::num(static_cast<double>(batched.messages), 0),
                io::Table::num(static_cast<double>(batched.bytes), 0)});
  table.addRow({"per-variable rounds",
                io::Table::num(static_cast<double>(pervar.messages), 0),
                io::Table::num(static_cast<double>(pervar.bytes), 0)});
  table.print();

  // Project the latency cost at machine scale through the fat-tree model.
  const network::FatTreeModel net;
  const double msg_bytes = static_cast<double>(batched.bytes) / batched.messages;
  const double t_one = net.haloExchangeTime(524288, msg_bytes * 6, 6);
  const double t_many =
      f.nvars * net.haloExchangeTime(524288, msg_bytes * 6 / f.nvars, 6);
  std::printf(
      "\nAt 524,288 CGs the fat-tree model prices the same traffic at\n"
      "%.1f us (batched) vs %.1f us (per-variable) per step: the %dx\n"
      "message-count reduction is what keeps the latency term flat in the\n"
      "paper's weak-scaling curve.\n\n",
      t_one * 1e6, t_many * 1e6, f.nvars);
  printExposedWire();
  std::printf(
      "-- the BM_StepShm* variants run the SAME overlapped step with one\n"
      "   OS process per rank over the POSIX shm transport (pack buffers in\n"
      "   the mapped segment, futex doorbells): the transport ablation of\n"
      "   DESIGN.md. States stay bitwise identical to the threaded pool\n"
      "   (tests/multiprocess/). --\n\n");
}

} // namespace

BENCHMARK(BM_ExchangePacked)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StepOverlapPacked)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StepOverlapPackedWire)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StepShmOverlap)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StepShmOverlapPinned)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StepShmOverlapWire)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  // The BM_StepShm* fixtures fork+exec this binary as their rank workers.
  if (auto rc = grist::core::mp::maybeRunWorker(argc, argv)) return *rc;
  printNarrative();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
