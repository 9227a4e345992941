// The grist-sw command-line driver: run a namelist-described configuration
// for a given number of steps, with elastic checkpoint/restart -- the
// analog of the paper artifact's ParGRIST-GCM executable driven by
// run-*.sh scripts (Appendix B).
//
//   grist_run <namelist> [steps] [--ranks N] [--transport threads|shm]
//             [--pin] [--wire-latency S]
//             [--checkpoint-every K --checkpoint-dir D] [--restart PATH]
//             [--ensemble M] [--perturb-seed S]
//
// Extra namelist keys beyond the factory's (see core/factory.hpp):
//   steps (48)            dynamics steps to run (overridden by argv[2])
//   restart_in            snapshot to resume from (--restart overrides)
//   restart_out           snapshot to write at the end of the run
//   report_interval (12)  steps between progress lines
//
// Checkpoint/restart (io/snapshot.hpp, core/checkpoint.hpp) means the same
// in every run mode but --ensemble, which refuses all of it (exit 2):
//   --checkpoint-every K  write an atomic snapshot every K dynamics steps
//   --checkpoint-dir D    into D/ckpt-<step>.grist (keep-last-2 rotation)
//   --restart PATH        resume from a snapshot. Multi-rank checkpoints
//                         store the GLOBAL state, so one written at N ranks
//                         restores at any M ranks (repartition-on-restart),
//                         across both transports. A solo (full Model)
//                         checkpoint resumes only a solo run, and a
//                         multi-rank one only a multi-rank run: their
//                         CONFIG cadences differ.
//
// With --ranks N > 1 the run becomes the multi-rank dynamics step (the
// decomposition gate configuration: dynamics only, no physics/IO), with
// the namelist's dycore settings (nlev, dt_dyn, scheme's NS mode and the
// damping keys, parsed as the solo run parses them):
//   --transport threads   the in-process persistent worker pool
//   --transport shm       one OS process per rank over the POSIX
//                         shared-memory transport; this binary fork+execs
//                         ITSELF as the rank workers, so worker dispatch
//                         runs first in main(). A rank that dies takes the
//                         whole run down and its exit code is propagated.
//   --pin                 sched_setaffinity rank r -> core r % ncores (shm)
//   --wire-latency S      emulate S seconds of interconnect delivery delay
//
// Ensembles (core/ensemble_runner.hpp):
//   --ensemble M          step M members through one Model: one M-member
//                         dycore, per-member physics suites, shared
//                         mesh/TRSK/ML weights; each member stays bitwise
//                         identical to the same seed run solo.
//   --perturb-seed S      deterministic theta perturbation seed (default 0 =
//                         identical members); needs --ensemble. The report
//                         lines add the area-weighted surface-pressure
//                         ensemble spread. Ensemble runs are single-rank and
//                         do not combine with checkpoint/restart.
#include <sys/stat.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "grist/common/parse.hpp"
#include "grist/common/timer.hpp"
#include "grist/core/checkpoint.hpp"
#include "grist/core/factory.hpp"
#include "grist/core/mp_runner.hpp"
#include "grist/core/parallel_model.hpp"
#include "grist/dycore/diagnostics.hpp"
#include "grist/dycore/init.hpp"
#include "grist/io/snapshot.hpp"
#include "grist/partition/partitioner.hpp"

namespace {

/// Validated checkpoint/restart options shared by all run modes.
struct CkptOpts {
  int every = 0;            ///< 0 = no periodic checkpoints
  std::string dir;
  std::string restart;      ///< snapshot to resume from (--restart/restart_in)
  std::string restart_out;  ///< snapshot to write at the end (restart_out)
};

/// A numeric command-line value: the whole token, inside [lo, hi], or exit
/// 2 naming the flag and the token.
template <typename T>
T numberOrExit(const char* flag, const char* token, T lo, T hi) {
  if (const std::optional<T> v = grist::parseNumber<T>(token, lo, hi)) {
    return *v;
  }
  std::fprintf(stderr,
               "grist_run: %s: invalid value '%s' (want a number in "
               "[%s, %s])\n",
               flag, token, std::to_string(lo).c_str(),
               std::to_string(hi).c_str());
  std::exit(2);
}

bool fileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// The multi-rank dynamics run (both transports share the reporting).
int runMultiRank(const grist::Config& config,
                 const grist::dycore::DycoreConfig& cfg, int steps,
                 grist::Index nranks, const std::string& transport, bool pin,
                 double wire_latency, const CkptOpts& ckpt) {
  using namespace grist;
  const int glevel = config.getInt("grid_level", 4);
  const int ntracers = cfg.ntracers;  // 1: the decomposition gate configuration

  std::printf("multi-rank dynamics: grid G%d, nlev %d, %d ranks, transport %s%s\n",
              glevel, cfg.nlev, static_cast<int>(nranks), transport.c_str(),
              pin ? " (pinned)" : "");
  const grid::HexMesh mesh = grid::buildHexMesh(glevel);
  long step_base = 0;  // global step the run resumes at
  std::optional<dycore::State> restored;
  if (!ckpt.restart.empty()) {
    // Validated here, before anything is spawned, so a foreign checkpoint
    // exits 2 naming the mismatch on both transports (each shm worker
    // re-reads and re-validates the file itself).
    try {
      restored = core::loadDynRestart(ckpt.restart, mesh, cfg, ntracers,
                                      &step_base);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "grist_run: %s\n", e.what());
      return 2;
    }
    std::printf("resuming from %s at step %ld\n", ckpt.restart.c_str(),
                step_base);
  }
  Timer timer;
  parallel::CommStats stats;
  // Chunked stepping shared by both transports: run to the next checkpoint
  // boundary, snapshot the gathered global state, repeat; restart_out is
  // one more snapshot of the final state.
  const auto drive = [&](auto&& run_steps, auto&& capture) {
    long done = 0;
    while (done < steps) {
      const int chunk =
          ckpt.every > 0
              ? static_cast<int>(std::min<long>(ckpt.every, steps - done))
              : static_cast<int>(steps - done);
      run_steps(chunk);
      done += chunk;
      if (ckpt.every > 0 && (done % ckpt.every == 0 || done == steps)) {
        const std::string path = io::writeCheckpoint(
            ckpt.dir, capture(step_base + done), step_base + done);
        std::printf("checkpoint: step %ld -> %s\n", step_base + done,
                    path.c_str());
      }
    }
    if (!ckpt.restart_out.empty()) {
      capture(step_base + steps).write(ckpt.restart_out);
      std::printf("restart written to %s\n", ckpt.restart_out.c_str());
    }
  };
  if (transport == "shm") {
    core::mp::RunSpec spec;
    spec.grid_level = glevel;
    spec.dyn = cfg;
    spec.nranks = nranks;
    spec.pin = pin;
    spec.wire_latency = wire_latency;
    spec.restart = ckpt.restart;
    core::mp::MpSession session(spec);
    const std::uint64_t part_fp = partition::Partitioner::fingerprint(
        partition::Partitioner::partition(session.mesh(), nranks));
    drive([&](int n) { session.run(n); },
          [&](long step) {
            return core::captureDynRun(session.gather(), cfg, session.mesh(),
                                       step, nranks, part_fp);
          });
    stats = session.commStats();
  } else {
    const grid::TrskWeights trsk = grid::buildTrskWeights(mesh);
    core::ParallelModel model(
        mesh, trsk, cfg, nranks,
        restored ? *restored : dycore::initBaroclinicWave(mesh, cfg, ntracers));
    model.setWireLatency(wire_latency);
    const std::uint64_t part_fp =
        partition::Partitioner::fingerprint(model.decomposition().cell_part);
    drive([&](int n) { model.run(n); },
          [&](long step) {
            return core::captureDynRun(model.gatherState(), cfg, mesh, step,
                                       nranks, part_fp);
          });
    stats = model.commStats();
  }
  const double wall = timer.elapsed();
  const double sdays = steps * cfg.dt / 86400.0;
  std::printf("done: %d steps (%.3f simulated days) in %.1f s wall (%.1f SDPD)\n",
              steps, sdays, wall, sdays / (wall / 86400.0));
  std::printf("comm: %lld messages, %.3f MB, %lld exchange rounds\n",
              static_cast<long long>(stats.messages), stats.bytes / 1.0e6,
              static_cast<long long>(stats.exchanges));
  return 0;
}

/// The batched ensemble run: M members stepped as one fused workload.
int runEnsemble(const grist::Config& config, int steps, int members,
                std::uint64_t perturb_seed) {
  using namespace grist;
  std::unique_ptr<core::EnsembleBundle> bundle =
      core::makeEnsembleFromConfig(config, members, perturb_seed);
  core::EnsembleRunner& runner = *bundle->runner;
  const int report = std::max(1, config.getInt("report_interval", 12));
  std::printf(
      "ensemble: %d members, scheme %s, grid G%d (%d cells), %d steps, "
      "seed %llu\n",
      runner.members(), config.getString("scheme", "DP-PHY").c_str(),
      config.getInt("grid_level", 4), bundle->mesh.ncells, steps,
      static_cast<unsigned long long>(perturb_seed));

  // Area-weighted global mean of the per-cell ensemble-mean ps.
  const auto global_mean_ps = [&] {
    const std::vector<double> ps = runner.meanSurfacePressure();
    double num = 0.0, den = 0.0;
    for (Index c = 0; c < bundle->mesh.ncells; ++c) {
      num += ps[static_cast<std::size_t>(c)] * bundle->mesh.cell_area[c];
      den += bundle->mesh.cell_area[c];
    }
    return num / den;
  };

  Timer timer;
  for (int s = 0; s < steps; ++s) {
    runner.step();
    if ((s + 1) % report == 0) {
      std::printf(
          "step %6d  sim day %8.3f  mean ps %9.1f Pa  spread %.4e Pa\n",
          s + 1, runner.simDays(), global_mean_ps(), runner.globalSpread());
    }
  }
  const double wall = timer.elapsed();
  const double member_days = runner.members() * runner.simDays();
  std::printf(
      "done: %d members x %.3f simulated days in %.1f s wall "
      "(%.1f member-SDPD on this host)\n",
      runner.members(), runner.simDays(), wall,
      member_days / (wall / 86400.0));
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: grist_run <namelist> [steps] [--ranks N] "
               "[--transport threads|shm] [--pin] [--wire-latency S]\n"
               "                 [--checkpoint-every K --checkpoint-dir D] "
               "[--restart PATH]\n"
               "                 [--ensemble M] [--perturb-seed S]\n");
}

} // namespace

int main(int argc, char** argv) {
  using namespace grist;
  // Worker dispatch first: under --transport shm this binary is re-exec'd
  // as the rank worker processes.
  if (auto rc = core::mp::maybeRunWorker(argc, argv)) return *rc;

  Index ranks = 1;
  std::string transport = "threads";
  bool pin = false;
  double wire_latency = 0.0;
  CkptOpts ckpt;
  int ensemble = 0;                  // 0 = solo run
  std::uint64_t perturb_seed = 0;
  bool seed_given = false;
  std::vector<char*> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "grist_run: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--ranks") {
      ranks = numberOrExit<Index>("--ranks", value(), 1, 4096);
    } else if (arg == "--transport") {
      transport = value();
    } else if (arg == "--pin") {
      pin = true;
    } else if (arg == "--wire-latency") {
      wire_latency = numberOrExit("--wire-latency", value(), 0.0, 3600.0);
    } else if (arg == "--checkpoint-every") {
      ckpt.every = numberOrExit("--checkpoint-every", value(), 1, INT_MAX);
    } else if (arg == "--checkpoint-dir") {
      ckpt.dir = value();
    } else if (arg == "--restart") {
      ckpt.restart = value();
    } else if (arg == "--ensemble") {
      ensemble = numberOrExit("--ensemble", value(), 1, 4096);
    } else if (arg == "--perturb-seed") {
      perturb_seed = numberOrExit<std::uint64_t>("--perturb-seed", value(), 0,
                                                 UINT64_MAX);
      seed_given = true;
    } else {
      pos.push_back(argv[i]);
    }
  }
  if (pos.empty()) {
    usage();
    return 2;
  }
  if (transport != "threads" && transport != "shm") {
    std::fprintf(stderr, "grist_run: unknown transport '%s' (threads|shm)\n",
                 transport.c_str());
    return 2;
  }
  if (ckpt.every > 0 && ckpt.dir.empty()) {
    std::fprintf(stderr,
                 "grist_run: --checkpoint-every needs --checkpoint-dir\n");
    return 2;
  }
  if (!ckpt.dir.empty() && ckpt.every == 0) {
    std::fprintf(stderr,
                 "grist_run: --checkpoint-dir needs --checkpoint-every\n");
    return 2;
  }
  if (seed_given && ensemble == 0) {
    std::fprintf(stderr, "grist_run: --perturb-seed needs --ensemble\n");
    return 2;
  }
  if (ensemble > 0 && (ranks > 1 || transport == "shm")) {
    std::fprintf(stderr,
                 "grist_run: --ensemble runs single-rank (drop --ranks/"
                 "--transport shm)\n");
    return 2;
  }
  Config config;
  try {
    config = Config::fromFile(pos[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "grist_run: %s\n", e.what());
    return 2;
  }
  // The namelist's restart keys mean the same in every run mode; --restart
  // takes precedence over restart_in.
  if (ckpt.restart.empty()) ckpt.restart = config.getString("restart_in", "");
  ckpt.restart_out = config.getString("restart_out", "");
  if (ensemble > 0 && (ckpt.every > 0 || !ckpt.dir.empty() ||
                       !ckpt.restart.empty() || !ckpt.restart_out.empty())) {
    std::fprintf(stderr,
                 "grist_run: --ensemble does not combine with "
                 "checkpoint/restart flags or restart_in/restart_out\n");
    return 2;
  }
  if (!ckpt.restart.empty() && !fileExists(ckpt.restart)) {
    std::fprintf(stderr, "grist_run: restart file not found: %s\n",
                 ckpt.restart.c_str());
    return 2;
  }

  const int steps = pos.size() > 1
                        ? numberOrExit("steps", pos[1], 0, INT_MAX)
                        : config.getInt("steps", 48);

  if (ensemble > 0) {
    try {
      return runEnsemble(config, steps, ensemble, perturb_seed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "grist_run: %s\n", e.what());
      return 2;
    }
  }

  if (ranks > 1 || transport == "shm") {
    dycore::DycoreConfig cfg;
    try {
      cfg = core::parseDycoreConfig(config);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "grist_run: %s\n", e.what());
      return 2;
    }
    try {
      return runMultiRank(config, cfg, steps, ranks, transport, pin,
                          wire_latency, ckpt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "grist_run: %s\n", e.what());
      return 1;
    }
  }

  std::unique_ptr<core::ModelBundle> bundle;
  try {
    bundle = core::makeModelFromConfig(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "grist_run: %s\n", e.what());
    return 2;
  }
  core::Model& model = *bundle->model;
  const grid::HexMesh& mesh = bundle->mesh;

  if (!ckpt.restart.empty()) {
    try {
      model.restore(io::Snapshot::read(ckpt.restart));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "grist_run: %s\n", e.what());
      return 2;
    }
    std::printf("resumed from %s at sim day %.3f (step %ld)\n",
                ckpt.restart.c_str(), model.simDays(), model.dynSteps());
  }

  const int report = std::max(1, config.getInt("report_interval", 12));
  std::printf("scheme %s, grid G%d (%d cells), %d steps\n", model.schemeName(),
              config.getInt("grid_level", 4), mesh.ncells, steps);

  Timer timer;
  for (int s = 0; s < steps; ++s) {
    model.step();
    if (ckpt.every > 0 &&
        ((s + 1) % ckpt.every == 0 || s + 1 == steps)) {
      const std::string path =
          io::writeCheckpoint(ckpt.dir, model.snapshot(), model.dynSteps());
      std::printf("checkpoint: step %ld -> %s\n", model.dynSteps(),
                  path.c_str());
    }
    if ((s + 1) % report == 0) {
      double rain_max = 0;
      for (const double r : model.meanPrecipRate()) rain_max = std::max(rain_max, r);
      std::printf("step %6d  sim day %8.3f  KE %.4e  max rain %7.2f mm/d\n", s + 1,
                  model.simDays(), dycore::totalKineticEnergy(mesh, model.state()),
                  rain_max);
    }
  }
  const double wall = timer.elapsed();
  std::printf("done: %.3f simulated days in %.1f s wall (%.1f SDPD on this host)\n",
              model.simDays(), wall, model.simDays() / (wall / 86400.0));

  if (!ckpt.restart_out.empty()) {
    model.snapshot().write(ckpt.restart_out);
    std::printf("restart written to %s\n", ckpt.restart_out.c_str());
  }
  return 0;
}
