#include "workloads.hpp"

#include <omp.h>
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "bench_core.hpp"
#include "grist/backend/simd.hpp"
#include "grist/common/hash.hpp"
#include "grist/core/ensemble_runner.hpp"
#include "grist/core/model.hpp"
#include "grist/core/parallel_model.hpp"
#include "grist/dycore/diagnostics.hpp"
#include "grist/dycore/init.hpp"
#include "grist/dycore/tracer.hpp"
#include "grist/dycore/vertical_remap.hpp"
#include "grist/io/snapshot.hpp"
#include "grist/partition/partitioner.hpp"
#include "training.hpp"

namespace perfbench {

using namespace grist;

namespace {

// ---- workload table ---------------------------------------------------------

enum class Kind { kModel, kEnsemble, kRanks };

struct Spec {
  const char* name;
  Kind kind;
  int level;
  precision::NsMode ns;
  core::PhysicsScheme scheme;
  int ckpt_every;  ///< 0 = no checkpoints
  int members;
  int ranks;
};

constexpr precision::NsMode kDp = precision::NsMode::kDouble;
constexpr precision::NsMode kMix = precision::NsMode::kSingle;
constexpr core::PhysicsScheme kPhy = core::PhysicsScheme::kConventional;
constexpr core::PhysicsScheme kMl = core::PhysicsScheme::kMl;

const Spec kSpecs[] = {
    {"wx_g5_dp_phy_ckpt", Kind::kModel, 5, kDp, kPhy, 30, 1, 1},
    {"clim_g5_mix_ml", Kind::kModel, 5, kMix, kMl, 0, 1, 1},
    {"ens8_g4_dp_ml", Kind::kEnsemble, 4, kDp, kMl, 0, 8, 1},
    {"ranks4_g5_dyn", Kind::kRanks, 5, kDp, kPhy, 0, 1, 4},
};

const Spec& spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Relative dry-mass drift allowed over a run. Measured worst cases over 20
/// seeds x 500-700 steps per workload: DP 1.3e-14 (ranks4), 3.2e-15 (wx),
/// 2.4e-15 (ens8); MIX 3.9e-11 (clim). The bounds leave a ~75x margin.
double dryMassBound(precision::NsMode ns) { return ns == kDp ? 1e-12 : 3e-9; }

/// Untimed warm-up steps after set-up: a full checkpoint window and two
/// physics calls (one with radiation), so arenas and OpenMP teams are warm.
constexpr long kWarmupSteps = 30;
/// End-to-end runs stop on a multiple of this step count (two physics
/// windows, one checkpoint window) so every window holds whole cycles.
constexpr long kAlign = 30;
/// dyn_step_ms_p95 needs 200 dyn-class samples (kMinBeyond above its rank).
constexpr std::size_t kNeedDyn = 200;
/// Steps the traced run is compared over against the untraced Model run
/// (covers every step class, a radiation call and three checkpoints).
constexpr long kParitySteps = 90;
/// Single-thread Dycore::step samples for parallel.serial_step_ms_p50.
constexpr long kSerialSteps = 24;
/// Host reference kernel cadence (one lcm(8, 15) cadence cycle).
constexpr long kRefEvery = 120;

dycore::DycoreConfig dycoreConfig(const Spec& s) {
  dycore::DycoreConfig d;
  d.nlev = kNlev;
  d.dt = 300.0;
  d.ns = s.ns;
  d.ntracers = s.kind == Kind::kRanks ? 1 : 3;
  return d;
}

core::ModelConfig modelConfig(const Spec& s, const Nets& nets) {
  core::ModelConfig mc;
  mc.dyn = dycoreConfig(s);
  mc.scheme = s.scheme;
  mc.q1q2 = nets.q1q2;
  mc.rad_mlp = nets.rad;
  return mc;
}

/// Perturbation seed of the solo/rank runs: the ensemble base seed's
/// member 0, so a solo run is seed-matched to ensemble member 0. The base
/// seed is seed + 1 because base 0 disables ensemble perturbation.
std::uint64_t baseSeed(std::uint64_t seed) { return seed + 1 ? seed + 1 : 1; }
std::uint64_t soloSeed(std::uint64_t seed) {
  return core::EnsembleRunner::memberSeed(baseSeed(seed), 0);
}

// ---- checks ---------------------------------------------------------------

class Checks {
 public:
  /// Count one check; `failure` empty means it passed.
  void record(const std::string& failure) {
    ++attempted_;
    if (failure.empty()) return;
    ++failed_;
    if (failures_.size() < 8) failures_.push_back(failure);
  }
  bool ok() const { return failed_ == 0; }
  void into(RunResult& r) const {
    r.attempted = attempted_;
    r.failed = failed_;
    r.failures = failures_;
  }

 private:
  long attempted_ = 0, failed_ = 0;
  std::vector<std::string> failures_;
};

std::string nonFinite(const char* field, const char* entity,
                      const parallel::Field& f) {
  const double* d = f.data();
  const long n = static_cast<long>(f.size());
  long first = n;
#pragma omp parallel for schedule(static) reduction(min : first)
  for (long i = 0; i < n; ++i) {
    if (!std::isfinite(d[i]) && i < first) first = i;
  }
  if (first == n) return {};
  const int nc = f.components();
  return std::string("non-finite ") + field + " at " + entity + " " +
         std::to_string(first / nc) + " level " + std::to_string(first % nc);
}

/// First non-finite prognostic value, naming field, entity and level.
std::string firstNonFinite(const dycore::State& s) {
  std::string e;
  if (!(e = nonFinite("delp", "cell", s.delp)).empty()) return e;
  if (!(e = nonFinite("u", "edge", s.u)).empty()) return e;
  if (!(e = nonFinite("w", "cell", s.w)).empty()) return e;
  if (!(e = nonFinite("theta", "cell", s.theta)).empty()) return e;
  if (!(e = nonFinite("phi", "cell", s.phi)).empty()) return e;
  for (std::size_t t = 0; t < s.tracers.size(); ++t) {
    const std::string name = "tracer" + std::to_string(t);
    if (!(e = nonFinite(name.c_str(), "cell", s.tracers[t])).empty()) return e;
  }
  return {};
}

std::string finiteCheck(const dycore::State& s, long step, const char* who) {
  std::string e = firstNonFinite(s);
  if (e.empty()) return e;
  return std::string(who) + ": " + e + " at step " + std::to_string(step);
}

std::string dryMassCheck(double drift, double bound, long step, const char* who) {
  if (std::isfinite(drift) && drift <= bound) return {};
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: dry-mass drift %.3e exceeds %.1e at step %ld",
                who, drift, bound, step);
  return buf;
}

/// FNV-1a over every prognostic field (+ land/precip when given).
std::uint64_t fingerprint(const dycore::State& s,
                          const std::vector<double>* tskin = nullptr,
                          const std::vector<double>* precip = nullptr) {
  std::uint64_t h = common::kFnvOffsetBasis;
  const auto mix = [&h](const double* p, std::size_t n) {
    h = common::fnv1a(p, n * sizeof(double), h);
  };
  for (const parallel::Field* f : {&s.delp, &s.u, &s.w, &s.theta, &s.phi}) {
    mix(f->data(), f->size());
  }
  for (const auto& t : s.tracers) mix(t.data(), t.size());
  if (tskin) mix(tskin->data(), tskin->size());
  if (precip) mix(precip->data(), precip->size());
  return h;
}

std::uint64_t fileFingerprint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  return common::fnv1a(bytes.data(), bytes.size());
}

// ---- host reference kernel --------------------------------------------------

/// A fixed compute-bound OpenMP kernel over 1 MB, timed between cadence
/// cycles: the host's own speed at the moment, recorded as context with
/// every result. Small, so it adds nothing noticeable to peak_rss_mb.
class HostRef {
 public:
  HostRef() : x_(kN, 1.0) {}
  void sample() {
    for (int rep = 0; rep < 3; ++rep) {
      const double t0 = now();
      double* x = x_.data();
#pragma omp parallel for schedule(static)
      for (long i = 0; i < kN; ++i) {
        double v = x[i];
        for (int k = 0; k < 64; ++k) v = v * 0.999999 + 1e-6;
        x[i] = v;
      }
      ms_.push_back((now() - t0) * 1e3);
    }
  }
  double medianMs() const { return median(ms_); }
  bool sane() const { return std::isfinite(x_[kN / 2]); }

 private:
  static constexpr long kN = 1L << 17;
  std::vector<double> x_;
  std::vector<double> ms_;
};

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- step logs ------------------------------------------------------------

struct StepLog {
  std::vector<double> ms[kNumStepClasses];
  std::vector<double> ckpt_ms;
  double timed_s = 0.0;  ///< steps + checkpoints, excluding checks
  long steps = 0;
  std::vector<double>& of(StepClass c) { return ms[static_cast<int>(c)]; }
  void add(StepClass c, double seconds) {
    of(c).push_back(seconds * 1e3);
    timed_s += seconds;
    ++steps;
  }
};

/// Stop rule of a timed window, checked on aligned steps only: at least
/// `seconds` of wall time and enough dyn samples for the recorded p95, or
/// `cap` seconds, whichever comes first.
struct StopRule {
  double seconds = 0.0;
  long align = 1;
  std::size_t need_dyn = 0;
  double cap = 0.0;
  bool done(const StepLog& log, long step, double elapsed) const {
    if (step % align != 0) return false;
    return elapsed >= cap || (elapsed >= seconds && log.ms[0].size() >= need_dyn);
  }
};

// ---- set-up -------------------------------------------------------------------

/// One set-up, phase by phase (seconds; the first step in ms).
struct SetupTimes {
  double total = 0, mesh = 0, trsk = 0, nets = 0, init = 0, model = 0,
         first_step_ms = 0;
};

/// Everything a run references, built in the order a user's program does.
struct World {
  std::unique_ptr<grid::HexMesh> mesh;
  std::unique_ptr<grid::TrskWeights> trsk;
  Nets nets;
  dycore::State initial;  ///< perturbed initial state (kept for reruns)
  double dry_mass0 = 0.0;
  std::unique_ptr<core::Model> model;
  std::unique_ptr<core::EnsembleRunner> ensemble;
  std::unique_ptr<core::ParallelModel> ranks;
};

core::EnsembleConfig ensembleConfig(const Spec& s, const Nets& nets,
                                    std::uint64_t seed) {
  core::EnsembleConfig ec;
  ec.model = modelConfig(s, nets);
  ec.members = s.members;
  ec.perturb_seed = baseSeed(seed);
  return ec;
}

/// Build the world: mesh -> TRSK -> nets from file -> initial state ->
/// driver -> first (cold) step, timing each phase.
std::unique_ptr<World> buildWorld(const Spec& s, const RunOptions& opt,
                                  SetupTimes& t) {
  auto w = std::make_unique<World>();
  const double t0 = now();
  w->mesh = std::make_unique<grid::HexMesh>(grid::buildHexMesh(s.level));
  const double t1 = now();
  w->trsk = std::make_unique<grid::TrskWeights>(grid::buildTrskWeights(*w->mesh));
  const double t2 = now();
  if (s.scheme == kMl) {
    w->nets = opt.untrained_nets
                  ? untrainedNets()
                  : loadNets(WeightFiles{opt.q1q2_path, opt.rad_path,
                                         opt.q1q2_fingerprint, opt.rad_fingerprint});
  }
  const double t3 = now();
  const dycore::DycoreConfig dyn = dycoreConfig(s);
  w->initial = dycore::initBaroclinicWave(*w->mesh, dyn, dyn.ntracers);
  if (s.kind != Kind::kEnsemble) {
    core::EnsembleRunner::perturbState(w->initial, soloSeed(opt.seed), 1e-3);
  }
  const double t4 = now();
  switch (s.kind) {
    case Kind::kModel:
      w->model = std::make_unique<core::Model>(*w->mesh, *w->trsk,
                                               modelConfig(s, w->nets), w->initial);
      break;
    case Kind::kEnsemble:
      w->ensemble = std::make_unique<core::EnsembleRunner>(
          *w->mesh, *w->trsk, ensembleConfig(s, w->nets, opt.seed), w->initial);
      break;
    case Kind::kRanks:
      w->ranks = std::make_unique<core::ParallelModel>(*w->mesh, *w->trsk, dyn,
                                                       s.ranks, w->initial);
      break;
  }
  const double t5 = now();
  if (w->model) w->model->step();
  if (w->ensemble) w->ensemble->step();
  if (w->ranks) w->ranks->step();
  const double t6 = now();
  t = SetupTimes{t6 - t0, t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4,
                 (t6 - t5) * 1e3};
  w->dry_mass0 = dycore::totalDryMass(*w->mesh, w->initial);
  return w;
}

double relDrift(double m, double m0) { return std::abs(m - m0) / m0; }

// ---- the traced driver ------------------------------------------------------

enum SpanName {
  kSpanStep,
  kSpanCheckpoint,
  kSpanDycore,
  kSpanTransport,
  kSpanRemap,
  kSpanToPhysics,
  kSpanSuite,
  kSpanSuiteRad,
  kSpanMl,
  kSpanApply,
  kSpanCapture,
  kSpanWrite,
  kNumSpans
};

const char* const kSpanNames[kNumSpans] = {
    "step",          "checkpoint",        "dycore",        "tracer.transport",
    "tracer.remap",  "coupler.to_physics", "physics.suite", "physics.suite_rad",
    "ml.suite",      "coupler.apply",     "io.capture",    "io.write"};

/// Named layers must account for this share of the traced wall time.
constexpr double kMinCoverage = 0.95;

/// core::Model::step re-composed from the layers' public calls, in the same
/// order and with the same arguments, with a span around each call. It
/// must end at the untraced Model's fingerprint (checked on every traced
/// run), so its spans describe the program the end-to-end numbers time.
class TracedModel {
 public:
  TracedModel(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
              core::ModelConfig cfg, dycore::State initial)
      : mesh_(mesh),
        cfg_(std::move(cfg)),
        dycore_(mesh, trsk, cfg_.dyn),
        coupler_(mesh, cfg_.dyn.nlev),
        state_(std::move(initial)),
        delp_at_tracer_start_(state_.delp),
        tskin_(core::initialSkinTemperature(mesh)),
        precip_(mesh.ncells, 0.0),
        in_(mesh.ncells, cfg_.dyn.nlev),
        out_(mesh.ncells, cfg_.dyn.nlev) {
    if (cfg_.scheme == kMl) {
      suite_ = std::make_unique<ml::MlPhysicsSuite>(
          mesh.ncells, cfg_.dyn.nlev, cfg_.q1q2, cfg_.rad_mlp, cfg_.ml);
    } else {
      cfg_.conventional.grid_dx = mesh.meanSpacing();
      suite_ = std::make_unique<physics::ConventionalSuite>(
          mesh.ncells, cfg_.dyn.nlev, cfg_.conventional);
    }
    dycore_.resetAccumulatedFlux();
  }

  /// One dynamics step; returns its class.
  StepClass step(SpanLog& log) {
    const int root = log.begin(kSpanStep);
    int s = log.begin(kSpanDycore, root);
    dycore_.step(state_);
    log.end(s);
    ++steps_;
    sim_seconds_ += cfg_.dyn.dt;
    const StepClass c = classifyStep(steps_, cfg_.trac_interval, cfg_.phy_interval);
    if (steps_ % cfg_.trac_interval == 0) tracerStep(log, root);
    if (steps_ % cfg_.phy_interval == 0) physicsStep(log, root);
    log.end(root);
    return c;
  }

  /// Model::snapshot() + io::writeCheckpoint(); returns the path written.
  std::string checkpoint(SpanLog& log, const std::string& dir) {
    const int root = log.begin(kSpanCheckpoint);
    int s = log.begin(kSpanCapture, root);
    const io::Snapshot snap = snapshot();
    log.end(s);
    s = log.begin(kSpanWrite, root);
    std::string path = io::writeCheckpoint(dir, snap, steps_);
    log.end(s);
    log.end(root);
    return path;
  }

  const dycore::State& state() const { return state_; }
  const std::vector<double>& tskin() const { return tskin_; }
  const std::vector<double>& precip() const { return precip_; }
  long steps() const { return steps_; }

 private:
  void tracerStep(SpanLog& log, int root) {
    const int nsub = dycore_.accumulatedSteps();
    if (nsub == 0) return;
    int s = log.begin(kSpanTransport, root);
    parallel::Field mean_flux = dycore_.accumulatedMassFlux();
    for (std::size_t i = 0; i < mean_flux.size(); ++i) {
      mean_flux.data()[i] /= static_cast<double>(nsub);
    }
    dycore::TracerTransportArgs args;
    args.mesh = &mesh_;
    args.ncells_prog = mesh_.ncells;
    args.nlev = cfg_.dyn.nlev;
    args.dt = nsub * cfg_.dyn.dt;
    args.mean_flux = mean_flux.data();
    args.delp_old = delp_at_tracer_start_.data();
    args.delp_new = state_.delp.data();
    for (auto& tracer : state_.tracers) {
      dycore::tracerTransport(args, cfg_.dyn.ns, tracer.data());
    }
    dycore_.resetAccumulatedFlux();
    log.end(s);
    s = log.begin(kSpanRemap, root);
    dycore::verticalRemap(mesh_.ncells, cfg_.dyn.nlev, cfg_.dyn.ptop, state_);
    delp_at_tracer_start_ = state_.delp;
    log.end(s);
  }

  void physicsStep(SpanLog& log, int root) {
    const double dt_phy = cfg_.phy_interval * cfg_.dyn.dt;
    int s = log.begin(kSpanToPhysics, root);
    coupler_.stateToPhysics(state_, tskin_, sim_seconds_, in_);
    log.end(s);
    // ConventionalSuite runs radiation on its first call and every
    // radiation_interval-th call after it.
    const bool ml = cfg_.scheme == kMl;
    const bool rad = !ml && phys_calls_ % cfg_.conventional.radiation_interval == 0;
    ++phys_calls_;
    s = log.begin(ml ? kSpanMl : rad ? kSpanSuiteRad : kSpanSuite, root);
    suite_->run(in_, dt_phy, out_);
    log.end(s);
    s = log.begin(kSpanApply, root);
    coupler_.applyTendencies(out_, dt_phy, state_);
    tskin_ = out_.tskin_new;
    for (Index c = 0; c < mesh_.ncells; ++c) {
      precip_[c] += out_.precip[c] * dt_phy / 86400.0;
    }
    log.end(s);
  }

  // Model::snapshot() for the conventional scheme (the only checkpointing
  // workload), built from the same section captures.
  io::Snapshot snapshot() const {
    io::Snapshot snap;
    snap.state = io::StateSection::capture(state_);
    snap.land = tskin_;
    io::ClockSection clock;
    clock.sim_seconds = sim_seconds_;
    clock.dyn_steps = steps_;
    snap.clock = clock;
    io::DiagSection diag;
    diag.ncells = mesh_.ncells;
    diag.nedges = mesh_.nedges;
    diag.nlev = cfg_.dyn.nlev;
    diag.acc_steps = dycore_.accumulatedSteps();
    const parallel::Field& af = dycore_.accumulatedMassFlux();
    diag.acc_flux.assign(af.data(), af.data() + af.size());
    diag.delp_at_tracer_start.assign(
        delp_at_tracer_start_.data(),
        delp_at_tracer_start_.data() + delp_at_tracer_start_.size());
    diag.precip_accum = precip_;
    snap.diag = diag;
    io::ConfigSection cs;
    cs.grid_level = mesh_.level;
    cs.writer_nranks = 1;
    cs.nlev = cfg_.dyn.nlev;
    cs.ntracers = static_cast<std::int32_t>(state_.tracers.size());
    cs.trac_interval = cfg_.trac_interval;
    cs.phy_interval = cfg_.phy_interval;
    cs.dt = cfg_.dyn.dt;
    cs.ns_single = cfg_.dyn.ns == kMix ? 1 : 0;
    snap.config = cs;
    return snap;
  }

  const grid::HexMesh& mesh_;
  core::ModelConfig cfg_;
  dycore::Dycore dycore_;
  coupler::Coupler coupler_;
  std::unique_ptr<physics::PhysicsSuite> suite_;
  dycore::State state_;
  parallel::Field delp_at_tracer_start_;
  std::vector<double> tskin_, precip_;
  physics::PhysicsInput in_;
  physics::PhysicsOutput out_;
  double sim_seconds_ = 0.0;
  long steps_ = 0;
  long phys_calls_ = 0;
};

/// Self times (ms) grouped by span name.
std::vector<std::vector<double>> selfByName(const SpanLog& log) {
  const std::vector<double> self = selfTimes(log.spans());
  std::vector<std::vector<double>> by(kNumSpans);
  for (std::size_t i = 0; i < self.size(); ++i) {
    by[static_cast<std::size_t>(log.spans()[i].name)].push_back(self[i] * 1e3);
  }
  return by;
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// Read a checkpoint back through Snapshot::read (CRC-validated) and compare
/// its STATE, LAND and precipitation accumulator with the live run.
std::string readBackCheck(const std::string& path, const grid::HexMesh& mesh,
                          const dycore::State& live,
                          const std::vector<double>& tskin,
                          const std::vector<double>& precip, double* read_ms) {
  const double t0 = now();
  io::Snapshot snap;
  try {
    snap = io::Snapshot::read(path);
  } catch (const std::exception& e) {
    return std::string("checkpoint read-back failed: ") + e.what();
  }
  if (read_ms) *read_ms = (now() - t0) * 1e3;
  if (!snap.state || !snap.land || !snap.diag) {
    return "checkpoint read-back: missing STATE/LAND/DIAG section in " + path;
  }
  const dycore::State restored = snap.state->toState(mesh);
  if (fingerprint(restored, &*snap.land, &snap.diag->precip_accum) !=
      fingerprint(live, &tskin, &precip)) {
    return "checkpoint read-back: restored state differs from the live state in " +
           path;
  }
  return {};
}

// ---- metric tables ----------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (untraced runs), in BENCHMARK.json order.
const MetricDef kEndToEnd[] = {
    {"sdpd", "sday/day"},
    {"dyn_step_ms_p50", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics (traced runs), in BENCHMARK.json order. A layer a
/// workload does not exercise reads 0 there (see README.md).
const MetricDef kPerLayer[] = {
    {"dycore.step_ms_p50", "ms"},
    {"dycore.share", "frac"},
    {"tracer.transport_ms_p50", "ms"},
    {"tracer.remap_ms_p50", "ms"},
    {"coupler.to_physics_ms_p50", "ms"},
    {"coupler.apply_ms_p50", "ms"},
    {"physics.suite_ms_p50", "ms"},
    {"physics.suite_rad_ms_p50", "ms"},
    {"ml.suite_ms_p50", "ms"},
    {"ml.columns_per_s", "1/s"},
    {"io.capture_ms_p50", "ms"},
    {"io.write_ms_p50", "ms"},
    {"io.ckpt_mb", "MB"},
    {"io.write_mb_per_s", "MB/s"},
    {"io.read_ms", "ms"},
    {"parallel.step_ms_p50", "ms"},
    {"parallel.msgs_per_step", "count"},
    {"parallel.mb_per_step", "MB"},
    {"parallel.exchanges_per_step", "count"},
    {"partition.edge_cut", "count"},
    {"partition.max_imbalance", "frac"},
    {"parallel.serial_step_ms_p50", "ms"},
    {"parallel.efficiency", "frac"},
    {"ensemble.dyn_ms_per_member", "ms"},
    {"ensemble.trac_extra_ms", "ms"},
    {"ensemble.phys_extra_ms", "ms"},
    {"ensemble.batch_gain", "x"},
    {"setup.mesh_s", "s"},
    {"setup.trsk_s", "s"},
    {"setup.nets_load_s", "s"},
    {"setup.init_state_s", "s"},
    {"setup.model_s", "s"},
    {"setup.first_step_ms", "ms"},
    {"host.ref_ms", "ms"},
    {"trace.overhead_frac", "frac"},
    {"trace.coverage", "frac"},
};

// ---- per-workload runs --------------------------------------------------------

struct Ctx {
  const Spec& s;
  const RunOptions& opt;
  Checks checks;
  HostRef ref;
  std::map<std::string, double> values;  ///< this mode's metrics by name
  double max_drift = 0.0;                ///< largest dry-mass drift seen
  RunResult r;
  void extra(const std::string& name, double v, const char* unit) {
    r.extra.push_back({name, v, unit});
  }
};

/// Record a percentile under the reporting rule, with its sample count.
void percentile(Ctx& c, const std::string& name, const std::vector<double>& v,
                double q, bool gated) {
  c.extra(name + ".samples", static_cast<double>(v.size()), "count");
  const auto p = tailPercentile(v, q);
  if (!p) return;
  if (gated) {
    c.values[name] = p->value;
  } else {
    c.extra(name, p->value, "ms");
  }
}

/// sdpd, the step-class percentiles and the peak RSS of an untraced window.
/// Called as the window ends, so checks run after it (the checkpoint
/// read-back, the ensemble spread) do not count toward the peak.
void classMetrics(Ctx& c, const StepLog& log, double dt, int members) {
  c.values["peak_rss_mb"] = peakRssMb();
  const double sim_days = static_cast<double>(log.steps) * dt / 86400.0;
  c.values["sdpd"] = members * sim_days / (log.timed_s / 86400.0);
  percentile(c, "dyn_step_ms_p50", log.ms[0], 0.5, true);
  percentile(c, "dyn_step_ms_p95", log.ms[0], 0.95, false);
  percentile(c, "trac_step_ms_p50", log.ms[1], 0.5, false);
  percentile(c, "phys_step_ms_p50", log.ms[2], 0.5, false);
  if (!log.ckpt_ms.empty()) percentile(c, "ckpt_ms_p50", log.ckpt_ms, 0.5, false);
  c.extra("window_steps", static_cast<double>(log.steps), "count");
  c.extra("window_s", log.timed_s, "s");
}

/// Finiteness every step, dry mass every physics window.
void checkState(Ctx& c, const World& w, const dycore::State& st, long step,
                const char* who) {
  c.checks.record(finiteCheck(st, step, who));
  if (step % 15 == 0) {
    const double drift = relDrift(dycore::totalDryMass(*w.mesh, st), w.dry_mass0);
    c.max_drift = std::max(c.max_drift, drift);
    c.checks.record(dryMassCheck(drift, dryMassBound(c.s.ns), step, who));
  }
}

StopRule windowRule(const Ctx& c, std::size_t need_dyn) {
  const double s = c.opt.trace ? 0.6 * c.opt.seconds : c.opt.seconds;
  return StopRule{s, kAlign, need_dyn, 2.0 * c.opt.seconds + 30.0};
}

/// Steps one driver through warm-up and a timed window. `step` advances it
/// and returns the seconds the step took; `after` runs untimed checks.
template <typename StepFn, typename AfterFn>
StepLog timedWindow(Ctx& c, long& steps, int trac, int phy, const StopRule& rule,
                    long stop_at, StepFn step, AfterFn after) {
  while (steps < kWarmupSteps && c.checks.ok()) {
    step();
    after(steps, nullptr);
  }
  StepLog log;
  const double t0 = now();
  while (c.checks.ok()) {
    const double dt = step();
    log.add(classifyStep(steps, trac, phy), dt);
    after(steps, &log);
    if (steps % kRefEvery == 0) c.ref.sample();
    if (stop_at > 0 ? steps >= stop_at : rule.done(log, steps, now() - t0)) break;
  }
  return log;
}

/// Model untimed warm-up + timed window, checkpoints included.
StepLog modelWindow(Ctx& c, World& w, const StopRule& rule, const std::string& dir,
                    long stop_at) {
  core::Model& m = *w.model;
  long steps = m.dynSteps();
  const auto step = [&] {
    const double t0 = now();
    m.step();
    const double t = now() - t0;
    steps = m.dynSteps();
    return t;
  };
  const auto after = [&](long s, StepLog* log) {
    if (c.s.ckpt_every && s % c.s.ckpt_every == 0) {
      const double t0 = now();
      io::writeCheckpoint(dir, m.snapshot(), s);
      const double t = now() - t0;
      if (log) {
        log->ckpt_ms.push_back(t * 1e3);
        log->timed_s += t;
      }
    }
    checkState(c, w, m.state(), s, "model");
  };
  return timedWindow(c, steps, m.config().trac_interval, m.config().phy_interval,
                     rule, stop_at, step, after);
}

void modelEndToEnd(Ctx& c, World& w) {
  const std::string dir = c.opt.tmp_dir + "/ckpt";
  const StepLog log = modelWindow(c, w, windowRule(c, kNeedDyn), dir, 0);
  classMetrics(c, log, w.model->config().dyn.dt, 1);
  if (c.s.ckpt_every && c.checks.ok()) {
    const core::Model& m = *w.model;
    c.checks.record(readBackCheck(io::latestCheckpoint(dir), *w.mesh, m.state(),
                                  m.tskin(), m.accumulatedPrecip(), nullptr));
  }
}

void modelTraced(Ctx& c, World& w) {
  // Untraced reference: the set-up Model continued to kParitySteps.
  const std::string udir = c.opt.tmp_dir + "/ckpt-untraced";
  const std::string tdir = c.opt.tmp_dir + "/ckpt-traced";
  const StepLog ulog = modelWindow(c, w, {}, udir, kParitySteps);
  const core::Model& um = *w.model;
  const std::uint64_t ufp =
      fingerprint(um.state(), &um.tskin(), &um.accumulatedPrecip());
  const std::string uckpt = c.s.ckpt_every ? io::latestCheckpoint(udir) : "";

  // Traced run from the same initial state.
  TracedModel tm(*w.mesh, *w.trsk, modelConfig(c.s, w.nets), w.initial);
  SpanLog log(1 << 16);
  std::string last_ckpt;
  double parity_s = 0.0;  // traced time of the steps ulog timed
  long steps = 0;
  const auto step = [&] {
    const std::size_t root = log.spans().size();
    tm.step(log);
    steps = tm.steps();
    const double t = log.spans()[root].duration();
    if (steps > kWarmupSteps && steps <= kParitySteps) parity_s += t;
    return t;
  };
  const auto after = [&](long s, StepLog* slog) {
    if (c.s.ckpt_every && s % c.s.ckpt_every == 0) {
      const std::size_t root = log.spans().size();
      last_ckpt = tm.checkpoint(log, tdir);
      const double t = log.spans()[root].duration();
      if (slog) slog->timed_s += t;
      if (s > kWarmupSteps && s <= kParitySteps) parity_s += t;
    }
    checkState(c, w, tm.state(), s, "traced");
    if (s == kParitySteps) {
      const std::uint64_t tfp = fingerprint(tm.state(), &tm.tskin(), &tm.precip());
      c.checks.record(tfp == ufp ? ""
                                 : "traced fingerprint " + hex(tfp) +
                                       " != untraced Model " + hex(ufp) +
                                       " at step " + std::to_string(s));
      if (!uckpt.empty()) {
        c.checks.record(fileFingerprint(uckpt) == fileFingerprint(last_ckpt)
                            ? ""
                            : "traced checkpoint differs from Model::snapshot() at step " +
                                  std::to_string(s));
      }
    }
  };
  const core::ModelConfig& mc = um.config();
  timedWindow(c, steps, mc.trac_interval, mc.phy_interval, windowRule(c, 0), 0, step,
              after);
  if (tm.steps() < kParitySteps) {
    c.checks.record("traced run ended before the parity step " +
                    std::to_string(kParitySteps));
  }

  const auto by = selfByName(log);
  double wall = 0.0;
  for (const Span& sp : log.spans()) {
    if (sp.parent < 0) wall += sp.duration() * 1e3;
  }
  const auto med = [&](int n) { return median(by[static_cast<std::size_t>(n)]); };
  auto& v = c.values;
  v["dycore.step_ms_p50"] = med(kSpanDycore);
  v["dycore.share"] = sum(by[kSpanDycore]) / wall;
  v["tracer.transport_ms_p50"] = med(kSpanTransport);
  v["tracer.remap_ms_p50"] = med(kSpanRemap);
  v["coupler.to_physics_ms_p50"] = med(kSpanToPhysics);
  v["coupler.apply_ms_p50"] = med(kSpanApply);
  v["physics.suite_ms_p50"] = med(kSpanSuite);
  v["physics.suite_rad_ms_p50"] = med(kSpanSuiteRad);
  const double ml_ms = med(kSpanMl);
  v["ml.suite_ms_p50"] = ml_ms;
  v["ml.columns_per_s"] = ml_ms > 0 ? w.mesh->ncells / (ml_ms * 1e-3) : 0.0;
  if (c.s.ckpt_every && !last_ckpt.empty()) {
    const double wr = med(kSpanWrite);
    const double mb = static_cast<double>(std::filesystem::file_size(last_ckpt)) / 1e6;
    double read_ms = 0.0;
    c.checks.record(readBackCheck(last_ckpt, *w.mesh, tm.state(), tm.tskin(),
                                  tm.precip(), &read_ms));
    v["io.capture_ms_p50"] = med(kSpanCapture);
    v["io.write_ms_p50"] = wr;
    v["io.ckpt_mb"] = mb;
    v["io.write_mb_per_s"] = mb / (wr * 1e-3);
    v["io.read_ms"] = read_ms;
  }
  v["trace.overhead_frac"] = parity_s / ulog.timed_s - 1.0;
  const double coverage =
      1.0 - (sum(by[kSpanStep]) + sum(by[kSpanCheckpoint])) / wall;
  v["trace.coverage"] = coverage;
  c.checks.record(coverage >= kMinCoverage
                      ? ""
                      : "layer self times cover only " + std::to_string(coverage) +
                            " of the traced wall time");
  for (int n = kSpanDycore; n < kNumSpans; ++n) {
    c.extra(std::string("trace.calls.") + kSpanNames[n],
            static_cast<double>(by[static_cast<std::size_t>(n)].size()), "count");
  }
  c.extra("trace.steps", static_cast<double>(tm.steps()), "count");
  c.extra("trace.wall_ms", wall, "ms");
}

// -- ensemble --

void checkMembers(Ctx& c, const World& w, const core::EnsembleRunner& e, long step) {
  for (int m = 0; m < e.members(); ++m) {
    const std::string who = "member " + std::to_string(m);
    checkState(c, w, e.state(m), step, who.c_str());
  }
}

/// Spread across members must be finite and positive: a NaN state reads a
/// spread of 0, so positivity is not implied by finiteness of the members.
void spreadCheck(Ctx& c, const core::EnsembleRunner& e) {
  const double g = e.globalSpread();
  c.checks.record(std::isfinite(g) && g > 0.0
                      ? ""
                      : "ensemble spread " + std::to_string(g) +
                            " is not finite and positive at step " +
                            std::to_string(e.dynSteps()));
  c.extra("ensemble.global_spread_pa", g, "Pa");
}

StepLog ensembleWindow(Ctx& c, World& w, const StopRule& rule) {
  core::EnsembleRunner& e = *w.ensemble;
  long steps = e.dynSteps();
  const auto step = [&] {
    const double t0 = now();
    e.step();
    const double t = now() - t0;
    steps = e.dynSteps();
    return t;
  };
  const auto after = [&](long s, StepLog*) { checkMembers(c, w, e, s); };
  const core::ModelConfig& mc = e.config().model;
  return timedWindow(c, steps, mc.trac_interval, mc.phy_interval, rule, 0, step, after);
}

void ensembleEndToEnd(Ctx& c, World& w) {
  const StepLog log = ensembleWindow(c, w, windowRule(c, kNeedDyn));
  classMetrics(c, log, w.ensemble->config().model.dyn.dt, w.ensemble->members());
  spreadCheck(c, *w.ensemble);
}

void ensembleTraced(Ctx& c, World& w) {
  // The layers of an ensemble step come from step-class differencing.
  core::EnsembleRunner& e = *w.ensemble;
  const StepLog elog = ensembleWindow(c, w, windowRule(c, 0));
  spreadCheck(c, e);
  // Seed-matched solo Model of member 0 over the same steps: the batching
  // baseline, and a bitwise parity check of member 0.
  dycore::State s0 = w.initial;
  core::EnsembleRunner::perturbState(
      s0, core::EnsembleRunner::memberSeed(baseSeed(c.opt.seed), 0), 1e-3);
  core::Model solo(*w.mesh, *w.trsk, e.config().model, std::move(s0));
  double solo_s = 0.0;
  while (solo.dynSteps() < e.dynSteps()) {
    const double t0 = now();
    solo.step();
    if (solo.dynSteps() > e.dynSteps() - elog.steps) solo_s += now() - t0;
  }
  const std::uint64_t a = fingerprint(solo.state(), &solo.tskin(), &solo.accumulatedPrecip());
  const std::uint64_t b = fingerprint(e.state(0), &e.tskin(0), &e.accumulatedPrecip(0));
  c.checks.record(a == b ? ""
                         : "ensemble member 0 " + hex(b) + " != solo Model " + hex(a) +
                               " at step " + std::to_string(e.dynSteps()));

  const double dyn = median(elog.ms[0]);
  const int M = e.members();
  auto& v = c.values;
  v["dycore.step_ms_p50"] = dyn;
  v["dycore.share"] = dyn * 1e-3 * static_cast<double>(elog.steps) / elog.timed_s;
  v["ensemble.dyn_ms_per_member"] = dyn / M;
  v["ensemble.trac_extra_ms"] = median(elog.ms[1]) - dyn;
  v["ensemble.phys_extra_ms"] = median(elog.ms[2]) - dyn;
  v["ensemble.batch_gain"] = M * solo_s / elog.timed_s;
  v["trace.coverage"] = 1.0;  // whole steps are timed: nothing untraced
  c.extra("trace.steps", static_cast<double>(elog.steps), "count");
}

// -- ranks --

/// Messages, bytes and exchange rounds per step that the overlap schedule
/// implies: 4 rounds (3 RK stages + the vertical solve), one message per
/// neighbour pattern per round, carrying delp/theta (nlev), w/phi (nlev+1)
/// on cells and u (nlev) on edges.
parallel::CommStats expectedPerStep(const parallel::Decomposition& d, int nlev) {
  parallel::CommStats s;
  const std::int64_t cell = 2 * nlev + 2 * (nlev + 1), edge = nlev;
  for (const auto& p : d.patterns) {
    s.bytes += 4 * 8 * (p.nsend_cells * cell + p.nsend_edges * edge);
  }
  s.messages = 4 * static_cast<std::int64_t>(d.patterns.size());
  s.exchanges = 4;
  return s;
}

/// ParallelModel warm-up + timed window. Rank-local states are only
/// reachable through gatherState(), so the checks gather every kAlign steps
/// (untimed), and at step kSerialSteps when `parity_fp` asks for a fingerprint.
StepLog ranksWindow(Ctx& c, World& w, long& steps, const StopRule& rule,
                    parallel::CommStats& traffic, std::uint64_t* parity_fp) {
  core::ParallelModel& p = *w.ranks;
  const auto after = [&](long s) {
    const bool parity = parity_fp && s == kSerialSteps;
    if (s % kAlign != 0 && !parity) return;
    const dycore::State g = p.gatherState();
    checkState(c, w, g, s, "ranks");
    if (parity) *parity_fp = fingerprint(g);
  };
  while (steps < kWarmupSteps && c.checks.ok()) {
    p.step();
    after(++steps);
  }
  const parallel::CommStats s0 = p.commStats();
  StepLog out;
  const double t0 = now();
  while (c.checks.ok()) {
    const double ts = now();
    p.step();
    out.add(StepClass::kDyn, now() - ts);
    after(++steps);
    if (steps % kRefEvery == 0) c.ref.sample();
    if (rule.done(out, steps, now() - t0)) break;
  }
  const parallel::CommStats s1 = p.commStats();
  traffic.messages = s1.messages - s0.messages;
  traffic.bytes = s1.bytes - s0.bytes;
  traffic.exchanges = s1.exchanges - s0.exchanges;
  return out;
}

/// The window's CommStats must equal what the schedule implies, exactly.
void trafficCheck(Ctx& c, const core::ParallelModel& p, const parallel::CommStats& t,
                  long n) {
  const parallel::CommStats e = expectedPerStep(p.decomposition(), p.config().nlev);
  const bool match = t.messages == n * e.messages && t.bytes == n * e.bytes &&
                     t.exchanges == n * e.exchanges;
  c.checks.record(match ? ""
                        : "CommStats over " + std::to_string(n) + " steps: " +
                              std::to_string(t.messages) + " msgs, " +
                              std::to_string(t.bytes) + " B, " +
                              std::to_string(t.exchanges) +
                              " exchanges; the schedule implies " +
                              std::to_string(n * e.messages) + ", " +
                              std::to_string(n * e.bytes) + ", " +
                              std::to_string(n * e.exchanges));
}

void ranksEndToEnd(Ctx& c, World& w) {
  long steps = 1;  // set-up ran the first step
  parallel::CommStats traffic;
  const StepLog log =
      ranksWindow(c, w, steps, windowRule(c, kNeedDyn), traffic, nullptr);
  classMetrics(c, log, w.ranks->config().dt, 1);
  trafficCheck(c, *w.ranks, traffic, log.steps);
}

void ranksTraced(Ctx& c, World& w) {
  core::ParallelModel& p = *w.ranks;
  long steps = 1;
  parallel::CommStats traffic;
  std::uint64_t ranked_fp = 0;
  const StepLog rlog =
      ranksWindow(c, w, steps, windowRule(c, 0), traffic, &ranked_fp);
  trafficCheck(c, p, traffic, rlog.steps);

  // The HPC baseline: one thread stepping the same global problem with a
  // plain Dycore (ranks4 runs with OMP_NUM_THREADS=1). It must reach the
  // ranked run's state bitwise.
  dycore::Dycore dy(*w.mesh, *w.trsk, p.config());
  dycore::State st = w.initial;
  std::vector<double> serial_ms;
  for (long s = 1; s <= kSerialSteps; ++s) {
    const double t0 = now();
    dy.step(st);
    if (s > 1) serial_ms.push_back((now() - t0) * 1e3);
  }
  const std::uint64_t serial_fp = fingerprint(st);
  c.checks.record(serial_fp == ranked_fp
                      ? ""
                      : "ranked state " + hex(ranked_fp) + " != serial Dycore " +
                            hex(serial_fp) + " at step " + std::to_string(kSerialSteps));

  const auto q = partition::Partitioner::evaluate(*w.mesh, p.decomposition().cell_part);
  const double step_ms = median(rlog.ms[0]);
  const double serial = median(serial_ms);
  const double n = static_cast<double>(rlog.steps);
  auto& v = c.values;
  v["dycore.step_ms_p50"] = step_ms;
  v["dycore.share"] = 1.0;  // every step is a dycore-only step
  v["parallel.step_ms_p50"] = step_ms;
  v["parallel.msgs_per_step"] = static_cast<double>(traffic.messages) / n;
  v["parallel.mb_per_step"] = static_cast<double>(traffic.bytes) / n / 1e6;
  v["parallel.exchanges_per_step"] = static_cast<double>(traffic.exchanges) / n;
  v["partition.edge_cut"] = static_cast<double>(q.edge_cut);
  v["partition.max_imbalance"] = q.imbalance;
  v["parallel.serial_step_ms_p50"] = serial;
  v["parallel.efficiency"] = serial / (static_cast<double>(p.nranks()) * step_ms);
  v["trace.coverage"] = 1.0;  // whole steps are timed: nothing untraced
  c.extra("trace.steps", n, "count");
}

std::vector<Metric> setupMetrics(const SetupTimes& t) {
  return {{"setup_s", t.total, "s"},
          {"setup.mesh_s", t.mesh, "s"},
          {"setup.trsk_s", t.trsk, "s"},
          {"setup.nets_load_s", t.nets, "s"},
          {"setup.init_state_s", t.init, "s"},
          {"setup.model_s", t.model, "s"},
          {"setup.first_step_ms", t.first_step_ms, "ms"}};
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

void checkThreadBudget(const Spec& s) {
  const std::string e = threadBudgetError(s.ranks, omp_get_max_threads(), nproc());
  if (!e.empty()) throw std::runtime_error(std::string(s.name) + ": " + e);
}

}  // namespace

std::vector<Metric> measureSetup(const RunOptions& opt) {
  const Spec& s = spec(opt.workload);
  checkThreadBudget(s);
  SetupTimes st;
  buildWorld(s, opt, st);
  return setupMetrics(st);
}

RunResult runWorkload(const RunOptions& opt) {
  const Spec& s = spec(opt.workload);
  checkThreadBudget(s);
  const int procs = nproc();
  const int threads = omp_get_max_threads();

  Ctx c{s, opt, {}, {}, {}, 0.0, {}};
  c.ref.sample();
  SetupTimes st;
  std::unique_ptr<World> w = buildWorld(s, opt, st);
  switch (s.kind) {
    case Kind::kModel:
      opt.trace ? modelTraced(c, *w) : modelEndToEnd(c, *w);
      break;
    case Kind::kEnsemble:
      opt.trace ? ensembleTraced(c, *w) : ensembleEndToEnd(c, *w);
      break;
    case Kind::kRanks:
      opt.trace ? ranksTraced(c, *w) : ranksEndToEnd(c, *w);
      break;
  }
  c.ref.sample();
  c.checks.record(c.ref.sane() ? "" : "host reference kernel produced non-finite output");

  auto& v = c.values;
  for (const Metric& m : setupMetrics(st)) v[m.name] = m.value;
  v["host.ref_ms"] = c.ref.medianMs();

  RunResult& r = c.r;
  const auto report = [&](const MetricDef& m) {
    const Reported rep = reportMetric(v, m.name, opt.trace);
    c.checks.record(rep.failure);
    r.metrics.push_back({m.name, rep.value, m.unit});
  };
  if (opt.trace) {
    for (const MetricDef& m : kPerLayer) report(m);
  } else {
    for (const MetricDef& m : kEndToEnd) report(m);
  }
  c.checks.into(r);
  r.extra.push_back({"host.ref_ms", v["host.ref_ms"], "ms"});
  r.extra.push_back({"dry_mass.max_drift", c.max_drift, "frac"});
  r.context = {
      {"nproc", std::to_string(procs)},
      {"omp_threads", std::to_string(threads)},
      {"ranks", std::to_string(s.ranks)},
      {"simd_tier", backend::simd::tierName(backend::simd::activeTier())},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", PERFBENCH_COMPILER},
  };
  return r;
}

}  // namespace perfbench
