#include "grist/core/model.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "grist/common/math.hpp"
#include "grist/dycore/tracer.hpp"
#include "grist/dycore/vertical_remap.hpp"
#include "grist/physics/held_suarez.hpp"

namespace grist::core {

std::vector<double> initialSkinTemperature(const grid::HexMesh& mesh) {
  // Zonally symmetric SST-like profile: warm tropics, cold poles. Shared
  // with EnsembleRunner so ensemble members and solo models start from the
  // same land state (a parity precondition for the ENSEMBLE bitwise gate).
  std::vector<double> tskin(mesh.ncells);
  for (Index c = 0; c < mesh.ncells; ++c) {
    const double lat = mesh.cell_ll[c].lat;
    tskin[c] = 302.0 - 32.0 * std::pow(std::sin(lat), 2.0);
  }
  return tskin;
}

Model::Model(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
             ModelConfig config, dycore::State initial)
    : mesh_(mesh),
      config_(std::move(config)),
      dycore_(mesh, trsk, config_.dyn),
      coupler_(mesh, config_.dyn.nlev),
      state_(std::move(initial)),
      delp_at_tracer_start_(state_.delp),
      mean_flux_(mesh.nedges, config_.dyn.nlev),
      tskin_(initialSkinTemperature(mesh)),
      precip_accum_(mesh.ncells, 0.0),
      phys_in_(mesh.ncells, config_.dyn.nlev),
      phys_out_(mesh.ncells, config_.dyn.nlev) {
  if (state_.tracers.size() < 3) {
    throw std::invalid_argument("Model: state needs >= 3 tracers (qv, qc, qr)");
  }
  if (config_.trac_interval < 1 || config_.phy_interval < 1) {
    throw std::invalid_argument("Model: bad timestep hierarchy");
  }
  if (config_.scheme == PhysicsScheme::kHeldSuarez) {
    suite_ = std::make_unique<physics::HeldSuarezSuite>();
  } else if (config_.scheme == PhysicsScheme::kMl) {
    if (!config_.q1q2 || !config_.rad_mlp) {
      throw std::invalid_argument("Model: ML scheme requires trained networks");
    }
    suite_ = std::make_unique<ml::MlPhysicsSuite>(
        mesh.ncells, config_.dyn.nlev, config_.q1q2, config_.rad_mlp, config_.ml);
  } else {
    // Scale-aware convection: pass the mesh's own spacing.
    config_.conventional.grid_dx = mesh.meanSpacing();
    suite_ = std::make_unique<physics::ConventionalSuite>(
        mesh.ncells, config_.dyn.nlev, config_.conventional);
  }
  dycore_.resetAccumulatedFlux();
}

void Model::resyncAfterRestart() {
  dycore_.resetAccumulatedFlux();
  delp_at_tracer_start_ = state_.delp;
  dyn_steps_ = 0;
}

void Model::setTskin(std::vector<double> tskin) {
  if (static_cast<Index>(tskin.size()) != mesh_.ncells) {
    throw std::invalid_argument("Model::setTskin: size mismatch");
  }
  tskin_ = std::move(tskin);
}

const char* Model::schemeName() const {
  return schemeLabel(config_.dyn.ns, config_.scheme);
}

io::Snapshot Model::snapshot() const {
  io::Snapshot snap;
  snap.state = io::StateSection::capture(state_);
  snap.land = tskin_;

  io::ClockSection clock;
  clock.sim_seconds = sim_seconds_;
  clock.dyn_steps = dyn_steps_;
  snap.clock = clock;

  io::DiagSection diag;
  diag.ncells = mesh_.ncells;
  diag.nedges = mesh_.nedges;
  diag.nlev = config_.dyn.nlev;
  diag.acc_steps = dycore_.accumulatedSteps();
  const parallel::Field& af = dycore_.accumulatedMassFlux();
  diag.acc_flux.assign(af.data(), af.data() + af.size());
  diag.delp_at_tracer_start.assign(
      delp_at_tracer_start_.data(),
      delp_at_tracer_start_.data() + delp_at_tracer_start_.size());
  diag.precip_accum = precip_accum_;
  snap.diag = diag;

  io::ConfigSection cs;
  cs.grid_level = mesh_.level;
  cs.writer_nranks = 1;
  cs.nlev = config_.dyn.nlev;
  cs.ntracers = static_cast<std::int32_t>(state_.tracers.size());
  cs.trac_interval = config_.trac_interval;
  cs.phy_interval = config_.phy_interval;
  cs.dt = config_.dyn.dt;
  cs.ns_single = config_.dyn.ns == precision::NsMode::kSingle ? 1 : 0;
  snap.config = cs;

  if (config_.scheme == PhysicsScheme::kMl) {
    io::MlWeightsSection ml;
    ml.q1q2_fingerprint = config_.q1q2->weightFingerprint();
    ml.rad_fingerprint = config_.rad_mlp->weightFingerprint();
    ml.q1q2_bf16_version = config_.q1q2->quantizedVersion(ml::Precision::kBf16);
    ml.q1q2_int8_version = config_.q1q2->quantizedVersion(ml::Precision::kInt8);
    ml.rad_bf16_version = config_.rad_mlp->quantizedVersion(ml::Precision::kBf16);
    ml.rad_int8_version = config_.rad_mlp->quantizedVersion(ml::Precision::kInt8);
    snap.ml = ml;
  }
  return snap;
}

void Model::restore(const io::Snapshot& snap) {
  if (!snap.state) {
    throw std::runtime_error("Model::restore: snapshot has no STATE section");
  }
  const auto mismatch = [](const char* field, double have, double want) {
    throw std::runtime_error("Model::restore: CONFIG mismatch: " +
                             std::string(field) + " " + std::to_string(have) +
                             " (checkpoint) vs " + std::to_string(want) +
                             " (run)");
  };
  if (snap.config) {
    const io::ConfigSection& cs = *snap.config;
    if (cs.nlev != config_.dyn.nlev) mismatch("nlev", cs.nlev, config_.dyn.nlev);
    if (cs.ntracers != static_cast<std::int32_t>(state_.tracers.size())) {
      mismatch("ntracers", cs.ntracers,
               static_cast<double>(state_.tracers.size()));
    }
    if (cs.dt != config_.dyn.dt) mismatch("dt", cs.dt, config_.dyn.dt);
    const std::uint8_t ns =
        config_.dyn.ns == precision::NsMode::kSingle ? 1 : 0;
    if (cs.ns_single != ns) mismatch("ns_single", cs.ns_single, ns);
    if (cs.trac_interval != config_.trac_interval) {
      mismatch("trac_interval", cs.trac_interval, config_.trac_interval);
    }
    if (cs.phy_interval != config_.phy_interval) {
      mismatch("phy_interval", cs.phy_interval, config_.phy_interval);
    }
  }
  if (snap.ml && config_.scheme == PhysicsScheme::kMl) {
    if (snap.ml->q1q2_fingerprint != config_.q1q2->weightFingerprint()) {
      throw std::runtime_error(
          "Model::restore: MLWT mismatch: q1q2 weight fingerprint differs "
          "from the checkpointed net");
    }
    if (snap.ml->rad_fingerprint != config_.rad_mlp->weightFingerprint()) {
      throw std::runtime_error(
          "Model::restore: MLWT mismatch: rad_mlp weight fingerprint differs "
          "from the checkpointed net");
    }
  }

  snap.state->restoreTo(state_);
  if (snap.land) setTskin(*snap.land);
  if (snap.clock) {
    sim_seconds_ = snap.clock->sim_seconds;
    // Legacy files do not record the step count (-1): start a fresh cadence.
    dyn_steps_ = snap.clock->dyn_steps >= 0 ? snap.clock->dyn_steps : 0;
  }
  if (snap.diag) {
    const io::DiagSection& d = *snap.diag;
    if (d.ncells != mesh_.ncells || d.nedges != mesh_.nedges ||
        d.nlev != config_.dyn.nlev) {
      throw std::runtime_error("Model::restore: DIAG shape mismatch");
    }
    parallel::Field flux(mesh_.nedges, config_.dyn.nlev);
    std::memcpy(flux.data(), d.acc_flux.data(),
                d.acc_flux.size() * sizeof(double));
    dycore_.restoreAccumulatedFlux(flux, d.acc_steps);
    std::memcpy(delp_at_tracer_start_.data(), d.delp_at_tracer_start.data(),
                d.delp_at_tracer_start.size() * sizeof(double));
    precip_accum_ = d.precip_accum;
  } else {
    // No accumulator windows (legacy / dynamics-only snapshot): reset the
    // flux window, exact only at tracer-step boundaries.
    dycore_.resetAccumulatedFlux();
    delp_at_tracer_start_ = state_.delp;
  }
}

void Model::step() {
  dycore_.step(state_);
  ++dyn_steps_;
  sim_seconds_ += config_.dyn.dt;
  if (dyn_steps_ % config_.trac_interval == 0) tracerStep();
  if (dyn_steps_ % config_.phy_interval == 0) physicsStep();
}

void Model::run(int ndyn_steps) {
  for (int i = 0; i < ndyn_steps; ++i) step();
}

void Model::tracerStep() {
  const int nsub = dycore_.accumulatedSteps();
  if (nsub == 0) return;
  // Window-mean mass flux into the constructor-owned scratch (no warm-path
  // allocation).
  const parallel::Field& acc = dycore_.accumulatedMassFlux();
  for (std::size_t i = 0; i < acc.size(); ++i) {
    mean_flux_.data()[i] = acc.data()[i] / static_cast<double>(nsub);
  }
  dycore::TracerTransportArgs args;
  args.mesh = &mesh_;
  args.ncells_prog = mesh_.ncells;
  args.nlev = config_.dyn.nlev;
  args.dt = nsub * config_.dyn.dt;
  args.mean_flux = mean_flux_.data();
  args.delp_old = delp_at_tracer_start_.data();
  args.delp_new = state_.delp.data();
  for (auto& tracer : state_.tracers) {
    dycore::tracerTransport(args, config_.dyn.ns, tracer.data());
  }
  dycore_.resetAccumulatedFlux();
  // Vertically-Lagrangian layers drift between remaps; bring the columns
  // back to reference levels on the tracer cadence (as production
  // mass-coordinate cores do) so thin layers cannot be drained to zero.
  dycore::verticalRemap(mesh_.ncells, config_.dyn.nlev, config_.dyn.ptop, state_);
  delp_at_tracer_start_ = state_.delp;
}

void Model::physicsStep() {
  const double dt_phy = config_.phy_interval * config_.dyn.dt;
  coupler_.stateToPhysics(state_, tskin_, sim_seconds_, phys_in_);
  suite_->run(phys_in_, dt_phy, phys_out_);
  coupler_.applyTendencies(phys_out_, dt_phy, state_);
  // Land state and precipitation bookkeeping.
  tskin_ = phys_out_.tskin_new;
  for (Index c = 0; c < mesh_.ncells; ++c) {
    precip_accum_[c] += phys_out_.precip[c] * dt_phy / 86400.0;  // mm
  }
}

std::vector<double> Model::meanPrecipRate() const {
  std::vector<double> rate(precip_accum_.size(), 0.0);
  const double days = simDays();
  if (days <= 0) return rate;
  for (std::size_t c = 0; c < rate.size(); ++c) rate[c] = precip_accum_[c] / days;
  return rate;
}

} // namespace grist::core
