#include "grist/core/model.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "grist/common/math.hpp"
#include "grist/core/checkpoint.hpp"
#include "grist/dycore/tracer.hpp"
#include "grist/dycore/vertical_remap.hpp"
#include "grist/physics/held_suarez.hpp"

namespace grist::core {

std::vector<double> initialSkinTemperature(const grid::HexMesh& mesh) {
  // Zonally symmetric SST-like profile: warm tropics, cold poles. Every
  // member starts from it, so ensemble members and solo models start from
  // the same land state (a parity precondition for the ENSEMBLE bitwise
  // gate).
  std::vector<double> tskin(mesh.ncells);
  for (Index c = 0; c < mesh.ncells; ++c) {
    const double lat = mesh.cell_ll[c].lat;
    tskin[c] = 302.0 - 32.0 * std::pow(std::sin(lat), 2.0);
  }
  return tskin;
}

namespace {

std::vector<dycore::State> oneMember(dycore::State state) {
  std::vector<dycore::State> members;
  members.push_back(std::move(state));
  return members;
}

} // namespace

Model::Model(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
             ModelConfig config, dycore::State initial)
    : Model(mesh, trsk, std::move(config), oneMember(std::move(initial))) {}

Model::Model(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
             ModelConfig config, std::vector<dycore::State> members)
    : mesh_(mesh),
      config_(std::move(config)),
      dycore_(mesh, trsk, config_.dyn, static_cast<int>(members.size())),
      coupler_(mesh, config_.dyn.nlev),
      mean_flux_(mesh.nedges, config_.dyn.nlev) {
  for (const dycore::State& s : members) {
    if (s.tracers.size() < 3) {
      throw std::invalid_argument("Model: state needs >= 3 tracers (qv, qc, qr)");
    }
  }
  if (config_.trac_interval < 1 || config_.phy_interval < 1) {
    throw std::invalid_argument("Model: bad timestep hierarchy");
  }
  if (config_.scheme == PhysicsScheme::kMl && (!config_.q1q2 || !config_.rad_mlp)) {
    throw std::invalid_argument("Model: ML scheme requires trained networks");
  }
  // Scale-aware convection: pass the mesh's own spacing.
  if (config_.scheme == PhysicsScheme::kConventional) {
    config_.conventional.grid_dx = mesh.meanSpacing();
  }
  const int nlev = config_.dyn.nlev;
  const auto makeSuite = [&]() -> std::unique_ptr<physics::PhysicsSuite> {
    if (config_.scheme == PhysicsScheme::kHeldSuarez) {
      return std::make_unique<physics::HeldSuarezSuite>();
    }
    if (config_.scheme == PhysicsScheme::kMl) {
      return std::make_unique<ml::MlPhysicsSuite>(mesh.ncells, nlev, config_.q1q2,
                                                  config_.rad_mlp, config_.ml);
    }
    return std::make_unique<physics::ConventionalSuite>(mesh.ncells, nlev,
                                                        config_.conventional);
  };
  members_.reserve(members.size());
  state_ptrs_.reserve(members.size());
  for (dycore::State& s : members) {
    parallel::Field delp = s.delp;
    members_.push_back(Member{std::move(s), makeSuite(),
                              physics::PhysicsInput(mesh.ncells, nlev),
                              physics::PhysicsOutput(mesh.ncells, nlev),
                              std::move(delp), initialSkinTemperature(mesh),
                              std::vector<double>(mesh.ncells, 0.0)});
    state_ptrs_.push_back(&members_.back().state);
  }
  dycore_.resetAccumulatedFlux();
}

void Model::requireSolo(const char* who) const {
  if (members() != 1) {
    throw std::logic_error(std::string(who) + ": " + std::to_string(members()) +
                           " members; a checkpoint holds one (members() == 1)");
  }
}

const char* Model::schemeName() const {
  return schemeLabel(config_.dyn.ns, config_.scheme);
}

io::Snapshot Model::snapshot() const {
  requireSolo("Model::snapshot");
  const Member& solo = members_.front();
  io::Snapshot snap;
  snap.state = io::StateSection::capture(solo.state);
  snap.land = solo.tskin;

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
      solo.delp_at_tracer_start.data(),
      solo.delp_at_tracer_start.data() + solo.delp_at_tracer_start.size());
  diag.precip_accum = solo.precip_accum;
  snap.diag = diag;

  snap.config = configSection();

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

io::ConfigSection Model::configSection() const {
  io::ConfigSection cs = dynConfigSection(
      config_.dyn, mesh_, static_cast<int>(members_.front().state.tracers.size()),
      1, 0);
  cs.trac_interval = config_.trac_interval;
  cs.phy_interval = config_.phy_interval;
  return cs;
}

void Model::restore(const io::Snapshot& snap) {
  requireSolo("Model::restore");
  Member& solo = members_.front();
  constexpr const char* kWho = "Model::restore";
  requireSection(snap.state.has_value(), io::SectionId::kState, kWho);
  requireSection(snap.land.has_value(), io::SectionId::kLand, kWho);
  requireSection(snap.clock.has_value(), io::SectionId::kClock, kWho);
  requireSection(snap.diag.has_value(), io::SectionId::kDiag, kWho);
  const bool ml = config_.scheme == PhysicsScheme::kMl;
  if (ml) requireSection(snap.ml.has_value(), io::SectionId::kMlWeights, kWho);
  checkConfig(snap, configSection(), kWho);
  if (ml) {
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
  const io::DiagSection& d = *snap.diag;
  if (static_cast<Index>(snap.land->size()) != mesh_.ncells) {
    throw std::runtime_error("Model::restore: LAND shape mismatch");
  }
  if (d.ncells != mesh_.ncells || d.nedges != mesh_.nedges ||
      d.nlev != config_.dyn.nlev) {
    throw std::runtime_error("Model::restore: DIAG shape mismatch");
  }

  snap.state->restoreTo(solo.state);
  solo.tskin = *snap.land;
  sim_seconds_ = snap.clock->sim_seconds;
  dyn_steps_ = snap.clock->dyn_steps;
  parallel::Field flux(mesh_.nedges, config_.dyn.nlev);
  std::memcpy(flux.data(), d.acc_flux.data(), d.acc_flux.size() * sizeof(double));
  dycore_.restoreAccumulatedFlux(flux, d.acc_steps);
  std::memcpy(solo.delp_at_tracer_start.data(), d.delp_at_tracer_start.data(),
              d.delp_at_tracer_start.size() * sizeof(double));
  solo.precip_accum = d.precip_accum;
}

void Model::step() {
  dycore_.step(state_ptrs_.data());
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
  dycore::TracerTransportArgs args;
  args.mesh = &mesh_;
  args.ncells_prog = mesh_.ncells;
  args.nlev = config_.dyn.nlev;
  args.dt = nsub * config_.dyn.dt;
  args.mean_flux = mean_flux_.data();
  for (int m = 0; m < members(); ++m) {
    Member& mb = member(m);
    // Window-mean mass flux into the constructor-owned scratch (no
    // warm-path allocation).
    const parallel::Field& acc = dycore_.accumulatedMassFlux(m);
    for (std::size_t i = 0; i < acc.size(); ++i) {
      mean_flux_.data()[i] = acc.data()[i] / static_cast<double>(nsub);
    }
    args.delp_old = mb.delp_at_tracer_start.data();
    args.delp_new = mb.state.delp.data();
    for (auto& tracer : mb.state.tracers) {
      dycore::tracerTransport(args, config_.dyn.ns, tracer.data());
    }
    // Vertically-Lagrangian layers drift between remaps; bring the columns
    // back to reference levels on the tracer cadence (as production
    // mass-coordinate cores do) so thin layers cannot be drained to zero.
    dycore::verticalRemap(mesh_.ncells, config_.dyn.nlev, config_.dyn.ptop,
                          mb.state);
    mb.delp_at_tracer_start = mb.state.delp;
  }
  dycore_.resetAccumulatedFlux();
}

void Model::physicsStep() {
  const double dt_phy = config_.phy_interval * config_.dyn.dt;
  for (Member& m : members_) {
    coupler_.stateToPhysics(m.state, m.tskin, sim_seconds_, m.phys_in);
    m.suite->run(m.phys_in, dt_phy, m.phys_out);
    coupler_.applyTendencies(m.phys_out, dt_phy, m.state);
    // Land state and precipitation bookkeeping.
    m.tskin = m.phys_out.tskin_new;
    for (Index c = 0; c < mesh_.ncells; ++c) {
      m.precip_accum[c] += m.phys_out.precip[c] * dt_phy / 86400.0;  // mm
    }
  }
}

std::vector<double> Model::meanPrecipRate() const {
  const std::vector<double>& accum = accumulatedPrecip();
  std::vector<double> rate(accum.size(), 0.0);
  const double days = simDays();
  if (days <= 0) return rate;
  for (std::size_t c = 0; c < rate.size(); ++c) rate[c] = accum[c] / days;
  return rate;
}

} // namespace grist::core
