#include "grist/core/ensemble_runner.hpp"

#include <algorithm>
#include <stdexcept>

#include "grist/common/math.hpp"
#include "grist/dycore/tracer.hpp"
#include "grist/dycore/vertical_remap.hpp"
#include "grist/physics/held_suarez.hpp"

namespace grist::core {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

} // namespace

std::uint64_t EnsembleRunner::memberSeed(std::uint64_t base, int member) {
  return splitmix64(base ^ (0x9E3779B97F4A7C15ull *
                            static_cast<std::uint64_t>(member + 1)));
}

void EnsembleRunner::perturbState(dycore::State& state, std::uint64_t seed,
                                  double amplitude) {
  const std::size_t n = state.theta.size();
  double* theta = state.theta.data();
  for (std::size_t i = 0; i < n; ++i) {
    // Hash of (seed, element index) -> u in [0, 1) with 53 random bits;
    // order-independent, so any traversal produces the same field.
    const std::uint64_t h = splitmix64(seed + static_cast<std::uint64_t>(i));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    theta[i] += amplitude * (2.0 * u - 1.0);
  }
}

EnsembleRunner::EnsembleRunner(const grid::HexMesh& mesh,
                               const grid::TrskWeights& trsk,
                               EnsembleConfig config,
                               const dycore::State& initial)
    : mesh_(mesh),
      config_(std::move(config)),
      dycore_(mesh, trsk, config_.model.dyn, config_.members),
      coupler_(mesh, config_.model.dyn.nlev),
      mean_flux_scratch_(mesh.nedges, config_.model.dyn.nlev) {
  ModelConfig& mc = config_.model;
  if (config_.members < 1) {
    throw std::invalid_argument("EnsembleRunner: members < 1");
  }
  if (initial.tracers.size() < 3) {
    throw std::invalid_argument(
        "EnsembleRunner: state needs >= 3 tracers (qv, qc, qr)");
  }
  if (mc.trac_interval < 1 || mc.phy_interval < 1) {
    throw std::invalid_argument("EnsembleRunner: bad timestep hierarchy");
  }
  if (mc.scheme == PhysicsScheme::kMl && (!mc.q1q2 || !mc.rad_mlp)) {
    throw std::invalid_argument(
        "EnsembleRunner: ML scheme requires trained networks");
  }

  const int M = config_.members;
  const int nlev = mc.dyn.nlev;
  const std::size_t mm = static_cast<std::size_t>(M);

  states_.reserve(mm);
  state_ptrs_.reserve(mm);
  delp_at_tracer_start_.reserve(mm);
  tskin_.reserve(mm);
  precip_accum_.reserve(mm);
  for (int m = 0; m < M; ++m) {
    states_.push_back(initial);
    if (config_.perturb_seed != 0) {
      perturbState(states_.back(), memberSeed(config_.perturb_seed, m),
                   config_.perturb_amplitude);
    }
    delp_at_tracer_start_.push_back(states_.back().delp);
    tskin_.push_back(initialSkinTemperature(mesh));
    precip_accum_.emplace_back(static_cast<std::size_t>(mesh.ncells), 0.0);
  }
  for (dycore::State& s : states_) state_ptrs_.push_back(&s);

  // Physics: one fused suite over M*ncells columns when the ML scheme can
  // batch GEMMs across members, otherwise M per-member suites (the other
  // half of the benchmark pair, and the only mode for the column schemes).
  const auto makeSuite = [&](Index ncolumns) -> std::unique_ptr<physics::PhysicsSuite> {
    if (mc.scheme == PhysicsScheme::kHeldSuarez) {
      return std::make_unique<physics::HeldSuarezSuite>();
    }
    if (mc.scheme == PhysicsScheme::kMl) {
      return std::make_unique<ml::MlPhysicsSuite>(ncolumns, nlev, mc.q1q2,
                                                  mc.rad_mlp, mc.ml);
    }
    mc.conventional.grid_dx = mesh.meanSpacing();
    return std::make_unique<physics::ConventionalSuite>(ncolumns, nlev,
                                                        mc.conventional);
  };
  if (config_.cross_member_gemm && mc.scheme == PhysicsScheme::kMl) {
    const Index ncol = mesh.ncells * M;
    fused_suite_ = makeSuite(ncol);
    fused_in_ = std::make_unique<physics::PhysicsInput>(ncol, nlev);
    fused_out_ = std::make_unique<physics::PhysicsOutput>(ncol, nlev);
  } else {
    member_suites_.reserve(mm);
    member_in_.reserve(mm);
    member_out_.reserve(mm);
    for (int m = 0; m < M; ++m) {
      member_suites_.push_back(makeSuite(mesh.ncells));
      member_in_.emplace_back(mesh.ncells, nlev);
      member_out_.emplace_back(mesh.ncells, nlev);
    }
  }
  dycore_.resetAccumulatedFlux();
}

void EnsembleRunner::step() {
  dycore_.step(state_ptrs_.data());
  ++dyn_steps_;
  sim_seconds_ += config_.model.dyn.dt;
  if (dyn_steps_ % config_.model.trac_interval == 0) tracerStep();
  if (dyn_steps_ % config_.model.phy_interval == 0) physicsStep();
}

void EnsembleRunner::run(int ndyn_steps) {
  for (int i = 0; i < ndyn_steps; ++i) step();
}

void EnsembleRunner::tracerStep() {
  const int nsub = dycore_.accumulatedSteps();
  if (nsub == 0) return;
  const ModelConfig& mc = config_.model;
  for (int m = 0; m < config_.members; ++m) {
    const std::size_t mi = static_cast<std::size_t>(m);
    dycore::State& state = states_[mi];
    // Member's window-mean mass flux into the preallocated scratch (the
    // same division as Model::tracerStep).
    const parallel::Field& acc = dycore_.accumulatedMassFlux(m);
    for (std::size_t i = 0; i < acc.size(); ++i) {
      mean_flux_scratch_.data()[i] = acc.data()[i] / static_cast<double>(nsub);
    }
    dycore::TracerTransportArgs args;
    args.mesh = &mesh_;
    args.ncells_prog = mesh_.ncells;
    args.nlev = mc.dyn.nlev;
    args.dt = nsub * mc.dyn.dt;
    args.mean_flux = mean_flux_scratch_.data();
    args.delp_old = delp_at_tracer_start_[mi].data();
    args.delp_new = state.delp.data();
    for (auto& tracer : state.tracers) {
      dycore::tracerTransport(args, mc.dyn.ns, tracer.data());
    }
    dycore::verticalRemap(mesh_.ncells, mc.dyn.nlev, mc.dyn.ptop, state);
    std::copy(state.delp.data(), state.delp.data() + state.delp.size(),
              delp_at_tracer_start_[mi].data());
  }
  dycore_.resetAccumulatedFlux();
}

void EnsembleRunner::physicsStep() {
  const ModelConfig& mc = config_.model;
  const double dt_phy = mc.phy_interval * mc.dyn.dt;
  const Index ncells = mesh_.ncells;

  if (fused_suite_) {
    // One M*ncells-column batch: member m occupies columns [m*ncells,
    // (m+1)*ncells). Per-column physics is independent and predictBatch is
    // block-composition-invariant, so each member's columns get bitwise
    // the same treatment they would get solo.
    for (int m = 0; m < config_.members; ++m) {
      coupler_.stateToPhysics(states_[static_cast<std::size_t>(m)],
                              tskin_[static_cast<std::size_t>(m)],
                              sim_seconds_, *fused_in_, ncells * m);
    }
    fused_suite_->run(*fused_in_, dt_phy, *fused_out_);
    for (int m = 0; m < config_.members; ++m) {
      const std::size_t mi = static_cast<std::size_t>(m);
      const Index col0 = ncells * m;
      coupler_.applyTendencies(*fused_out_, col0, dt_phy, states_[mi]);
      std::copy(fused_out_->tskin_new.begin() + col0,
                fused_out_->tskin_new.begin() + col0 + ncells,
                tskin_[mi].begin());
      for (Index c = 0; c < ncells; ++c) {
        precip_accum_[mi][static_cast<std::size_t>(c)] +=
            fused_out_->precip[static_cast<std::size_t>(col0 + c)] * dt_phy /
            86400.0;
      }
    }
    return;
  }

  for (int m = 0; m < config_.members; ++m) {
    const std::size_t mi = static_cast<std::size_t>(m);
    coupler_.stateToPhysics(states_[mi], tskin_[mi], sim_seconds_,
                            member_in_[mi]);
    member_suites_[mi]->run(member_in_[mi], dt_phy, member_out_[mi]);
    coupler_.applyTendencies(member_out_[mi], dt_phy, states_[mi]);
    std::copy(member_out_[mi].tskin_new.begin(),
              member_out_[mi].tskin_new.end(), tskin_[mi].begin());
    for (Index c = 0; c < ncells; ++c) {
      precip_accum_[mi][static_cast<std::size_t>(c)] +=
          member_out_[mi].precip[static_cast<std::size_t>(c)] * dt_phy /
          86400.0;
    }
  }
}

std::vector<double> EnsembleRunner::meanSurfacePressure() const {
  const double inv = 1.0 / config_.members;
  std::vector<double> mean(static_cast<std::size_t>(mesh_.ncells), 0.0);
  const int nlev = config_.model.dyn.nlev;
  for (const dycore::State& s : states_) {
    for (Index c = 0; c < mesh_.ncells; ++c) {
      double ps = config_.model.dyn.ptop;
      for (int k = 0; k < nlev; ++k) ps += s.delp(c, k);
      mean[static_cast<std::size_t>(c)] += ps * inv;
    }
  }
  return mean;
}

std::vector<double> EnsembleRunner::spreadSurfacePressure() const {
  // Population std-dev across members, per cell (two-pass: mean first).
  const std::vector<double> mean = meanSurfacePressure();
  std::vector<double> var(static_cast<std::size_t>(mesh_.ncells), 0.0);
  const int nlev = config_.model.dyn.nlev;
  const double inv = 1.0 / config_.members;
  for (const dycore::State& s : states_) {
    for (Index c = 0; c < mesh_.ncells; ++c) {
      double ps = config_.model.dyn.ptop;
      for (int k = 0; k < nlev; ++k) ps += s.delp(c, k);
      const double d = ps - mean[static_cast<std::size_t>(c)];
      var[static_cast<std::size_t>(c)] += d * d * inv;
    }
  }
  for (double& v : var) v = std::sqrt(std::max(0.0, v));
  return var;
}

double EnsembleRunner::globalSpread() const {
  const std::vector<double> spread = spreadSurfacePressure();
  double num = 0.0, den = 0.0;
  for (Index c = 0; c < mesh_.ncells; ++c) {
    num += spread[static_cast<std::size_t>(c)] * mesh_.cell_area[c];
    den += mesh_.cell_area[c];
  }
  return den > 0 ? num / den : 0.0;
}

} // namespace grist::core
