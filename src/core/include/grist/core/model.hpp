// The AI-enhanced GRIST model driver: composes the dynamical core, tracer
// transport, the physics suite (conventional or ML) and the coupling
// interface under the paper's timestep hierarchy (Table 2: Dyn/Trac/Phy/Rad)
// and scheme matrix (Table 3: DP/MIX x PHY/ML).
//
// Model is the one owner of that cadence, for M >= 1 members: one M-member
// Dycore and one Coupler serve every member, and each member keeps its own
// State, physics suite and batch, tracer-window delp, tskin and
// precipitation accumulator. A solo run is M = 1; EnsembleRunner is a Model
// whose members are perturbed copies of one initial state.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "grist/coupler/coupler.hpp"
#include "grist/dycore/dycore.hpp"
#include "grist/grid/trsk.hpp"
#include "grist/io/snapshot.hpp"
#include "grist/ml/ml_suite.hpp"
#include "grist/physics/suite.hpp"

namespace grist::core {

enum class PhysicsScheme { kConventional, kMl, kHeldSuarez };

/// Table 3 scheme labels.
inline const char* schemeLabel(precision::NsMode ns, PhysicsScheme physics) {
  if (physics == PhysicsScheme::kHeldSuarez) {
    return ns == precision::NsMode::kDouble ? "DP-HS" : "MIX-HS";
  }
  if (ns == precision::NsMode::kDouble) {
    return physics == PhysicsScheme::kConventional ? "DP-PHY" : "DP-ML";
  }
  return physics == PhysicsScheme::kConventional ? "MIX-PHY" : "MIX-ML";
}

/// Default land initialization (zonally symmetric SST-like profile), the
/// same for every member.
std::vector<double> initialSkinTemperature(const grid::HexMesh& mesh);

struct ModelConfig {
  dycore::DycoreConfig dyn;      ///< includes ns (DP vs MIX) and dt
  int trac_interval = 8;         ///< dynamics steps per tracer step
  int phy_interval = 15;         ///< dynamics steps per physics step
  PhysicsScheme scheme = PhysicsScheme::kConventional;
  physics::ConventionalSuiteConfig conventional;  ///< incl. Phy:Rad cadence
  ml::MlSuiteConfig ml;
  /// Trained networks; required when scheme == kMl.
  std::shared_ptr<const ml::Q1Q2Net> q1q2;
  std::shared_ptr<const ml::RadMlp> rad_mlp;
};

class Model {
 public:
  /// Solo run (M = 1): takes ownership of the initial state. The
  /// mesh/weights must outlive the model. State must carry >= 3 tracers
  /// (qv, qc, qr).
  Model(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
        ModelConfig config, dycore::State initial);
  /// M = members.size() >= 1 members stepped together; each member's
  /// trajectory is bitwise the one it would take solo.
  Model(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
        ModelConfig config, std::vector<dycore::State> members);

  /// Advance every member by one dynamics step; fires tracer transport and
  /// physics on their configured cadences.
  void step();
  void run(int ndyn_steps);

  int members() const { return static_cast<int>(members_.size()); }
  const dycore::State& state(int m = 0) const { return member(m).state; }
  dycore::State& state(int m = 0) { return member(m).state; }
  double simSeconds() const { return sim_seconds_; }
  double simDays() const { return sim_seconds_ / 86400.0; }

  /// Member m's accumulated precipitation since construction, mm, per cell.
  const std::vector<double>& accumulatedPrecip(int m = 0) const {
    return member(m).precip_accum;
  }
  /// Member 0's mean precipitation RATE over the simulated period so far,
  /// mm/day.
  std::vector<double> meanPrecipRate() const;

  const std::vector<double>& tskin(int m = 0) const { return member(m).tskin; }

  /// Capture everything a bitwise resume needs: STATE + LAND + CLOCK +
  /// DIAG (accumulator windows, so mid-tracer-window checkpoints are exact)
  /// + CONFIG, and MLWT weight provenance under the ML scheme. A checkpoint
  /// holds one member: throws std::logic_error when members() > 1.
  io::Snapshot snapshot() const;
  /// Restore from a snapshot() of a compatible run: requires STATE, LAND,
  /// CLOCK, DIAG and CONFIG (and MLWT under the ML scheme), checks CONFIG
  /// through core::checkConfig and the MLWT fingerprints, and throws
  /// std::runtime_error naming the missing section or the mismatch. The
  /// resume is bitwise anywhere in the cadence. Throws std::logic_error
  /// when members() > 1.
  void restore(const io::Snapshot& snap);

  long dynSteps() const { return dyn_steps_; }
  const ModelConfig& config() const { return config_; }
  const grid::HexMesh& mesh() const { return mesh_; }
  const char* schemeName() const;
  dycore::Dycore& dycore() { return dycore_; }

 private:
  /// Everything one member owns.
  struct Member {
    dycore::State state;
    std::unique_ptr<physics::PhysicsSuite> suite;
    physics::PhysicsInput phys_in;
    physics::PhysicsOutput phys_out;
    parallel::Field delp_at_tracer_start;
    std::vector<double> tskin;
    std::vector<double> precip_accum;
  };

  const Member& member(int m) const {
    return members_[static_cast<std::size_t>(m)];
  }
  Member& member(int m) { return members_[static_cast<std::size_t>(m)]; }
  /// Throws std::logic_error naming the member count unless members() == 1.
  void requireSolo(const char* who) const;
  /// The CONFIG section this run writes and expects on restore:
  /// dynConfigSection plus the two cadences.
  io::ConfigSection configSection() const;
  void tracerStep();
  void physicsStep();

  const grid::HexMesh& mesh_;
  ModelConfig config_;
  dycore::Dycore dycore_;
  coupler::Coupler coupler_;
  std::vector<Member> members_;
  std::vector<dycore::State*> state_ptrs_;  ///< Dycore::step operand table

  double sim_seconds_ = 0.0;
  long dyn_steps_ = 0;
};

} // namespace grist::core
