// The AI-enhanced GRIST model driver: composes the dynamical core, tracer
// transport, the physics suite (conventional or ML) and the coupling
// interface under the paper's timestep hierarchy (Table 2: Dyn/Trac/Phy/Rad)
// and scheme matrix (Table 3: DP/MIX x PHY/ML).
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

/// Default land initialization (zonally symmetric SST-like profile); used
/// by both Model and EnsembleRunner.
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
  /// Takes ownership of the initial state. The mesh/weights must outlive
  /// the model. State must carry >= 3 tracers (qv, qc, qr).
  Model(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
        ModelConfig config, dycore::State initial);

  /// Advance by one dynamics step; fires tracer transport and physics on
  /// their configured cadences.
  void step();
  void run(int ndyn_steps);

  const dycore::State& state() const { return state_; }
  dycore::State& state() { return state_; }
  double simSeconds() const { return sim_seconds_; }
  double simDays() const { return sim_seconds_ / 86400.0; }

  /// Accumulated precipitation since construction, mm, per cell.
  const std::vector<double>& accumulatedPrecip() const { return precip_accum_; }
  /// Mean precipitation RATE over the simulated period so far, mm/day.
  std::vector<double> meanPrecipRate() const;

  const std::vector<double>& tskin() const { return tskin_; }
  /// Restore land/clock state from a restart file (see io/restart.hpp).
  void setTskin(std::vector<double> tskin);
  void setSimSeconds(double seconds) { sim_seconds_ = seconds; }
  /// Re-synchronize internal accumulators after the state was replaced
  /// from a restart (resets the mass-flux accumulation window). Restarts
  /// are written at tracer-step boundaries so this is exact.
  void resyncAfterRestart();

  /// Capture everything a bitwise resume needs: STATE + LAND + CLOCK +
  /// DIAG (accumulator windows, so mid-tracer-window checkpoints are exact)
  /// + CONFIG, and MLWT weight provenance under the ML scheme.
  io::Snapshot snapshot() const;
  /// Restore from a snapshot (including legacy GRISTSW1 conversions).
  /// Validates CONFIG (nlev/ntracers/dt/ns/cadences) and MLWT fingerprints
  /// when present, throwing std::runtime_error naming the mismatch. With a
  /// DIAG section the resume is bitwise anywhere in the cadence; without
  /// one (legacy files) it falls back to resyncAfterRestart() semantics.
  void restore(const io::Snapshot& snap);

  long dynSteps() const { return dyn_steps_; }
  const ModelConfig& config() const { return config_; }
  const char* schemeName() const;
  physics::PhysicsSuite& suite() { return *suite_; }
  dycore::Dycore& dycore() { return dycore_; }

 private:
  void tracerStep();
  void physicsStep();

  const grid::HexMesh& mesh_;
  ModelConfig config_;
  dycore::Dycore dycore_;
  coupler::Coupler coupler_;
  std::unique_ptr<physics::PhysicsSuite> suite_;
  dycore::State state_;

  parallel::Field delp_at_tracer_start_;
  parallel::Field mean_flux_;  ///< tracer-step scratch: window-mean flux
  std::vector<double> tskin_;
  std::vector<double> precip_accum_;
  physics::PhysicsInput phys_in_;
  physics::PhysicsOutput phys_out_;
  double sim_seconds_ = 0.0;
  long dyn_steps_ = 0;
};

} // namespace grist::core
