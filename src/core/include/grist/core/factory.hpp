// Namelist-driven model construction, mirroring the paper artifact's
// run-*.sh + namelist workflow: a Config (grist.nml-style key=value file)
// fully describes a run -- grid level, vertical levels, timesteps, scheme
// (Table 3 label), initial case, and optional ML weight files.
//
// Recognized keys (defaults in parentheses; the cadence defaults come from
// ModelConfig in model.hpp, so namelist-less runs match programmatic runs):
//   grid_level (4)        icosahedral level
//   nlev (20)             vertical layers
//   dt_dyn (300.0)        dynamics step, seconds
//   trac_interval (8)     dynamics steps per tracer step
//   phy_interval (15)     dynamics steps per physics step
//   scheme (DP-PHY)       DP-PHY | DP-ML | MIX-PHY | MIX-ML (Table 3)
//   case (baroclinic)     rest | baroclinic | typhoon | bubble
//   w_damp_tau (2*dt)     quasi-hydrostatic w damping, seconds (0 = off)
//   div_damp (0.06), diff_coef (0.02)
//   q1q2_weights, rad_weights    weight files for the ML schemes
//   q1q2_channels (24), q1q2_res_units (2), rad_hidden (48)
#pragma once

#include <cstdint>
#include <memory>

#include "grist/common/config.hpp"
#include "grist/core/ensemble_runner.hpp"
#include "grist/core/model.hpp"

namespace grist::core {

/// The dycore part of a namelist: nlev, dt_dyn, w_damp_tau, div_damp,
/// diff_coef and the NS mode of `scheme`. Every run mode (solo, ensemble,
/// multi-rank) reads its dycore through this one parse. Throws
/// std::invalid_argument on an unknown scheme label.
dycore::DycoreConfig parseDycoreConfig(const Config& config);

/// Owns everything a Model references; keep it alive as long as the model.
struct ModelBundle {
  grid::HexMesh mesh;
  grid::TrskWeights trsk;
  std::unique_ptr<Model> model;
};

/// Build mesh, weights, initial state and model from a namelist config.
/// Throws std::invalid_argument / std::runtime_error on bad keys or
/// missing ML weights.
std::unique_ptr<ModelBundle> makeModelFromConfig(const Config& config);

/// Owns everything an EnsembleRunner references.
struct EnsembleBundle {
  grid::HexMesh mesh;
  grid::TrskWeights trsk;
  std::unique_ptr<EnsembleRunner> runner;
};

/// Same namelist, batched across `members` ensemble members (grist_run
/// --ensemble M --perturb-seed S). perturb_seed 0 leaves the members
/// identical.
std::unique_ptr<EnsembleBundle> makeEnsembleFromConfig(const Config& config,
                                                       int members,
                                                       std::uint64_t perturb_seed);

} // namespace grist::core
