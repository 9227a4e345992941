#include "grist/core/factory.hpp"

#include <stdexcept>

#include "grist/dycore/init.hpp"

namespace grist::core {

namespace {

// The Table 3 labels (plus the Held-Suarez pair): NS mode and physics.
struct SchemeEntry {
  const char* label;
  precision::NsMode ns;
  PhysicsScheme physics;
};
constexpr SchemeEntry kSchemes[] = {
    {"DP-PHY", precision::NsMode::kDouble, PhysicsScheme::kConventional},
    {"DP-ML", precision::NsMode::kDouble, PhysicsScheme::kMl},
    {"MIX-PHY", precision::NsMode::kSingle, PhysicsScheme::kConventional},
    {"MIX-ML", precision::NsMode::kSingle, PhysicsScheme::kMl},
    {"DP-HS", precision::NsMode::kDouble, PhysicsScheme::kHeldSuarez},
    {"HS", precision::NsMode::kDouble, PhysicsScheme::kHeldSuarez},
    {"MIX-HS", precision::NsMode::kSingle, PhysicsScheme::kHeldSuarez},
};

const SchemeEntry& schemeEntry(const Config& config) {
  const std::string scheme = config.getString("scheme", "DP-PHY");
  for (const SchemeEntry& e : kSchemes) {
    if (scheme == e.label) return e;
  }
  throw std::invalid_argument("namelist: unknown scheme '" + scheme +
                              "' (expected a Table 3 label or DP-HS/MIX-HS)");
}

// Shared namelist parsing for the solo and ensemble factories. Cadence
// defaults are taken from ModelConfig itself (8/15) so the namelist layer
// cannot drift from the programmatic defaults again.
ModelConfig parseModelConfig(const Config& config) {
  ModelConfig cfg;
  cfg.dyn = parseDycoreConfig(config);
  cfg.trac_interval = config.getInt("trac_interval", cfg.trac_interval);
  cfg.phy_interval = config.getInt("phy_interval", cfg.phy_interval);
  cfg.scheme = schemeEntry(config).physics;

  if (cfg.scheme == PhysicsScheme::kMl) {
    const std::string q1q2_path = config.getString("q1q2_weights", "");
    const std::string rad_path = config.getString("rad_weights", "");
    if (q1q2_path.empty() || rad_path.empty()) {
      throw std::invalid_argument(
          "makeModelFromConfig: ML schemes need q1q2_weights and rad_weights");
    }
    ml::Q1Q2NetConfig qcfg;
    qcfg.nlev = cfg.dyn.nlev;
    qcfg.channels = config.getInt("q1q2_channels", 24);
    qcfg.res_units = config.getInt("q1q2_res_units", 2);
    auto q1q2 = std::make_shared<ml::Q1Q2Net>(qcfg);
    q1q2->load(q1q2_path);
    ml::RadMlpConfig rcfg;
    rcfg.nlev = cfg.dyn.nlev;
    rcfg.hidden = config.getInt("rad_hidden", 48);
    auto rad = std::make_shared<ml::RadMlp>(rcfg);
    rad->load(rad_path);
    cfg.q1q2 = std::move(q1q2);
    cfg.rad_mlp = std::move(rad);
  }
  return cfg;
}

} // namespace

dycore::DycoreConfig parseDycoreConfig(const Config& config) {
  dycore::DycoreConfig dyn;
  dyn.nlev = config.getInt("nlev", 20);
  dyn.dt = config.getDouble("dt_dyn", 300.0);
  dyn.w_damp_tau = config.getDouble("w_damp_tau", 2.0 * dyn.dt);
  dyn.div_damp = config.getDouble("div_damp", 0.06);
  dyn.diff_coef = config.getDouble("diff_coef", 0.02);
  dyn.ns = schemeEntry(config).ns;
  return dyn;
}

dycore::State buildInitialState(const Config& config, const grid::HexMesh& mesh,
                                const dycore::DycoreConfig& dyn) {
  const std::string case_name = config.getString("case", "baroclinic");
  if (case_name == "rest") {
    return dycore::initRestState(mesh, dyn, 300.0, 3);
  }
  if (case_name == "baroclinic") {
    return dycore::initBaroclinicWave(mesh, dyn, 3);
  }
  if (case_name == "typhoon") {
    return dycore::initTyphoon(mesh, dyn, {}, 3);
  }
  if (case_name == "bubble") {
    return dycore::initWarmBubble(mesh, dyn, 2.0, 50.0e3, 3);
  }
  throw std::invalid_argument("namelist: unknown case '" + case_name +
                              "' (expected rest, baroclinic, typhoon or bubble)");
}

std::unique_ptr<ModelBundle> makeModelFromConfig(const Config& config) {
  auto bundle = std::make_unique<ModelBundle>();
  const int level = config.getInt("grid_level", 4);
  bundle->mesh = grid::buildHexMesh(level);
  bundle->trsk = grid::buildTrskWeights(bundle->mesh);

  ModelConfig cfg = parseModelConfig(config);
  dycore::State initial = buildInitialState(config, bundle->mesh, cfg.dyn);
  bundle->model =
      std::make_unique<Model>(bundle->mesh, bundle->trsk, cfg, std::move(initial));
  return bundle;
}

std::unique_ptr<EnsembleBundle> makeEnsembleFromConfig(
    const Config& config, int members, std::uint64_t perturb_seed) {
  auto bundle = std::make_unique<EnsembleBundle>();
  const int level = config.getInt("grid_level", 4);
  bundle->mesh = grid::buildHexMesh(level);
  bundle->trsk = grid::buildTrskWeights(bundle->mesh);

  EnsembleConfig ecfg;
  ecfg.model = parseModelConfig(config);
  ecfg.members = members;
  ecfg.perturb_seed = perturb_seed;
  ecfg.perturb_amplitude = config.getDouble("perturb_amplitude", 1e-3);
  dycore::State initial =
      buildInitialState(config, bundle->mesh, ecfg.model.dyn);
  bundle->runner = std::make_unique<EnsembleRunner>(bundle->mesh, bundle->trsk,
                                                    std::move(ecfg), initial);
  return bundle;
}

} // namespace grist::core
