#include "grist/core/factory.hpp"

#include <gtest/gtest.h>

#include <filesystem>

namespace grist::core {
namespace {

TEST(Factory, BuildsEveryTable3SchemeLabel) {
  // Conventional schemes build directly; ML schemes need weight files.
  for (const char* scheme : {"DP-PHY", "MIX-PHY"}) {
    const Config cfg = Config::fromString(std::string("grid_level = 2\nscheme = ") +
                                          scheme + "\nnlev = 8");
    const auto bundle = makeModelFromConfig(cfg);
    EXPECT_STREQ(bundle->model->schemeName(), scheme);
    EXPECT_EQ(bundle->mesh.ncells, 162);
  }
}

TEST(Factory, MlSchemeLoadsWeights) {
  const auto dir = std::filesystem::temp_directory_path() / "grist_factory_test";
  std::filesystem::create_directories(dir);
  ml::Q1Q2NetConfig qcfg;
  qcfg.nlev = 8;
  qcfg.channels = 8;
  qcfg.res_units = 1;
  ml::Q1Q2Net q1q2(qcfg);
  q1q2.save((dir / "q.bin").string());
  ml::RadMlpConfig rcfg;
  rcfg.nlev = 8;
  rcfg.hidden = 16;
  ml::RadMlp rad(rcfg);
  rad.save((dir / "r.bin").string());

  const Config cfg = Config::fromString(
      "grid_level = 2\nnlev = 8\nscheme = MIX-ML\n"
      "q1q2_channels = 8\nq1q2_res_units = 1\nrad_hidden = 16\n"
      "q1q2_weights = " + (dir / "q.bin").string() + "\n" +
      "rad_weights = " + (dir / "r.bin").string());
  const auto bundle = makeModelFromConfig(cfg);
  EXPECT_STREQ(bundle->model->schemeName(), "MIX-ML");
  bundle->model->run(2);  // runs without blowing up
  std::filesystem::remove_all(dir);
}

TEST(Factory, EveryCaseInitializes) {
  for (const char* case_name : {"rest", "baroclinic", "typhoon", "bubble"}) {
    const Config cfg = Config::fromString(
        std::string("grid_level = 1\nnlev = 6\ncase = ") + case_name);
    const auto bundle = makeModelFromConfig(cfg);
    EXPECT_EQ(bundle->model->state().nlev, 6);
  }
}

TEST(Factory, BadInputsThrow) {
  EXPECT_THROW(makeModelFromConfig(Config::fromString("scheme = TURBO")),
               std::invalid_argument);
  EXPECT_THROW(makeModelFromConfig(Config::fromString("case = tornado")),
               std::invalid_argument);
  EXPECT_THROW(makeModelFromConfig(Config::fromString("scheme = DP-ML")),
               std::invalid_argument);  // ML without weight files
}

TEST(Factory, DycoreConfigReadsDampingAndRefusesUnknownScheme) {
  // The one namelist -> DycoreConfig parse every run mode shares.
  const dycore::DycoreConfig defaults =
      parseDycoreConfig(Config::fromString("dt_dyn = 240\nscheme = MIX-PHY"));
  EXPECT_EQ(defaults.nlev, 20);
  EXPECT_EQ(defaults.dt, 240.0);
  EXPECT_EQ(defaults.ns, precision::NsMode::kSingle);
  EXPECT_EQ(defaults.div_damp, 0.06);
  EXPECT_EQ(defaults.diff_coef, 0.02);
  EXPECT_EQ(defaults.w_damp_tau, 480.0);
  const dycore::DycoreConfig set = parseDycoreConfig(Config::fromString(
      "nlev = 6\ndiv_damp = 0.1\ndiff_coef = 0.03\nw_damp_tau = 0"));
  EXPECT_EQ(set.nlev, 6);
  EXPECT_EQ(set.ns, precision::NsMode::kDouble);
  EXPECT_EQ(set.div_damp, 0.1);
  EXPECT_EQ(set.diff_coef, 0.03);
  EXPECT_EQ(set.w_damp_tau, 0.0);
  EXPECT_THROW(parseDycoreConfig(Config::fromString("scheme = bogus")),
               std::invalid_argument);
  EXPECT_THROW(parseDycoreConfig(Config::fromString("scheme = MIXED")),
               std::invalid_argument);
}

TEST(Factory, ConfigControlsTimestepHierarchy) {
  const Config cfg = Config::fromString(
      "grid_level = 1\nnlev = 6\ndt_dyn = 120\ntrac_interval = 2\nphy_interval = 6");
  const auto bundle = makeModelFromConfig(cfg);
  bundle->model->run(6);
  EXPECT_NEAR(bundle->model->simSeconds(), 6 * 120.0, 1e-9);
}

} // namespace
} // namespace grist::core
