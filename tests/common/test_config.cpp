#include "grist/common/config.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace grist {
namespace {

TEST(Config, ParsesTypedValues) {
  const Config cfg = Config::fromString(R"(
    # run control
    grid_level = 5
    dt_dyn = 4.5     ! seconds
    use_ml_physics = .true.
    case_name = doksuri
    offset = -3
    perturb_amplitude = 1e-3
    w_damp_tau = .5
  )");
  EXPECT_EQ(cfg.getInt("grid_level", -1), 5);
  EXPECT_DOUBLE_EQ(cfg.getDouble("dt_dyn", 0.0), 4.5);
  EXPECT_EQ(cfg.getInt("offset", 0), -3);
  EXPECT_DOUBLE_EQ(cfg.getDouble("offset", 0.0), -3.0);
  EXPECT_DOUBLE_EQ(cfg.getDouble("perturb_amplitude", 0.0), 1e-3);
  EXPECT_DOUBLE_EQ(cfg.getDouble("w_damp_tau", 0.0), 0.5);
  EXPECT_TRUE(cfg.getBool("use_ml_physics", false));
  EXPECT_EQ(cfg.getString("case_name", ""), "doksuri");
}

TEST(Config, FallbacksApplyWhenMissing) {
  const Config cfg = Config::fromString("a = 1");
  EXPECT_EQ(cfg.getInt("missing", 42), 42);
  EXPECT_DOUBLE_EQ(cfg.getDouble("missing", 2.5), 2.5);
  EXPECT_FALSE(cfg.getBool("missing", false));
  EXPECT_FALSE(cfg.has("missing"));
  EXPECT_TRUE(cfg.has("a"));
}

TEST(Config, MalformedLineThrows) {
  EXPECT_THROW(Config::fromString("no equals sign here"), std::runtime_error);
  EXPECT_THROW(Config::fromString("= value_without_key"), std::runtime_error);
}

TEST(Config, NonBooleanValueThrows) {
  const Config cfg = Config::fromString("flag = maybe");
  EXPECT_THROW(cfg.getBool("flag", false), std::runtime_error);
}

TEST(Config, LaterAssignmentWins) {
  const Config cfg = Config::fromString("x = 1\nx = 2");
  EXPECT_EQ(cfg.getInt("x", 0), 2);
}

TEST(Config, BooleanSpellings) {
  const Config cfg = Config::fromString("a=TRUE\nb=.false.\nc=1\nd=no");
  EXPECT_TRUE(cfg.getBool("a", false));
  EXPECT_FALSE(cfg.getBool("b", true));
  EXPECT_TRUE(cfg.getBool("c", false));
  EXPECT_FALSE(cfg.getBool("d", true));
}

/// `fn` throws std::runtime_error whose message names both `key` and `token`.
template <typename Fn>
void expectRejected(Fn fn, const std::string& key, const std::string& token) {
  try {
    fn();
    ADD_FAILURE() << key << " = " << token << " was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'" + key + "'"), std::string::npos) << what;
    EXPECT_NE(what.find("'" + token + "'"), std::string::npos) << what;
  }
}

TEST(Config, NumbersMustBeWholeTokens) {
  const Config cfg = Config::fromString(
      "phy_interval = 15x\n"
      "trac_interval = 7.9\n"
      "perturb_amplitude = nan\n"
      "dt_dyn = 1e400\n"
      "grid_level = 99999999999\n"
      "w_damp_tau = inf\n"
      "nlev = abc");
  expectRejected([&] { cfg.getInt("phy_interval", 0); }, "phy_interval", "15x");
  expectRejected([&] { cfg.getDouble("phy_interval", 0); }, "phy_interval", "15x");
  expectRejected([&] { cfg.getInt("trac_interval", 0); }, "trac_interval", "7.9");
  expectRejected([&] { cfg.getDouble("perturb_amplitude", 0); },
                 "perturb_amplitude", "nan");
  expectRejected([&] { cfg.getDouble("dt_dyn", 0); }, "dt_dyn", "1e400");
  expectRejected([&] { cfg.getInt("grid_level", 0); }, "grid_level", "99999999999");
  expectRejected([&] { cfg.getDouble("w_damp_tau", 0); }, "w_damp_tau", "inf");
  expectRejected([&] { cfg.getInt("nlev", 0); }, "nlev", "abc");
}

} // namespace
} // namespace grist
