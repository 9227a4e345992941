#include "training.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "grist/ml/adam.hpp"
#include "grist/ml/traindata.hpp"
#include "grist/physics/suite.hpp"

namespace perfbench {

using namespace grist;

ml::Q1Q2NetConfig q1q2Config() {
  ml::Q1Q2NetConfig c;
  c.nlev = kNlev;
  c.channels = 24;
  c.res_units = 2;
  return c;
}

ml::RadMlpConfig radConfig() {
  ml::RadMlpConfig c;
  c.nlev = kNlev;
  c.hidden = 48;
  return c;
}

WeightFiles weightFiles(const std::string& dir, std::uint64_t q1q2_fp,
                        std::uint64_t rad_fp) {
  char q[64], r[64];
  std::snprintf(q, sizeof q, "q1q2-%016" PRIx64 ".bin", q1q2_fp);
  std::snprintf(r, sizeof r, "rad-%016" PRIx64 ".bin", rad_fp);
  const std::filesystem::path d(dir);
  return WeightFiles{(d / q).string(), (d / r).string(), q1q2_fp, rad_fp};
}

WeightFiles trainAndCache(const std::string& dir) {
  std::vector<ml::ColumnSample> cols;
  std::vector<ml::RadSample> rads;
  for (const auto& sc : ml::table1Scenarios()) {
    physics::PhysicsInput in = ml::synthesizeColumns(sc, 192, kNlev);
    physics::ConventionalSuite conv(in.ncolumns, kNlev);
    ml::harvestSamples(in, conv, 600.0, cols, rads);
  }
  std::vector<ml::ColumnSample> train, test;
  ml::splitTrainTest(cols, 42, train, test);

  ml::Q1Q2Net q1q2(q1q2Config());
  ml::RadMlp rad(radConfig());
  q1q2.fitNormalization(train);
  rad.fitNormalization(rads);
  ml::Adam a1(ml::AdamConfig{.lr = 2e-3f}), a2(ml::AdamConfig{.lr = 2e-3f});
  a1.registerParams(q1q2.paramViews());
  a2.registerParams(rad.paramViews());
  for (int epoch = 0; epoch < 6; ++epoch) {
    for (std::size_t base = 0; base + 64 <= train.size(); base += 64) {
      std::vector<ml::ColumnSample> batch(train.begin() + base,
                                          train.begin() + base + 64);
      q1q2.trainBatch(batch, a1);
    }
    rad.trainBatch(rads, a2);
  }

  std::filesystem::create_directories(dir);
  const WeightFiles files =
      weightFiles(dir, q1q2.weightFingerprint(), rad.weightFingerprint());
  if (!std::filesystem::exists(files.q1q2_path)) q1q2.save(files.q1q2_path);
  if (!std::filesystem::exists(files.rad_path)) rad.save(files.rad_path);
  return files;
}

Nets loadNets(const WeightFiles& files) {
  auto q1q2 = std::make_shared<ml::Q1Q2Net>(q1q2Config());
  q1q2->load(files.q1q2_path);
  auto rad = std::make_shared<ml::RadMlp>(radConfig());
  rad->load(files.rad_path);
  if (q1q2->weightFingerprint() != files.q1q2_fingerprint ||
      rad->weightFingerprint() != files.rad_fingerprint) {
    throw std::runtime_error("loaded ML weights do not match their fingerprints: " +
                             files.q1q2_path + ", " + files.rad_path);
  }
  return Nets{std::move(q1q2), std::move(rad)};
}

Nets untrainedNets() {
  return Nets{std::make_shared<ml::Q1Q2Net>(q1q2Config()),
              std::make_shared<ml::RadMlp>(radConfig())};
}

}  // namespace perfbench
