// Unit tests for the benchmark's own arithmetic (src/bench_core.hpp).
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <numeric>

#include "bench_core.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
  return v;
}

TEST(Percentile, MedianNeedsTenSamplesAbove) {
  EXPECT_FALSE(tailPercentile(ramp(19), 0.5).has_value());  // 9 above rank 10
  const auto p = tailPercentile(ramp(20), 0.5);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->value, 10.0);
  EXPECT_EQ(p->samples, 20u);
  EXPECT_EQ(p->beyond, 10u);
}

TEST(Percentile, P95NeedsTwoHundredSamples) {
  EXPECT_FALSE(tailPercentile(ramp(199), 0.95).has_value());
  const auto p = tailPercentile(ramp(200), 0.95);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->value, 190.0);
  EXPECT_EQ(p->beyond, 10u);
}

TEST(Percentile, IgnoresInputOrderAndEmpty) {
  std::vector<double> v = ramp(40);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(tailPercentile(v, 0.5)->value, 20.0);
  EXPECT_FALSE(tailPercentile({}, 0.5).has_value());
  EXPECT_EQ(median({3.0, 1.0, 2.0, 4.0}), 2.5);
}

TEST(StepClass, ModelCadencePer360Steps) {
  // core::ModelConfig defaults: tracer every 8, physics every 15.
  int counts[kNumStepClasses] = {0, 0, 0};
  for (long step = 1; step <= 360; ++step) {
    ++counts[static_cast<int>(classifyStep(step, 8, 15))];
  }
  EXPECT_EQ(counts[static_cast<int>(StepClass::kDyn)], 294);
  EXPECT_EQ(counts[static_cast<int>(StepClass::kTrac)], 42);
  EXPECT_EQ(counts[static_cast<int>(StepClass::kPhys)], 24);
  EXPECT_EQ(classifyStep(120, 8, 15), StepClass::kPhys);  // both fire
}

TEST(Spans, SelfTimeSubtractsUnionOfChildren) {
  std::vector<Span> s = {
      {0, -1, 0.0, 10.0},  // root
      {1, 0, 1.0, 3.0},    // overlapping children: union [1,5]
      {1, 0, 2.0, 5.0},
      {2, 0, 7.0, 8.0},
      {3, 3, 7.25, 7.75},  // grandchild of the root
      {4, -1, 20.0, 21.0}, // second root, no children
  };
  const std::vector<double> self = selfTimes(s);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[3], 0.5);
  EXPECT_DOUBLE_EQ(self[4], 0.5);
  EXPECT_DOUBLE_EQ(self[5], 1.0);
}

TEST(Spans, NestedSelfTimesSumToRootDurations) {
  SpanLog log(16);
  const int root = log.begin(0);
  const int a = log.begin(1, root);
  log.begin(2, a);
  log.end(2);
  log.end(a);
  const int b = log.begin(3, root);
  log.end(b);
  log.end(root);
  const std::vector<double> self = selfTimes(log.spans());
  const double total = std::accumulate(self.begin(), self.end(), 0.0);
  EXPECT_NEAR(total, log.spans()[0].duration(), 1e-12);
  for (double x : self) EXPECT_GE(x, 0.0);
}

TEST(ThreadBudget, RefusesOversubscriptionNamingBothNumbers) {
  EXPECT_TRUE(threadBudgetError(4, 1, 4).empty());
  EXPECT_TRUE(threadBudgetError(1, 4, 4).empty());
  const std::string err = threadBudgetError(4, 2, 4);
  EXPECT_NE(err.find("8"), std::string::npos);
  EXPECT_NE(err.find("nproc 4"), std::string::npos);
}

TEST(ReportMetric, RunStoppedBeforeItsWindowReadsZeroAndFails) {
  // A check failing during warm-up: no timed steps, so sdpd is 0/0 and no
  // percentile has samples.
  const double timed_s = 0.0;
  const std::map<std::string, double> measured = {{"sdpd", 0.0 / timed_s},
                                                  {"setup_s", 0.12}};
  const Reported sdpd = reportMetric(measured, "sdpd", false);
  EXPECT_EQ(sdpd.value, 0.0);
  EXPECT_NE(sdpd.failure.find("sdpd is not finite"), std::string::npos);
  const Reported p50 = reportMetric(measured, "dyn_step_ms_p50", false);
  EXPECT_EQ(p50.value, 0.0);
  EXPECT_NE(p50.failure.find("dyn_step_ms_p50 was not measured"), std::string::npos);
  const Reported setup = reportMetric(measured, "setup_s", false);
  EXPECT_EQ(setup.value, 0.12);
  EXPECT_TRUE(setup.failure.empty());
}

TEST(ReportMetric, OptionalMetricMayBeAbsentButNotNaN) {
  const std::map<std::string, double> measured = {
      {"dycore.share", std::numeric_limits<double>::quiet_NaN()}};
  EXPECT_TRUE(reportMetric(measured, "io.read_ms", true).failure.empty());
  const Reported share = reportMetric(measured, "dycore.share", true);
  EXPECT_EQ(share.value, 0.0);
  EXPECT_FALSE(share.failure.empty());
}

}  // namespace
}  // namespace perfbench
