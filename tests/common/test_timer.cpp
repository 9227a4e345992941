#include "grist/common/timer.hpp"

#include <gtest/gtest.h>

namespace grist {
namespace {

TEST(Timer, ElapsedIsMonotonic) {
  Timer t;
  const double a = t.elapsed();
  const double b = t.elapsed();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_LT(t.elapsed(), 1.0);
}

} // namespace
} // namespace grist
