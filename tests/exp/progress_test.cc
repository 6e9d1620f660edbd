// ProgressReporter line formatting: the healthy line stays short, degraded
// statuses and retried/resumed counts appear only when nonzero.

#include "src/exp/progress.h"

#include <gtest/gtest.h>

#include "src/exp/run_record.h"

namespace dibs {
namespace {

TEST(ProgressReporterTest, HealthyLineOmitsStatusBreakdown) {
  ProgressReporter progress("fig11", /*total=*/12, /*enabled=*/false);
  SweepSummary s;
  s.total = 12;
  s.ok = 7;
  EXPECT_EQ(progress.ComposeLine(s, 3.14), "[sweep fig11] 7/12 done in 3.1s");
}

TEST(ProgressReporterTest, DegradedStatusesAppearOnlyWhenNonzero) {
  ProgressReporter progress("fig11", 12, false);
  SweepSummary s;
  s.total = 12;
  s.ok = 5;
  s.failed = 1;
  s.timeout = 1;
  EXPECT_EQ(progress.ComposeLine(s, 3.14),
            "[sweep fig11] 7/12 done (ok 5, failed 1, timeout 1) in 3.1s");

  s.failed = 0;
  s.timeout = 0;
  s.crashed = 2;
  EXPECT_EQ(progress.ComposeLine(s, 0.05),
            "[sweep fig11] 7/12 done (ok 5, crashed 2) in 0.1s");
}

TEST(ProgressReporterTest, RetriedAndResumedMarkersAppearWhenNonzero) {
  ProgressReporter progress("fig11", 12, false);
  SweepSummary s;
  s.total = 12;
  s.ok = 7;
  s.retried = 2;
  s.resumed = 3;
  EXPECT_EQ(progress.ComposeLine(s, 3.14),
            "[sweep fig11] 7/12 done [retried 2] [resumed 3] in 3.1s");

  s.resumed = 0;
  EXPECT_EQ(progress.ComposeLine(s, 3.14),
            "[sweep fig11] 7/12 done [retried 2] in 3.1s");
}

TEST(ProgressReporterTest, FullyDegradedLineCombinesEverything) {
  ProgressReporter progress("res", 4, false);
  SweepSummary s;
  s.total = 4;
  s.ok = 2;
  s.failed = 1;
  s.crashed = 1;
  s.retried = 1;
  s.resumed = 2;
  EXPECT_EQ(progress.ComposeLine(s, 12.0),
            "[sweep res] 4/4 done (ok 2, failed 1, crashed 1) [retried 1] "
            "[resumed 2] in 12.0s");
}

}  // namespace
}  // namespace dibs
