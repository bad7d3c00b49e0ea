// Unit tests of the benchmark's own statistics (perfbench/driver/stats.h).
#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

TEST(Percentile, NearestRankAndMedian) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  EXPECT_EQ(Percentile(values, 50), 50);
  EXPECT_EQ(Percentile(values, 95), 95);
  EXPECT_EQ(Percentile(values, 100), 100);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(Percentile, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(200, 95), 10u);
  EXPECT_EQ(SamplesBeyond(199, 95), 9u);
  EXPECT_EQ(SamplesBeyond(20, 50), 10u);
  EXPECT_EQ(HighestSupportedPercentile(19), 0);    // not even the median
  EXPECT_EQ(HighestSupportedPercentile(20), 50);
  EXPECT_EQ(HighestSupportedPercentile(100), 90);  // p95 has only 5 beyond
  EXPECT_EQ(HighestSupportedPercentile(200), 95);
  EXPECT_EQ(HighestSupportedPercentile(999), 95);  // p99 has 9 beyond
  EXPECT_EQ(HighestSupportedPercentile(1000), 99);
  EXPECT_EQ(SlotsForP95(), 200u);
}

TEST(Ladder, BinarySearchFindsHighestSustainedRung) {
  const std::vector<double> ladder = {1, 2, 3, 4, 5, 6, 7, 8};
  // A system with capacity 5.5: below it the lag stays flat and short.
  const auto probe = [](double rate) {
    RungResult rung;
    rung.lag_p95_ms = rate < 5.5 ? 10.0 : 80.0;
    return rung;
  };
  size_t probes = 0;
  EXPECT_EQ(SustainedRate(ladder, 50.0, probe, &probes), 5);
  EXPECT_LE(probes, 4u);
  // Nothing sustained, everything sustained.
  EXPECT_EQ(SustainedRate(ladder, 5.0, probe), 0);
  EXPECT_EQ(SustainedRate(ladder, 100.0, probe), 8);
}

TEST(Ladder, GrowingBacklogOrFailureIsNotSustained) {
  RungResult growing;
  growing.lag_p95_ms = 10.0;
  growing.backlog_grows = true;
  EXPECT_FALSE(RungSustained(growing, 50.0));
  RungResult failed;
  failed.failed = true;
  EXPECT_FALSE(RungSustained(failed, 50.0));
  RungResult at_limit;
  at_limit.lag_p95_ms = 50.0;
  EXPECT_FALSE(RungSustained(at_limit, 50.0));
  RungResult fine;
  fine.lag_p95_ms = 49.0;
  EXPECT_TRUE(RungSustained(fine, 50.0));
}

TEST(Ladder, BacklogGrowthIsARisingLagTrend) {
  // Flat noisy lag: stationary queue.
  std::vector<double> flat;
  for (int i = 0; i < 90; ++i) flat.push_back(10.0 + (i % 3));
  EXPECT_FALSE(BacklogGrows(flat, 50.0));
  // Lag rising by 1 ms a slot: the last third sits 60 ms above the first.
  std::vector<double> rising;
  for (int i = 0; i < 90; ++i) rising.push_back(5.0 + i);
  EXPECT_TRUE(BacklogGrows(rising, 50.0));
  // A single late spike is not growth.
  std::vector<double> spike = flat;
  spike[80] = 400.0;
  EXPECT_FALSE(BacklogGrows(spike, 50.0));
  EXPECT_FALSE(BacklogGrows(std::vector<double>{100.0, 200.0}, 50.0));
}

TEST(SlotCompleteness, EveryCellMustReachTheUserCount) {
  // d = 2, 3 users, slots 0..1 -> cells 0..3.
  const std::vector<uint64_t> complete = {3, 3, 3, 3};
  EXPECT_TRUE(SlotComplete(complete, 2, 0, 3));
  EXPECT_TRUE(SlotComplete(complete, 2, 1, 3));
  EXPECT_FALSE(SlotComplete(complete, 2, 2, 3));  // beyond the snapshot
  // One consumer ran a slot ahead of the other: slot 1 already has cells
  // while slot 0's cell 1 is still a report short.
  const std::vector<uint64_t> ragged = {3, 2, 3, 1};
  EXPECT_FALSE(SlotComplete(ragged, 2, 0, 3));
  EXPECT_FALSE(SlotComplete(ragged, 2, 1, 3));
  // A total-count threshold would call slot 0 complete here (sum 6 of 6)
  // while cell 1 is still one report short.
  const std::vector<uint64_t> uneven = {4, 2};
  EXPECT_FALSE(SlotComplete(uneven, 2, 0, 3));
}

TEST(Ledger, SelfTimeSubtractsTheUnionOfChildren) {
  // parent [0, 100) with children [10, 30) and [20, 50) (overlapping:
  // union 40) and a grandchild inside the first child.
  const std::vector<SpanInterval> spans = {
      {0, 100, -1}, {10, 30, 0}, {20, 50, 0}, {12, 18, 1},
  };
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 60u);
  EXPECT_EQ(self[1], 14u);
  EXPECT_EQ(self[2], 30u);
  EXPECT_EQ(self[3], 6u);
  // A child sticking out of its parent is clipped to it.
  const std::vector<SpanInterval> clipped = {{0, 10, -1}, {5, 20, 0}};
  EXPECT_EQ(SelfTimes(clipped)[0], 5u);
}

TEST(Ledger, ClosureArithmetic) {
  const std::vector<double> rows = {30.0, 25.0, 20.0, 15.0};
  EXPECT_DOUBLE_EQ(UnaccountedFraction(rows, 100.0), 0.10);
  EXPECT_DOUBLE_EQ(UnaccountedFraction(rows, 90.0), 0.0);
  EXPECT_NEAR(UnaccountedFraction(rows, 80.0), -0.125, 1e-12);
  EXPECT_TRUE(LedgerCloses(0.10, 0.15));
  EXPECT_TRUE(LedgerCloses(-0.125, 0.15));
  EXPECT_FALSE(LedgerCloses(0.2, 0.15));
}

}  // namespace
}  // namespace perfbench
