#include <cstdio>
#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "data/synthetic.h"
#include "tests/test_util.h"

namespace mgbr {
namespace {

using mgbr::testing::ScopedTempDir;

using mgbr::testing::TinyDataset;

// ---------------------------------------------------------------------------
// GroupBuyingDataset basics.
// ---------------------------------------------------------------------------

TEST(DatasetTest, StatsAndCounts) {
  GroupBuyingDataset ds(4, 3, {{0, 1, {2, 3}}, {1, 0, {}}, {0, 2, {1}}});
  EXPECT_EQ(ds.n_users(), 4);
  EXPECT_EQ(ds.n_items(), 3);
  EXPECT_EQ(ds.n_groups(), 3);
  EXPECT_EQ(ds.n_joins(), 3);
  auto counts = ds.UserInteractionCounts();
  EXPECT_EQ(counts[0], 2);  // initiates twice
  EXPECT_EQ(counts[1], 2);  // initiates once + joins once
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 1);
}

TEST(DatasetDeathTest, OutOfRangeIdsAbort) {
  EXPECT_DEATH(GroupBuyingDataset(2, 2, {{2, 0, {}}}), "CHECK");
  EXPECT_DEATH(GroupBuyingDataset(2, 2, {{0, 2, {}}}), "CHECK");
  EXPECT_DEATH(GroupBuyingDataset(2, 2, {{0, 0, {5}}}), "CHECK");
}

// ---------------------------------------------------------------------------
// FilterMinInteractions (paper §III-A2 preprocessing).
// ---------------------------------------------------------------------------

TEST(FilterTest, DropsRareUsersAndTheirGroups) {
  // User 2 appears once; the group containing them must go.
  GroupBuyingDataset ds(3, 2, {{0, 0, {1}}, {0, 1, {1}}, {0, 0, {2}},
                               {1, 0, {0}}, {0, 1, {1}}});
  GroupBuyingDataset filtered = ds.FilterMinInteractions(3);
  // Counts: u0 = 5, u1 = 4, u2 = 1 -> drop u2 and its group.
  EXPECT_EQ(filtered.n_groups(), 4);
  EXPECT_EQ(filtered.n_users(), 2);
  for (const DealGroup& g : filtered.groups()) {
    EXPECT_LT(g.initiator, 2);
    for (int64_t p : g.participants) EXPECT_LT(p, 2);
  }
}

TEST(FilterTest, ReindexesDensely) {
  GroupBuyingDataset ds(10, 10, {{7, 9, {8}}, {7, 9, {8}}, {8, 9, {7}},
                                 {7, 9, {}}, {8, 9, {7}}});
  GroupBuyingDataset filtered = ds.FilterMinInteractions(2);
  EXPECT_EQ(filtered.n_users(), 2);  // users 7 and 8 survive
  EXPECT_EQ(filtered.n_items(), 1);  // only item 9
  for (const DealGroup& g : filtered.groups()) {
    EXPECT_LT(g.initiator, filtered.n_users());
    EXPECT_LT(g.item, filtered.n_items());
  }
}

TEST(FilterTest, ThresholdOneKeepsEverything) {
  GroupBuyingDataset ds = TinyDataset();
  GroupBuyingDataset filtered = ds.FilterMinInteractions(1);
  EXPECT_EQ(filtered.n_groups(), ds.n_groups());
}

TEST(FilterTest, MonotoneInThreshold) {
  GroupBuyingDataset ds = TinyDataset(20, 8, 60, 7);
  int64_t prev = ds.n_groups() + 1;
  for (int64_t t : {1, 3, 5, 8}) {
    const int64_t n = ds.FilterMinInteractions(t).n_groups();
    EXPECT_LE(n, prev);
    prev = n;
  }
}

// ---------------------------------------------------------------------------
// SplitByRatio.
// ---------------------------------------------------------------------------

TEST(SplitTest, PartitionsAllGroups) {
  GroupBuyingDataset ds = TinyDataset(15, 5, 110, 3);
  Rng rng(9);
  DatasetSplit split = ds.SplitByRatio(7, 3, 1, &rng);
  EXPECT_EQ(split.train.n_groups() + split.validation.n_groups() +
                split.test.n_groups(),
            ds.n_groups());
  // 7/11 of 110 = 70, 3/11 = 30, rest 10.
  EXPECT_EQ(split.train.n_groups(), 70);
  EXPECT_EQ(split.validation.n_groups(), 30);
  EXPECT_EQ(split.test.n_groups(), 10);
  EXPECT_EQ(split.train.n_users(), ds.n_users());
  EXPECT_EQ(split.test.n_items(), ds.n_items());
}

TEST(SplitTest, DeterministicInSeed) {
  GroupBuyingDataset ds = TinyDataset(15, 5, 50, 3);
  Rng r1(5), r2(5);
  DatasetSplit s1 = ds.SplitByRatio(7, 3, 1, &r1);
  DatasetSplit s2 = ds.SplitByRatio(7, 3, 1, &r2);
  ASSERT_EQ(s1.test.n_groups(), s2.test.n_groups());
  for (int64_t g = 0; g < s1.test.n_groups(); ++g) {
    EXPECT_EQ(s1.test.groups()[g].initiator, s2.test.groups()[g].initiator);
    EXPECT_EQ(s1.test.groups()[g].item, s2.test.groups()[g].item);
  }
}

// ---------------------------------------------------------------------------
// Save / Load round trip.
// ---------------------------------------------------------------------------

TEST(DatasetIoTest, RoundTrip) {
  GroupBuyingDataset ds(5, 4, {{0, 1, {2, 3}}, {4, 0, {}}, {1, 3, {0}}});
  const ScopedTempDir temp("data");
  const std::string path = temp.File("mgbr_ds_test.csv");
  ASSERT_TRUE(ds.Save(path).ok());
  auto loaded = GroupBuyingDataset::Load(path);
  ASSERT_TRUE(loaded.ok());
  const GroupBuyingDataset& l = loaded.value();
  EXPECT_EQ(l.n_users(), 5);
  EXPECT_EQ(l.n_items(), 4);
  ASSERT_EQ(l.n_groups(), 3);
  EXPECT_EQ(l.groups()[0].participants, (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(l.groups()[1].participants.size(), 0u);
}

TEST(DatasetIoTest, RejectsMalformedFiles) {
  const ScopedTempDir temp("data");
  const std::string path = temp.File("mgbr_bad_ds.csv");
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("5,4\n0,1,9\n", f);  // participant 9 out of range
    fclose(f);
  }
  EXPECT_FALSE(GroupBuyingDataset::Load(path).ok());
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("5\n", f);  // bad header
    fclose(f);
  }
  EXPECT_FALSE(GroupBuyingDataset::Load(path).ok());
  EXPECT_FALSE(GroupBuyingDataset::Load("/no/such/file.csv").ok());
}

TEST(DatasetIoTest, LenientModeSkipsAndCountsDefectiveRows) {
  const ScopedTempDir temp("data");
  const std::string path = temp.File("mgbr_lenient_ds.csv");
  {
    FILE* f = fopen(path.c_str(), "w");
    // header; good row; out-of-range participant; short row;
    // out-of-range item; non-numeric initiator; row with duplicate
    // participant + participant == initiator.
    fputs(
        "5,4\n"
        "0,1,2\n"
        "0,1,9\n"
        "3\n"
        "0,7\n"
        "x,1\n"
        "1,2,3,3,1\n",
        f);
    fclose(f);
  }
  DatasetLoadOptions lenient;
  lenient.strict = false;
  Result<GroupBuyingDataset> result = GroupBuyingDataset::Load(path, lenient);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const GroupBuyingDataset& ds = result.value();
  // Good row + deduplicated row survive; the four defective rows don't.
  ASSERT_EQ(ds.n_groups(), 2);
  EXPECT_EQ(ds.groups()[0].participants, (std::vector<int64_t>{2}));
  // "1,2,3,3,1": duplicate 3 and initiator-as-participant 1 dropped.
  EXPECT_EQ(ds.groups()[1].initiator, 1);
  EXPECT_EQ(ds.groups()[1].participants, (std::vector<int64_t>{3}));

  // The same file fails fast in strict mode.
  EXPECT_FALSE(GroupBuyingDataset::Load(path).ok());

  // Lenient mode still refuses a garbled header outright.
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("not-a-header\n0,1\n", f);
    fclose(f);
  }
  EXPECT_FALSE(GroupBuyingDataset::Load(path, lenient).ok());
}

TEST(DatasetIoTest, LenientModeCountsSkipCauses) {
  const bool saved = TelemetryEnabled();
  SetTelemetryEnabled(true);
  Counter* skipped = MetricsRegistry::Global().GetCounter(
      "dataset.rows_skipped_bad_participant");
  Counter* dropped = MetricsRegistry::Global().GetCounter(
      "dataset.duplicate_participants_dropped");
  const int64_t skipped_before = skipped->Value();
  const int64_t dropped_before = dropped->Value();

  const ScopedTempDir temp("data");
  const std::string path = temp.File("mgbr_lenient_count.csv");
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("5,4\n0,1,9\n1,2,3,3\n", f);
    fclose(f);
  }
  DatasetLoadOptions lenient;
  lenient.strict = false;
  ASSERT_TRUE(GroupBuyingDataset::Load(path, lenient).ok());
  EXPECT_EQ(skipped->Value(), skipped_before + 1);
  EXPECT_EQ(dropped->Value(), dropped_before + 1);
  SetTelemetryEnabled(saved);
}

// ---------------------------------------------------------------------------
// InteractionIndex.
// ---------------------------------------------------------------------------

TEST(IndexTest, UserBoughtItemCoversBothRoles) {
  GroupBuyingDataset ds(3, 3, {{0, 1, {2}}});
  InteractionIndex idx(ds);
  EXPECT_TRUE(idx.UserBoughtItem(0, 1));   // initiator
  EXPECT_TRUE(idx.UserBoughtItem(2, 1));   // participant
  EXPECT_FALSE(idx.UserBoughtItem(1, 1));  // uninvolved
  EXPECT_FALSE(idx.UserBoughtItem(0, 0));
}

TEST(IndexTest, InGroupIncludesInitiatorAndParticipants) {
  GroupBuyingDataset ds(4, 2, {{0, 1, {2, 3}}});
  InteractionIndex idx(ds);
  EXPECT_TRUE(idx.InGroup(0, 1, 0));
  EXPECT_TRUE(idx.InGroup(0, 1, 2));
  EXPECT_TRUE(idx.InGroup(0, 1, 3));
  EXPECT_FALSE(idx.InGroup(0, 1, 1));
  EXPECT_FALSE(idx.InGroup(0, 0, 2));  // different item => different group
}

TEST(IndexTest, MergesGroupsWithSameKey) {
  GroupBuyingDataset ds(4, 2, {{0, 1, {2}}, {0, 1, {3}}});
  InteractionIndex idx(ds);
  EXPECT_TRUE(idx.InGroup(0, 1, 2));
  EXPECT_TRUE(idx.InGroup(0, 1, 3));
}

// ---------------------------------------------------------------------------
// BeibeiSim synthetic generator.
// ---------------------------------------------------------------------------

TEST(SyntheticTest, RespectsConfigShape) {
  BeibeiSimConfig config;
  config.n_users = 50;
  config.n_items = 20;
  config.n_groups = 100;
  GroupBuyingDataset ds = GenerateBeibeiSim(config);
  EXPECT_EQ(ds.n_users(), 50);
  EXPECT_EQ(ds.n_items(), 20);
  EXPECT_EQ(ds.n_groups(), 100);
  for (const DealGroup& g : ds.groups()) {
    EXPECT_GE(g.initiator, 0);
    EXPECT_LT(g.initiator, 50);
    EXPECT_LT(g.item, 20);
    std::set<int64_t> uniq(g.participants.begin(), g.participants.end());
    EXPECT_EQ(uniq.size(), g.participants.size());  // no duplicate joins
    EXPECT_EQ(uniq.count(g.initiator), 0u);  // initiator never joins
  }
}

TEST(SyntheticTest, DeterministicInSeed) {
  BeibeiSimConfig config;
  config.n_users = 40;
  config.n_items = 15;
  config.n_groups = 60;
  config.seed = 77;
  GroupBuyingDataset a = GenerateBeibeiSim(config);
  GroupBuyingDataset b = GenerateBeibeiSim(config);
  ASSERT_EQ(a.n_groups(), b.n_groups());
  for (int64_t g = 0; g < a.n_groups(); ++g) {
    EXPECT_EQ(a.groups()[g].initiator, b.groups()[g].initiator);
    EXPECT_EQ(a.groups()[g].item, b.groups()[g].item);
    EXPECT_EQ(a.groups()[g].participants, b.groups()[g].participants);
  }
  config.seed = 78;
  GroupBuyingDataset c = GenerateBeibeiSim(config);
  bool differs = false;
  for (int64_t g = 0; g < a.n_groups() && !differs; ++g) {
    differs = a.groups()[g].item != c.groups()[g].item;
  }
  EXPECT_TRUE(differs);
}

TEST(SyntheticTest, GroupSizeTracksMean) {
  BeibeiSimConfig config;
  config.n_users = 100;
  config.n_items = 30;
  config.n_groups = 800;
  config.group_size_mean = 4.0;
  GroupBuyingDataset ds = GenerateBeibeiSim(config);
  const double mean_joins =
      static_cast<double>(ds.n_joins()) / ds.n_groups();
  // group_size_mean - 1 expected joins, minus duplicate-rejection loss.
  EXPECT_GT(mean_joins, 1.8);
  EXPECT_LT(mean_joins, 3.2);
}

TEST(SyntheticTest, SocialSignalExists) {
  // Participants should co-occur with the same initiator far more often
  // than random pairs would.
  BeibeiSimConfig config;
  config.n_users = 120;
  config.n_items = 30;
  config.n_groups = 600;
  config.social_weight = 2.5;
  GroupBuyingDataset ds = GenerateBeibeiSim(config);
  // Count distinct (initiator, participant) pairs vs total joins:
  // strong social preference => heavy repetition of pairs.
  std::set<std::pair<int64_t, int64_t>> pairs;
  int64_t joins = 0;
  for (const DealGroup& g : ds.groups()) {
    for (int64_t p : g.participants) {
      pairs.insert({g.initiator, p});
      ++joins;
    }
  }
  ASSERT_GT(joins, 0);
  const double repetition =
      static_cast<double>(joins) / static_cast<double>(pairs.size());
  EXPECT_GT(repetition, 1.15);
}

}  // namespace
}  // namespace mgbr
