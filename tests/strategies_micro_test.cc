// Integration tests: every strategy engine must produce bit-exact results
// against the reference oracle on the microbenchmark queries (§IV-B),
// across the selectivity range and the technique-forcing knobs.

#include <gtest/gtest.h>

#include <memory>

#include "engine/reference_engine.h"
#include "micro/micro.h"
#include "strategies/strategy.h"
#include "strategies/swole.h"

namespace swole {
namespace {

// Small but non-trivial scale: several tiles, both S sizes exercised,
// r_rows deliberately not a multiple of the tile size.
MicroConfig TestConfig() {
  MicroConfig config;
  config.r_rows = 20'001;
  config.s_small_rows = 100;
  config.s_large_rows = 3'000;
  config.c_cardinalities = {10, 97, 1'000, 4'000};
  config.seed = 7;
  return config;
}

class MicroStrategiesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = MicroData::Generate(TestConfig()).release();
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  // Runs `plan` through the oracle and every engine; all must agree.
  static void CheckAllStrategies(const QueryPlan& plan) {
    ReferenceEngine oracle(data_->catalog);
    Result<QueryResult> expected = oracle.Execute(plan);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    for (StrategyKind kind :
         {StrategyKind::kDataCentric, StrategyKind::kHybrid,
          StrategyKind::kRof, StrategyKind::kSwole}) {
      StrategyOptions options;
      options.tile_size = 1024;
      std::unique_ptr<Strategy> engine =
          MakeStrategy(kind, data_->catalog, options);
      Result<QueryResult> actual = engine->Execute(plan);
      ASSERT_TRUE(actual.ok())
          << engine->name() << ": " << actual.status().ToString();
      EXPECT_EQ(*actual, *expected)
          << engine->name() << " diverges on " << plan.name << "\nexpected:\n"
          << expected->ToString() << "actual:\n"
          << actual->ToString();
    }
  }

  // Runs `plan` through SWOLE with each forced aggregation technique.
  static void CheckForcedSwoleVariants(const QueryPlan& plan) {
    ReferenceEngine oracle(data_->catalog);
    Result<QueryResult> expected = oracle.Execute(plan);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    for (StrategyOptions::ForceAgg force :
         {StrategyOptions::ForceAgg::kValueMasking,
          StrategyOptions::ForceAgg::kKeyMasking,
          StrategyOptions::ForceAgg::kHybridFallback}) {
      StrategyOptions options;
      options.force_agg = force;
      std::unique_ptr<SwoleStrategy> engine =
          MakeSwoleStrategy(data_->catalog, options);
      Result<QueryResult> actual = engine->Execute(plan);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      EXPECT_EQ(*actual, *expected)
          << "forced " << static_cast<int>(force) << " diverges on "
          << plan.name;
    }
  }

  static MicroData* data_;
};

MicroData* MicroStrategiesTest::data_ = nullptr;

class MicroQ1Sweep : public MicroStrategiesTest,
                     public ::testing::WithParamInterface<int64_t> {};

TEST_P(MicroQ1Sweep, MultiplicationAllStrategiesAgree) {
  CheckAllStrategies(MicroQ1(/*division=*/false, GetParam()));
}

TEST_P(MicroQ1Sweep, DivisionAllStrategiesAgree) {
  CheckAllStrategies(MicroQ1(/*division=*/true, GetParam()));
}

TEST_P(MicroQ1Sweep, ForcedTechniquesAgree) {
  CheckForcedSwoleVariants(MicroQ1(/*division=*/false, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Selectivities, MicroQ1Sweep,
                         ::testing::Values(0, 1, 13, 50, 95, 100));

class MicroQ2Sweep
    : public MicroStrategiesTest,
      public ::testing::WithParamInterface<std::tuple<int, int64_t>> {};

TEST_P(MicroQ2Sweep, GroupByAllStrategiesAgree) {
  auto [card_index, sel] = GetParam();
  const std::string& column = data_->c_columns[card_index];
  CheckAllStrategies(MicroQ2(column, data_->c_actual[card_index], sel));
}

TEST_P(MicroQ2Sweep, ForcedTechniquesAgree) {
  auto [card_index, sel] = GetParam();
  const std::string& column = data_->c_columns[card_index];
  CheckForcedSwoleVariants(
      MicroQ2(column, data_->c_actual[card_index], sel));
}

INSTANTIATE_TEST_SUITE_P(
    CardinalityBySelectivity, MicroQ2Sweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(0, 45, 100)));

class MicroQ3Sweep : public MicroStrategiesTest,
                     public ::testing::WithParamInterface<int64_t> {};

TEST_P(MicroQ3Sweep, ReuseOneAttribute) {
  CheckAllStrategies(MicroQ3(/*reuse_both=*/false, GetParam()));
}

TEST_P(MicroQ3Sweep, ReuseBothAttributes) {
  CheckAllStrategies(MicroQ3(/*reuse_both=*/true, GetParam()));
}

TEST_P(MicroQ3Sweep, AccessMergingDisabledStillCorrect) {
  QueryPlan plan = MicroQ3(/*reuse_both=*/false, GetParam());
  ReferenceEngine oracle(data_->catalog);
  QueryResult expected = oracle.Execute(plan).value();

  StrategyOptions options;
  options.enable_access_merging = false;
  std::unique_ptr<SwoleStrategy> engine =
      MakeSwoleStrategy(data_->catalog, options);
  QueryResult actual = engine->Execute(plan).value();
  EXPECT_EQ(actual, expected);
  EXPECT_FALSE(engine->last_decisions().used_access_merging);
}

INSTANTIATE_TEST_SUITE_P(Selectivities, MicroQ3Sweep,
                         ::testing::Values(0, 30, 100));

TEST_F(MicroStrategiesTest, Q3AccessMergingActuallyEngages) {
  StrategyOptions options;
  options.force_agg = StrategyOptions::ForceAgg::kValueMasking;
  std::unique_ptr<SwoleStrategy> engine =
      MakeSwoleStrategy(data_->catalog, options);
  ASSERT_TRUE(engine->Execute(MicroQ3(false, 30)).ok());
  EXPECT_TRUE(engine->last_decisions().used_access_merging);
}

class MicroQ4Sweep
    : public MicroStrategiesTest,
      public ::testing::WithParamInterface<
          std::tuple<bool, int64_t, int64_t>> {};

TEST_P(MicroQ4Sweep, JoinAllStrategiesAgree) {
  auto [large, sel1, sel2] = GetParam();
  CheckAllStrategies(MicroQ4(large, sel1, sel2));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MicroQ4Sweep,
    ::testing::Combine(::testing::Bool(), ::testing::Values(10, 90),
                       ::testing::Values(0, 10, 90, 100)));

class MicroQ5Sweep
    : public MicroStrategiesTest,
      public ::testing::WithParamInterface<std::tuple<bool, int64_t>> {};

TEST_P(MicroQ5Sweep, GroupjoinAllStrategiesAgree) {
  auto [large, sel] = GetParam();
  int64_t s_rows = large ? TestConfig().s_large_rows
                         : TestConfig().s_small_rows;
  CheckAllStrategies(MicroQ5(large, sel, s_rows));
}

TEST_P(MicroQ5Sweep, EagerAggregationForcedOnAndOffAgree) {
  auto [large, sel] = GetParam();
  int64_t s_rows = large ? TestConfig().s_large_rows
                         : TestConfig().s_small_rows;
  QueryPlan plan = MicroQ5(large, sel, s_rows);
  ReferenceEngine oracle(data_->catalog);
  QueryResult expected = oracle.Execute(plan).value();

  // EA disabled -> groupjoin path.
  {
    StrategyOptions options;
    options.enable_eager_aggregation = false;
    std::unique_ptr<SwoleStrategy> engine =
        MakeSwoleStrategy(data_->catalog, options);
    QueryResult actual = engine->Execute(plan).value();
    EXPECT_EQ(actual, expected) << "groupjoin path";
    EXPECT_FALSE(engine->last_decisions().used_eager_aggregation);
  }
  // EA made irresistible by a profile with brutal lookup costs.
  {
    StrategyOptions options;
    CostProfile profile = CostProfile::Default();
    profile.ht_lookup_l1 = profile.ht_lookup_l2 = profile.ht_lookup_l3 =
        profile.ht_lookup_mem = 1000.0;
    profile.read_cond = 1000.0;
    profile.ht_delete = 0.1;
    options.cost_profile = &profile;
    std::unique_ptr<SwoleStrategy> engine =
        MakeSwoleStrategy(data_->catalog, options);
    QueryResult actual = engine->Execute(plan).value();
    EXPECT_EQ(actual, expected) << "eager aggregation path";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MicroQ5Sweep,
    ::testing::Combine(::testing::Bool(), ::testing::Values(0, 30, 100)));

TEST_F(MicroStrategiesTest, Q5EagerAggregationEngagesWithCheapDeletes) {
  // With a profile where lookups are expensive and deletes cheap, the
  // cost model must pick EA, and the decision must be visible.
  StrategyOptions options;
  CostProfile profile = CostProfile::Default();
  profile.ht_lookup_l1 = profile.ht_lookup_l2 = profile.ht_lookup_l3 =
      profile.ht_lookup_mem = 1000.0;
  profile.read_cond = 1000.0;
  profile.ht_delete = 0.1;
  options.cost_profile = &profile;
  std::unique_ptr<SwoleStrategy> engine =
      MakeSwoleStrategy(data_->catalog, options);
  QueryPlan plan = MicroQ5(false, 50, TestConfig().s_small_rows);
  ASSERT_TRUE(engine->Execute(plan).ok());
  EXPECT_TRUE(engine->last_decisions().used_eager_aggregation);
}

TEST_F(MicroStrategiesTest, TileSizeDoesNotChangeResults) {
  QueryPlan plan = MicroQ1(false, 37);
  ReferenceEngine oracle(data_->catalog);
  QueryResult expected = oracle.Execute(plan).value();
  for (int64_t tile : {64, 100, 1024, 4096}) {
    StrategyOptions options;
    options.tile_size = tile;
    for (StrategyKind kind : {StrategyKind::kHybrid, StrategyKind::kRof,
                              StrategyKind::kSwole}) {
      QueryResult actual =
          MakeStrategy(kind, data_->catalog, options)->Execute(plan).value();
      EXPECT_EQ(actual, expected)
          << StrategyKindName(kind) << " tile=" << tile;
    }
  }
}

}  // namespace
}  // namespace swole
