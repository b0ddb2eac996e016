// TPC-H substrate tests: generator invariants (row counts, key structure,
// domains, predicate selectivities the paper depends on) and full
// correctness of all four strategies against the reference oracle on all
// eight evaluated queries.

#include <gtest/gtest.h>

#include <memory>

#include "common/string_util.h"
#include "cost/estimates.h"
#include "engine/reference_engine.h"
#include "storage/table.h"
#include "strategies/strategy.h"
#include "strategies/swole.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace swole {
namespace {

using tpch::TpchConfig;
using tpch::TpchData;

class TpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TpchConfig config;
    config.scale_factor = 0.002;  // ~3000 orders, ~12000 lineitems
    config.seed = 99;
    data_ = TpchData::Generate(config).release();
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static TpchData* data_;
};

TpchData* TpchTest::data_ = nullptr;

TEST_F(TpchTest, RowCountsScale) {
  EXPECT_EQ(data_->catalog.TableRef("region").num_rows(), 5);
  EXPECT_EQ(data_->catalog.TableRef("nation").num_rows(), 25);
  EXPECT_EQ(data_->catalog.TableRef("orders").num_rows(),
            data_->num_orders);
  EXPECT_EQ(data_->catalog.TableRef("lineitem").num_rows(),
            data_->num_lineitems);
  // 1..7 lineitems per order.
  EXPECT_GE(data_->num_lineitems, data_->num_orders);
  EXPECT_LE(data_->num_lineitems, 7 * data_->num_orders);
  EXPECT_NEAR(static_cast<double>(data_->num_lineitems) /
                  static_cast<double>(data_->num_orders),
              4.0, 0.5);
}

TEST_F(TpchTest, KeysAreDenseAndFkIndexesRegistered) {
  const Table& orders = data_->catalog.TableRef("orders");
  EXPECT_EQ(orders.ColumnRef("o_orderkey").MinValue(), 0);
  EXPECT_EQ(orders.ColumnRef("o_orderkey").MaxValue(),
            data_->num_orders - 1);
  const Table& lineitem = data_->catalog.TableRef("lineitem");
  EXPECT_TRUE(lineitem.GetFkIndex("l_orderkey").ok());
  EXPECT_TRUE(lineitem.GetFkIndex("l_partkey").ok());
  EXPECT_TRUE(lineitem.GetFkIndex("l_suppkey").ok());
  EXPECT_TRUE(orders.GetFkIndex("o_custkey").ok());
  EXPECT_TRUE(
      data_->catalog.TableRef("customer").GetFkIndex("c_nationkey").ok());
  EXPECT_TRUE(
      data_->catalog.TableRef("nation").GetFkIndex("n_regionkey").ok());
}

TEST_F(TpchTest, DateArithmeticInvariants) {
  const Table& lineitem = data_->catalog.TableRef("lineitem");
  const Column& ship = lineitem.ColumnRef("l_shipdate");
  const Column& receipt = lineitem.ColumnRef("l_receiptdate");
  const Column& commit = lineitem.ColumnRef("l_commitdate");
  for (int64_t row = 0; row < std::min<int64_t>(2000, lineitem.num_rows());
       ++row) {
    EXPECT_GT(receipt.ValueAt(row), ship.ValueAt(row));
    EXPECT_LE(receipt.ValueAt(row) - ship.ValueAt(row), 30);
    EXPECT_GE(commit.ValueAt(row), tpch::StartDate());
  }
  EXPECT_GE(ship.MinValue(), tpch::StartDate());
  EXPECT_LE(ship.MaxValue(), tpch::EndDate());
}

TEST_F(TpchTest, DictionariesHoldExpectedVocabularies) {
  const Table& part = data_->catalog.TableRef("part");
  EXPECT_EQ(part.ColumnRef("p_brand").dictionary()->size(), 25);
  EXPECT_LE(part.ColumnRef("p_type").dictionary()->size(), 150);
  EXPECT_LE(part.ColumnRef("p_container").dictionary()->size(), 40);
  EXPECT_GE(tpch::DictCode(data_->catalog, "part", "p_brand", "Brand#12"),
            0);
  EXPECT_GE(tpch::DictCode(data_->catalog, "region", "r_name", "ASIA"), 0);
  EXPECT_GE(tpch::DictCode(data_->catalog, "lineitem", "l_shipinstruct",
                           "DELIVER IN PERSON"),
            0);
  EXPECT_EQ(
      tpch::DictCode(data_->catalog, "region", "r_name", "ATLANTIS"), -1);
}

TEST_F(TpchTest, PaperSelectivitiesHold) {
  const Table& lineitem = data_->catalog.TableRef("lineitem");
  // Q1 predicate selects ~98%.
  {
    ExprPtr pred = Le(Col("l_shipdate"), Lit(ParseDate("1998-12-01") - 90));
    double sel = EstimateSelectivity(lineitem, *pred);
    EXPECT_GT(sel, 0.93);
    EXPECT_LT(sel, 1.0);
  }
  // Q6 predicate selects ~2%.
  {
    QueryPlan q6 = tpch::Q6(data_->catalog);
    double sel = EstimateSelectivity(lineitem, *q6.fact_filter);
    EXPECT_GT(sel, 0.003);
    EXPECT_LT(sel, 0.05);
  }
  // Q13 NOT LIKE passes ~98%.
  {
    QueryPlan q13 = tpch::Q13(data_->catalog);
    double sel = EstimateSelectivity(data_->catalog.TableRef("orders"),
                                     *q13.fact_filter);
    EXPECT_GT(sel, 0.95);
    EXPECT_LT(sel, 0.995);
  }
  // Q4's orders quarter is ~1/26 of the date range (~4%).
  {
    QueryPlan q4 = tpch::Q4(data_->catalog);
    double sel = EstimateSelectivity(data_->catalog.TableRef("orders"),
                                     *q4.fact_filter);
    EXPECT_GT(sel, 0.02);
    EXPECT_LT(sel, 0.06);
  }
}

TEST_F(TpchTest, ZeroOrderCustomersExist) {
  // dbgen rule: custkey % 3 == 0 places no orders — Q13's zero bucket.
  const Column& custkey =
      data_->catalog.TableRef("orders").ColumnRef("o_custkey");
  for (int64_t row = 0; row < custkey.size(); ++row) {
    EXPECT_NE(custkey.ValueAt(row) % 3, 0) << "row " << row;
  }
}

class TpchQuerySweep : public TpchTest,
                       public ::testing::WithParamInterface<int> {};

TEST_P(TpchQuerySweep, AllStrategiesMatchReference) {
  std::vector<QueryPlan> plans = tpch::AllQueries(data_->catalog);
  const QueryPlan& plan = plans[GetParam()];

  ReferenceEngine oracle(data_->catalog);
  Result<QueryResult> expected = oracle.Execute(plan);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (StrategyKind kind :
       {StrategyKind::kDataCentric, StrategyKind::kHybrid, StrategyKind::kRof,
        StrategyKind::kSwole}) {
    std::unique_ptr<Strategy> engine = MakeStrategy(kind, data_->catalog);
    Result<QueryResult> actual = engine->Execute(plan);
    ASSERT_TRUE(actual.ok())
        << plan.name << " " << engine->name() << ": "
        << actual.status().ToString();
    EXPECT_EQ(*actual, *expected)
        << engine->name() << " diverges on " << plan.name << "\nexpected:\n"
        << expected->ToString() << "actual:\n"
        << actual->ToString();
  }
}

TEST_P(TpchQuerySweep, ForcedSwoleTechniquesMatchReference) {
  std::vector<QueryPlan> plans = tpch::AllQueries(data_->catalog);
  const QueryPlan& plan = plans[GetParam()];

  ReferenceEngine oracle(data_->catalog);
  QueryResult expected = oracle.Execute(plan).value();

  for (StrategyOptions::ForceAgg force :
       {StrategyOptions::ForceAgg::kValueMasking,
        StrategyOptions::ForceAgg::kKeyMasking,
        StrategyOptions::ForceAgg::kHybridFallback}) {
    StrategyOptions options;
    options.force_agg = force;
    std::unique_ptr<SwoleStrategy> engine =
        MakeSwoleStrategy(data_->catalog, options);
    Result<QueryResult> actual = engine->Execute(plan);
    ASSERT_TRUE(actual.ok()) << plan.name << ": "
                             << actual.status().ToString();
    EXPECT_EQ(*actual, expected)
        << plan.name << " forced " << static_cast<int>(force);
  }
}

TEST_P(TpchQuerySweep, AblationFlagsStillCorrect) {
  std::vector<QueryPlan> plans = tpch::AllQueries(data_->catalog);
  const QueryPlan& plan = plans[GetParam()];
  ReferenceEngine oracle(data_->catalog);
  QueryResult expected = oracle.Execute(plan).value();

  for (int knob = 0; knob < 2; ++knob) {
    StrategyOptions options;
    if (knob == 0) options.enable_access_merging = false;
    if (knob == 1) options.enable_eager_aggregation = false;
    std::unique_ptr<SwoleStrategy> engine =
        MakeSwoleStrategy(data_->catalog, options);
    Result<QueryResult> actual = engine->Execute(plan);
    ASSERT_TRUE(actual.ok()) << plan.name << " knob " << knob;
    EXPECT_EQ(*actual, expected) << plan.name << " knob " << knob;
  }
}

std::string TpchQueryName(const ::testing::TestParamInfo<int>& info) {
  static constexpr const char* kNames[] = {"Q1",  "Q3",  "Q4",  "Q5",
                                           "Q6",  "Q13", "Q14", "Q19"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllEight, TpchQuerySweep, ::testing::Range(0, 8),
                         TpchQueryName);

TEST_F(TpchTest, Q14PromoShareIsPlausible) {
  // PROMO is 1 of 6 type syllables -> promo revenue should be roughly 1/6
  // of total revenue.
  ReferenceEngine oracle(data_->catalog);
  QueryResult result = oracle.Execute(tpch::Q14(data_->catalog)).value();
  ASSERT_EQ(result.scalar.size(), 2u);
  double share = static_cast<double>(result.scalar[0]) /
                 static_cast<double>(result.scalar[1]);
  EXPECT_GT(share, 0.05);
  EXPECT_LT(share, 0.35);
}

TEST_F(TpchTest, Q13HistogramHasZeroBucket) {
  ReferenceEngine oracle(data_->catalog);
  QueryResult result = oracle.Execute(tpch::Q13(data_->catalog)).value();
  ASSERT_TRUE(result.grouped);
  ASSERT_GT(result.NumGroups(), 0);
  // First row is count 0: the ~1/3 of customers with no orders.
  EXPECT_EQ(result.group_keys[0], 0);
  int64_t customers = data_->catalog.TableRef("customer").num_rows();
  EXPECT_GT(result.GroupAgg(0, 0), customers / 4);
  // Total groups across buckets == number of customers.
  int64_t total = 0;
  for (int64_t i = 0; i < result.NumGroups(); ++i) {
    total += result.GroupAgg(i, 0);
  }
  EXPECT_EQ(total, customers);
}

}  // namespace
}  // namespace swole
