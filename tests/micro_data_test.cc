// Microbenchmark substrate tests: schema/type conventions of Fig. 7a,
// uniform distributions, fk integrity, cardinality capping, and
// selectivity semantics of the [SEL] parameter.

#include <gtest/gtest.h>

#include "common/random.h"
#include "cost/estimates.h"
#include "engine/reference_engine.h"
#include "micro/micro.h"
#include "storage/table.h"
#include "strategies/strategy.h"

namespace swole {
namespace {

class MicroDataTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    MicroConfig config;
    config.r_rows = 40'000;
    config.s_small_rows = 100;
    config.s_large_rows = 2'000;
    config.c_cardinalities = {10, 1'000, 1'000'000};  // last one capped
    config.seed = 11;
    data_ = MicroData::Generate(config).release();
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }
  static MicroData* data_;
};

MicroData* MicroDataTest::data_ = nullptr;

TEST_F(MicroDataTest, SchemaAndNarrowTypes) {
  const Table& r = data_->catalog.TableRef("r");
  EXPECT_EQ(r.num_rows(), 40'000);
  // Cardinality-100 attributes use int8 (null suppression).
  EXPECT_EQ(r.ColumnRef("r_a").type().physical, PhysicalType::kInt8);
  EXPECT_EQ(r.ColumnRef("r_x").type().physical, PhysicalType::kInt8);
  // Fk columns sized to the referenced table.
  EXPECT_EQ(r.ColumnRef("r_fk_small").type().physical, PhysicalType::kInt8);
  EXPECT_EQ(r.ColumnRef("r_fk_large").type().physical,
            PhysicalType::kInt16);
}

TEST_F(MicroDataTest, DomainsMatchFig7a) {
  const Table& r = data_->catalog.TableRef("r");
  EXPECT_GE(r.ColumnRef("r_a").MinValue(), 0);
  EXPECT_LE(r.ColumnRef("r_a").MaxValue(), 99);
  EXPECT_GE(r.ColumnRef("r_b").MinValue(), 1);  // safe divisor
  EXPECT_LE(r.ColumnRef("r_b").MaxValue(), 100);
  EXPECT_EQ(r.ColumnRef("r_y").MinValue(), 1);
  EXPECT_EQ(r.ColumnRef("r_y").MaxValue(), 1);
}

TEST_F(MicroDataTest, CardinalityCapping) {
  ASSERT_EQ(data_->c_columns.size(), 3u);
  EXPECT_EQ(data_->c_actual[0], 10);
  EXPECT_EQ(data_->c_actual[1], 1'000);
  EXPECT_EQ(data_->c_actual[2], 10'000);  // capped at rows/4
  const Table& r = data_->catalog.TableRef("r");
  for (size_t c = 0; c < data_->c_columns.size(); ++c) {
    EXPECT_LT(r.ColumnRef(data_->c_columns[c]).MaxValue(),
              data_->c_actual[c]);
  }
}

TEST_F(MicroDataTest, FkIndexesRegisteredAndDense) {
  const Table& r = data_->catalog.TableRef("r");
  Result<const FkIndex*> small = r.GetFkIndex("r_fk_small");
  ASSERT_TRUE(small.ok());
  EXPECT_EQ((*small)->referenced_size(), 100);
  Result<const FkIndex*> large = r.GetFkIndex("r_fk_large");
  ASSERT_TRUE(large.ok());
  EXPECT_EQ((*large)->referenced_size(), 2'000);
  // Dense pk => offset equals the fk value.
  for (int64_t row = 0; row < 200; ++row) {
    EXPECT_EQ((*small)->OffsetAt(row),
              static_cast<uint32_t>(r.ColumnRef("r_fk_small").ValueAt(row)));
  }
}

TEST_F(MicroDataTest, SelParameterIsSelectivityPercent) {
  const Table& r = data_->catalog.TableRef("r");
  for (int64_t sel : {0, 25, 50, 75, 100}) {
    QueryPlan plan = MicroQ1(false, sel);
    double measured =
        EstimateSelectivity(r, *plan.fact_filter, r.num_rows());
    EXPECT_NEAR(measured, sel / 100.0, 0.02) << "sel " << sel;
  }
}

TEST_F(MicroDataTest, GenerationIsDeterministic) {
  MicroConfig config = data_->config;
  auto again = MicroData::Generate(config);
  const Table& a = data_->catalog.TableRef("r");
  const Table& b = again->catalog.TableRef("r");
  for (int64_t row = 0; row < 100; ++row) {
    EXPECT_EQ(a.ColumnRef("r_a").ValueAt(row),
              b.ColumnRef("r_a").ValueAt(row));
    EXPECT_EQ(a.ColumnRef("r_fk_large").ValueAt(row),
              b.ColumnRef("r_fk_large").ValueAt(row));
  }
}

TEST_F(MicroDataTest, DifferentSeedsDiffer) {
  MicroConfig config = data_->config;
  config.seed = 999;
  config.r_rows = 1'000;
  auto other = MicroData::Generate(config);
  const Table& a = data_->catalog.TableRef("r");
  const Table& b = other->catalog.TableRef("r");
  int differing = 0;
  for (int64_t row = 0; row < 1'000; ++row) {
    if (a.ColumnRef("r_a").ValueAt(row) != b.ColumnRef("r_a").ValueAt(row)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 900);
}

// The generator draws keys uniformly; the engines must also agree when one
// group key dominates, so this rebuilds Q2's columns of r with a
// hand-skewed group key (90% of rows on key 0).
TEST_F(MicroDataTest, SkewedDataStillAgreesAcrossStrategies) {
  constexpr int64_t kRows = 10'000;
  const Table& r = data_->catalog.TableRef("r");
  auto skewed = std::make_shared<Table>("r");
  for (const char* name : {"r_a", "r_b", "r_x", "r_y"}) {
    const Column& source = r.ColumnRef(name);
    auto col = std::make_unique<Column>(name, source.type());
    for (int64_t row = 0; row < kRows; ++row) {
      col->Append(source.ValueAt(row));
    }
    skewed->AddColumn(std::move(col)).CheckOK();
  }
  auto hot = std::make_unique<Column>(
      "r_c_hot", ColumnType::Int(PhysicalType::kInt16));
  Rng rng(3);
  for (int64_t row = 0; row < kRows; ++row) {
    hot->Append(rng.Bernoulli(0.9) ? 0 : rng.UniformInt(1, 999));
  }
  skewed->AddColumn(std::move(hot)).CheckOK();
  Catalog catalog;
  catalog.AddTable(skewed).CheckOK();

  QueryPlan plan = MicroQ2("r_c_hot", 1'000, 60);
  QueryResult expected = ReferenceEngine(catalog).Execute(plan).value();
  EXPECT_GT(expected.group_keys.size(), 100u);
  for (StrategyKind kind :
       {StrategyKind::kDataCentric, StrategyKind::kHybrid,
        StrategyKind::kRof, StrategyKind::kSwole}) {
    QueryResult actual = MakeStrategy(kind, catalog)->Execute(plan).value();
    EXPECT_EQ(actual, expected) << StrategyKindName(kind);
  }
}

TEST_F(MicroDataTest, QueryBuildersValidate) {
  for (int64_t sel : {0, 50, 100}) {
    EXPECT_TRUE(
        ValidatePlan(MicroQ1(false, sel), data_->catalog).ok());
    EXPECT_TRUE(ValidatePlan(MicroQ1(true, sel), data_->catalog).ok());
    EXPECT_TRUE(ValidatePlan(MicroQ3(true, sel), data_->catalog).ok());
    EXPECT_TRUE(
        ValidatePlan(MicroQ4(false, sel, 100 - sel), data_->catalog).ok());
    EXPECT_TRUE(ValidatePlan(MicroQ5(true, sel, 2'000), data_->catalog).ok());
  }
  EXPECT_TRUE(ValidatePlan(MicroQ2(data_->c_columns[1], data_->c_actual[1],
                                   40),
                           data_->catalog)
                  .ok());
}

}  // namespace
}  // namespace swole
