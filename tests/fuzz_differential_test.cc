// Randomized differential testing: generate random tables, random
// predicate/aggregate expression trees, and random plan shapes, then check
// that all four strategy engines produce bit-exact results against the
// reference oracle. This sweeps corners no hand-written test enumerates
// (deep expression nesting, degenerate selectivities, skewed group counts,
// empty intermediate results).

#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "common/string_util.h"
#include "engine/reference_engine.h"
#include "storage/table.h"
#include "strategies/strategy.h"

namespace swole {
namespace {

// Builds a random table with a mix of physical types. Column c0..c3 are
// generic values; "fk" references the dim table; "divisor" is >= 1.
struct FuzzData {
  Catalog catalog;
  int64_t dim_rows;
};

std::unique_ptr<FuzzData> MakeFuzzData(Rng* rng) {
  auto data = std::make_unique<FuzzData>();
  int64_t rows = rng->UniformInt(1, 5000);
  data->dim_rows = rng->UniformInt(1, 200);

  auto dim = std::make_shared<Table>("d");
  {
    auto pk = std::make_unique<Column>(
        "d_pk", ColumnType::Int(PhysicalType::kInt32));
    auto v = std::make_unique<Column>(
        "d_v", ColumnType::Int(PhysicalType::kInt16));
    for (int64_t i = 0; i < data->dim_rows; ++i) {
      pk->Append(i);
      v->Append(rng->UniformInt(-50, 50));
    }
    dim->AddColumn(std::move(pk)).CheckOK();
    dim->AddColumn(std::move(v)).CheckOK();
  }

  auto fact = std::make_shared<Table>("f");
  {
    PhysicalType types[4] = {PhysicalType::kInt8, PhysicalType::kInt16,
                             PhysicalType::kInt32, PhysicalType::kInt64};
    for (int c = 0; c < 4; ++c) {
      auto col = std::make_unique<Column>(StringFormat("c%d", c),
                                          ColumnType::Int(types[c]));
      int64_t lo = -100, hi = 100;
      if (rng->Bernoulli(0.3)) {  // sometimes a tiny domain
        lo = 0;
        hi = rng->UniformInt(1, 5);
      }
      for (int64_t i = 0; i < rows; ++i) {
        col->Append(rng->UniformInt(lo, hi));
      }
      fact->AddColumn(std::move(col)).CheckOK();
    }
    auto divisor = std::make_unique<Column>(
        "divisor", ColumnType::Int(PhysicalType::kInt8));
    auto fk = std::make_unique<Column>(
        "fk", ColumnType::Int(PhysicalType::kInt32));
    for (int64_t i = 0; i < rows; ++i) {
      divisor->Append(rng->UniformInt(1, 9));
      fk->Append(rng->UniformInt(0, data->dim_rows - 1));
    }
    fact->AddColumn(std::move(divisor)).CheckOK();
    fact->AddColumn(std::move(fk)).CheckOK();
    Result<FkIndex> index =
        FkIndex::Build(fact->ColumnRef("fk"), dim->ColumnRef("d_pk"));
    index.status().CheckOK();
    fact->AddFkIndex("fk", std::move(index).value()).CheckOK();
  }

  data->catalog.AddTable(fact).CheckOK();
  data->catalog.AddTable(dim).CheckOK();
  return data;
}

// Random numeric expression over fact columns. Division is restricted to
// the strictly positive "divisor" column so pullup evaluation is safe.
ExprPtr RandomNumeric(Rng* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.4)) {
    if (rng->Bernoulli(0.3)) return Lit(rng->UniformInt(-20, 20));
    return Col(StringFormat("c%lld",
                            static_cast<long long>(rng->NextBounded(4))));
  }
  switch (rng->NextBounded(4)) {
    case 0:
      return Add(RandomNumeric(rng, depth - 1), RandomNumeric(rng, depth - 1));
    case 1:
      return Sub(RandomNumeric(rng, depth - 1), RandomNumeric(rng, depth - 1));
    case 2:
      return Mul(RandomNumeric(rng, depth - 1), RandomNumeric(rng, depth - 1));
    default:
      return Div(RandomNumeric(rng, depth - 1), Col("divisor"));
  }
}

// Random boolean expression over fact columns.
ExprPtr RandomPredicate(Rng* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.5)) {
    BinaryOp ops[] = {BinaryOp::kLt, BinaryOp::kLe, BinaryOp::kGt,
                      BinaryOp::kGe, BinaryOp::kEq, BinaryOp::kNe};
    BinaryOp op = ops[rng->NextBounded(6)];
    ExprPtr col = Col(StringFormat(
        "c%lld", static_cast<long long>(rng->NextBounded(4))));
    if (rng->Bernoulli(0.2)) {
      // Column-vs-column comparison.
      return Binary(op, std::move(col),
                    Col(StringFormat("c%lld", static_cast<long long>(
                                                  rng->NextBounded(4)))));
    }
    if (rng->Bernoulli(0.15)) {
      std::vector<int64_t> values;
      for (int i = 0; i < 3; ++i) values.push_back(rng->UniformInt(-5, 5));
      return InList(std::move(col), std::move(values));
    }
    return Binary(op, std::move(col), Lit(rng->UniformInt(-110, 110)));
  }
  switch (rng->NextBounded(3)) {
    case 0:
      return And(RandomPredicate(rng, depth - 1),
                 RandomPredicate(rng, depth - 1));
    case 1:
      return Or(RandomPredicate(rng, depth - 1),
                RandomPredicate(rng, depth - 1));
    default:
      return Not(RandomPredicate(rng, depth - 1));
  }
}

QueryPlan RandomPlan(Rng* rng, int64_t dim_rows) {
  QueryPlan plan;
  plan.name = "fuzz";
  // A std::string, not the literal: assigning the literal here trips a
  // GCC 12 -Wrestrict false positive inside std::string::_M_replace.
  plan.fact_table = std::string("f");
  if (rng->Bernoulli(0.8)) {
    plan.fact_filter = RandomPredicate(rng, 3);
  }
  if (rng->Bernoulli(0.4)) {
    DimJoin dim;
    dim.hop = {"fk", "d", "d_pk"};
    if (rng->Bernoulli(0.7)) {
      dim.filter = Binary(BinaryOp::kLt, Col("d_v"),
                          Lit(rng->UniformInt(-60, 60)));
    }
    plan.dims.push_back(std::move(dim));
  }
  if (rng->Bernoulli(0.5)) {
    plan.group_by = rng->Bernoulli(0.5)
                        ? Col("fk")
                        : RandomNumeric(rng, 1);
    plan.group_cardinality_hint = dim_rows;
  }
  int naggs = static_cast<int>(rng->UniformInt(1, 3));
  for (int a = 0; a < naggs; ++a) {
    if (rng->Bernoulli(0.25)) {
      plan.aggs.emplace_back(AggKind::kCount, nullptr,
                             StringFormat("agg%d", a));
    } else {
      plan.aggs.emplace_back(AggKind::kSum, RandomNumeric(rng, 2),
                             StringFormat("agg%d", a));
    }
  }
  return plan;
}

class FuzzDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzDifferentialTest, EnginesMatchOracleOnRandomPlans) {
  Rng rng(0xF00D + static_cast<uint64_t>(GetParam()) * 7919);
  std::unique_ptr<FuzzData> data = MakeFuzzData(&rng);
  ReferenceEngine oracle(data->catalog);

  for (int round = 0; round < 8; ++round) {
    QueryPlan plan = RandomPlan(&rng, data->dim_rows);
    Result<QueryResult> expected = oracle.Execute(plan);
    ASSERT_TRUE(expected.ok())
        << expected.status().ToString() << "\n" << plan.ToString();

    for (StrategyKind kind :
         {StrategyKind::kDataCentric, StrategyKind::kHybrid,
          StrategyKind::kRof, StrategyKind::kSwole}) {
      StrategyOptions options;
      options.tile_size = 128;  // many tile boundaries at fuzz scale
      std::unique_ptr<Strategy> engine =
          MakeStrategy(kind, data->catalog, options);
      Result<QueryResult> actual = engine->Execute(plan);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      ASSERT_EQ(*actual, *expected)
          << "strategy " << engine->name() << " diverges on\n"
          << plan.ToString() << "\nexpected:\n"
          << expected->ToString() << "actual:\n"
          << actual->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferentialTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace swole
