#include "micro/micro.h"

#include <algorithm>

#include "common/env.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "storage/table.h"

namespace swole {

MicroConfig MicroConfig::FromEnv() {
  MicroConfig config;
  config.r_rows = GetEnvInt64("SWOLE_MICRO_R", config.r_rows);
  config.s_small_rows =
      GetEnvInt64("SWOLE_MICRO_S_SMALL", config.s_small_rows);
  config.s_large_rows =
      GetEnvInt64("SWOLE_MICRO_S_LARGE", config.s_large_rows);
  config.seed = static_cast<uint64_t>(
      GetEnvInt64("SWOLE_MICRO_SEED", static_cast<int64_t>(config.seed)));
  config.str_len = GetEnvInt64("SWOLE_MICRO_STRLEN", config.str_len);
  return config;
}

namespace {

std::unique_ptr<Column> UniformColumn(const std::string& name,
                                      int64_t rows, int64_t lo, int64_t hi,
                                      Rng* rng) {
  auto col = std::make_unique<Column>(
      name, ColumnType::Int(NarrowestPhysicalType(lo, hi)));
  col->Reserve(rows);
  for (int64_t i = 0; i < rows; ++i) col->Append(rng->UniformInt(lo, hi));
  return col;
}

std::unique_ptr<Column> DenseKeyColumn(const std::string& name,
                                       int64_t rows) {
  auto col = std::make_unique<Column>(
      name, ColumnType::Int(NarrowestPhysicalType(0, rows - 1)));
  col->Reserve(rows);
  for (int64_t i = 0; i < rows; ++i) col->Append(i);
  return col;
}

// r_s: raw variable-length strings drawn from the letters a..y, with
// "zebra" spliced into ~2% of rows. The needle's 'z' cannot occur in the
// background text, so LIKE '%zebra%' selectivity is exactly the injection
// rate — no accidental matches to blur a sweep.
std::unique_ptr<Column> StringColumnR(int64_t rows, int64_t avg_len,
                                      Rng* rng) {
  auto text = std::make_shared<TextData>();
  std::string buf;
  for (int64_t i = 0; i < rows; ++i) {
    int64_t len = rng->UniformInt(avg_len / 2, avg_len + avg_len / 2);
    buf.resize(len);
    for (int64_t j = 0; j < len; ++j) {
      buf[j] = static_cast<char>('a' + rng->NextBounded(25));
    }
    if (len >= 5 && rng->Bernoulli(0.02)) {
      int64_t pos = rng->UniformInt(0, len - 5);
      buf.replace(pos, 5, "zebra");
    }
    text->Append(buf);
  }
  auto col = std::make_unique<Column>("r_s", ColumnType::Text());
  col->set_text(std::move(text));
  return col;
}

std::shared_ptr<Table> BuildS(const std::string& name, int64_t rows,
                              Rng* rng) {
  auto table = std::make_shared<Table>(name);
  table->AddColumn(DenseKeyColumn("s_pk", rows)).CheckOK();
  table->AddColumn(UniformColumn("s_x", rows, 0, 99, rng)).CheckOK();
  return table;
}

}  // namespace

std::unique_ptr<MicroData> MicroData::Generate(const MicroConfig& config) {
  SWOLE_CHECK_GT(config.r_rows, 0);
  auto data = std::make_unique<MicroData>();
  data->config = config;
  Rng rng(config.seed);

  auto s_small = BuildS("s_small", config.s_small_rows, &rng);
  auto s_large = BuildS("s_large", config.s_large_rows, &rng);

  auto r = std::make_shared<Table>("r");
  const int64_t rows = config.r_rows;
  r->AddColumn(UniformColumn("r_a", rows, 0, 99, &rng)).CheckOK();
  r->AddColumn(UniformColumn("r_b", rows, 1, 100, &rng)).CheckOK();
  r->AddColumn(UniformColumn("r_x", rows, 0, 99, &rng)).CheckOK();
  // r_y is constant 1 so the figures' x-axis equals [SEL] exactly; the
  // conjunct is still evaluated by every strategy.
  r->AddColumn(UniformColumn("r_y", rows, 1, 1, &rng)).CheckOK();
  r->AddColumn(StringColumnR(rows, config.str_len, &rng)).CheckOK();

  for (int64_t requested : config.c_cardinalities) {
    int64_t actual = std::min(requested, std::max<int64_t>(1, rows / 4));
    std::string name =
        StringFormat("r_c_%lld", static_cast<long long>(requested));
    r->AddColumn(UniformColumn(name, rows, 0, actual - 1, &rng)).CheckOK();
    data->c_columns.push_back(name);
    data->c_actual.push_back(actual);
  }

  r->AddColumn(UniformColumn("r_fk_small", rows, 0, config.s_small_rows - 1,
                             &rng))
      .CheckOK();
  r->AddColumn(UniformColumn("r_fk_large", rows, 0, config.s_large_rows - 1,
                             &rng))
      .CheckOK();

  // Referential-integrity indexes (the substrate of §III-D).
  {
    Result<FkIndex> index =
        FkIndex::Build(r->ColumnRef("r_fk_small"), s_small->ColumnRef("s_pk"));
    index.status().CheckOK();
    r->AddFkIndex("r_fk_small", std::move(index).value()).CheckOK();
  }
  {
    Result<FkIndex> index =
        FkIndex::Build(r->ColumnRef("r_fk_large"), s_large->ColumnRef("s_pk"));
    index.status().CheckOK();
    r->AddFkIndex("r_fk_large", std::move(index).value()).CheckOK();
  }

  data->catalog.AddTable(std::move(r)).CheckOK();
  data->catalog.AddTable(std::move(s_small)).CheckOK();
  data->catalog.AddTable(std::move(s_large)).CheckOK();
  return data;
}

namespace {
ExprPtr MicroPredicate(int64_t sel) {
  return And(Lt(Col("r_x"), Lit(sel)), Eq(Col("r_y"), Lit(1)));
}

// Every micro plan scans r. The table name is moved in as a std::string:
// assigning the literal into a fresh plan trips a GCC 12 -Wrestrict false
// positive inside std::string::_M_replace.
QueryPlan PlanOverR(std::string name) {
  QueryPlan plan;
  plan.name = std::move(name);
  plan.fact_table = std::string("r");
  return plan;
}
}  // namespace

QueryPlan MicroQ1(bool division, int64_t sel) {
  QueryPlan plan =
      PlanOverR(StringFormat("micro_q1_%s_sel%lld", division ? "div" : "mul",
                             static_cast<long long>(sel)));
  plan.fact_filter = MicroPredicate(sel);
  ExprPtr agg = division ? Div(Col("r_a"), Col("r_b"))
                         : Mul(Col("r_a"), Col("r_b"));
  plan.aggs.emplace_back(AggKind::kSum, std::move(agg), "sum_ab");
  return plan;
}

QueryPlan MicroQ2(const std::string& c_column, int64_t c_cardinality,
                  int64_t sel) {
  QueryPlan plan =
      PlanOverR(StringFormat("micro_q2_%s_sel%lld", c_column.c_str(),
                             static_cast<long long>(sel)));
  plan.fact_filter = MicroPredicate(sel);
  plan.group_by = Col(c_column);
  plan.group_cardinality_hint = c_cardinality;
  plan.aggs.emplace_back(AggKind::kSum, Mul(Col("r_a"), Col("r_b")),
                         "sum_ab");
  return plan;
}

QueryPlan MicroQ3(bool reuse_both, int64_t sel) {
  QueryPlan plan = PlanOverR(StringFormat("micro_q3_%s_sel%lld",
                                          reuse_both ? "both" : "one",
                                          static_cast<long long>(sel)));
  plan.fact_filter = MicroPredicate(sel);
  ExprPtr agg = reuse_both ? Mul(Col("r_x"), Col("r_y"))
                           : Mul(Col("r_x"), Col("r_b"));
  plan.aggs.emplace_back(AggKind::kSum, std::move(agg), "sum_x_col");
  return plan;
}

QueryPlan MicroQ4(bool large_s, int64_t sel1, int64_t sel2) {
  const char* s_table = large_s ? "s_large" : "s_small";
  const char* fk = large_s ? "r_fk_large" : "r_fk_small";
  QueryPlan plan = PlanOverR(StringFormat(
      "micro_q4_%s_sel%lld_%lld", s_table, static_cast<long long>(sel1),
      static_cast<long long>(sel2)));
  plan.fact_filter = Lt(Col("r_x"), Lit(sel1));
  DimJoin dim;
  dim.hop = {fk, s_table, "s_pk"};
  dim.filter = Lt(Col("s_x"), Lit(sel2));
  plan.dims.push_back(std::move(dim));
  plan.aggs.emplace_back(AggKind::kSum, Mul(Col("r_a"), Col("r_b")),
                         "sum_ab");
  return plan;
}

QueryPlan MicroQ5(bool large_s, int64_t sel, int64_t s_rows) {
  const char* s_table = large_s ? "s_large" : "s_small";
  const char* fk = large_s ? "r_fk_large" : "r_fk_small";
  QueryPlan plan = PlanOverR(StringFormat("micro_q5_%s_sel%lld", s_table,
                                          static_cast<long long>(sel)));
  DimJoin dim;
  dim.hop = {fk, s_table, "s_pk"};
  dim.filter = Lt(Col("s_x"), Lit(sel));
  plan.dims.push_back(std::move(dim));
  plan.group_by = Col(fk);
  plan.group_cardinality_hint = s_rows;
  plan.aggs.emplace_back(AggKind::kSum, Mul(Col("r_a"), Col("r_b")),
                         "sum_ab");
  return plan;
}

QueryPlan MicroQ6(bool large_s, int64_t sel) {
  const char* s_table = large_s ? "s_large" : "s_small";
  const char* fk = large_s ? "r_fk_large" : "r_fk_small";
  QueryPlan plan = PlanOverR(StringFormat("micro_q6_%s_sel%lld", s_table,
                                          static_cast<long long>(sel)));
  plan.fact_filter = Like("r_s", "%zebra%");
  DimJoin dim;
  dim.hop = {fk, s_table, "s_pk"};
  dim.filter = Lt(Col("s_x"), Lit(sel));
  plan.dims.push_back(std::move(dim));
  plan.aggs.emplace_back(AggKind::kSum, Mul(Col("r_a"), Col("r_b")),
                         "sum_ab");
  return plan;
}

}  // namespace swole
