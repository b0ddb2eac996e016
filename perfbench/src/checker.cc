#include "checker.h"

#include <cstdio>
#include <utility>

#include "engine/reference_engine.h"
#include "strategies/strategy.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace perfbench {

namespace {

constexpr size_t kMaxSamples = 8;

std::string Describe(const swole::QueryResult& got,
                     const swole::QueryResult& want) {
  if (got.grouped != want.grouped) return "grouped/scalar shape differs";
  if (!got.grouped) return "scalar aggregates differ";
  if (got.NumGroups() != want.NumGroups()) {
    return "group count " + std::to_string(got.NumGroups()) + " vs " +
           std::to_string(want.NumGroups());
  }
  return got.group_keys != want.group_keys ? "group keys differ"
                                           : "group aggregates differ";
}

}  // namespace

bool Checker::Check(const swole::Result<swole::QueryResult>& result,
                    const swole::QueryResult& oracle,
                    const std::string& label) {
  attempted_.fetch_add(1);
  std::string reason;
  if (!result.ok()) {
    reason = result.status().ToString();
  } else if (!(*result == oracle)) {
    reason = Describe(*result, oracle);
  } else {
    return true;
  }
  failed_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() < kMaxSamples) samples_.push_back(label + ": " + reason);
  return false;
}

std::vector<std::string> Checker::FailureSamples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

int RunCheckerSelfTest() {
  int broken = 0;
  auto expect = [&broken](bool ok, const char* what) {
    std::printf("# selftest checker: %s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++broken;
  };

  swole::tpch::TpchConfig config;
  config.scale_factor = 0.01;
  config.seed = 7;
  std::unique_ptr<swole::tpch::TpchData> data =
      swole::tpch::TpchData::Generate(config);
  const swole::Catalog& catalog = data->catalog;
  swole::ReferenceEngine oracle_engine(catalog, 1);
  std::unique_ptr<swole::Strategy> swole_engine =
      swole::MakeStrategy(swole::StrategyKind::kSwole, catalog, {});

  // Q1 is grouped (returnflag x linestatus), Q6 is a scalar sum.
  const swole::QueryPlan grouped_plan = swole::tpch::Q1(catalog);
  const swole::QueryPlan scalar_plan = swole::tpch::Q6(catalog);
  swole::Result<swole::QueryResult> grouped_oracle =
      oracle_engine.Execute(grouped_plan);
  swole::Result<swole::QueryResult> scalar_oracle =
      oracle_engine.Execute(scalar_plan);
  if (!grouped_oracle.ok() || !scalar_oracle.ok()) {
    expect(false, "oracle executes Q1 and Q6");
    return broken;
  }

  Checker checker;
  swole::Result<swole::QueryResult> grouped =
      swole_engine->Execute(grouped_plan);
  swole::Result<swole::QueryResult> scalar =
      swole_engine->Execute(scalar_plan);
  expect(checker.Check(grouped, *grouped_oracle, "q1"),
         "the engine's own Q1 result passes");
  expect(checker.Check(scalar, *scalar_oracle, "q6"),
         "the engine's own Q6 result passes");
  if (!grouped.ok() || !scalar.ok() || grouped->NumGroups() < 2) {
    expect(false, "engine results usable for perturbation");
    return broken;
  }

  // Each perturbation of a correct result, and a non-OK Status, must count
  // as exactly one failure.
  struct Perturbation {
    const char* what;
    const swole::QueryResult& result;
    const swole::QueryResult& oracle;
    void (*mutate)(swole::QueryResult&);
  };
  const Perturbation perturbations[] = {
      {"a scalar off by one fails", *scalar, *scalar_oracle,
       [](swole::QueryResult& r) { r.scalar[0] += 1; }},
      {"one flipped bit in a group aggregate fails", *grouped, *grouped_oracle,
       [](swole::QueryResult& r) { r.group_aggs.back() ^= 1; }},
      {"a changed group key fails", *grouped, *grouped_oracle,
       [](swole::QueryResult& r) { r.group_keys[0] += 1; }},
      {"a dropped group fails", *grouped, *grouped_oracle,
       [](swole::QueryResult& r) {
         r.group_keys.pop_back();
         r.group_aggs.resize(r.group_aggs.size() - r.num_aggs);
       }},
  };
  const int64_t failed_before = checker.failed();
  for (const Perturbation& p : perturbations) {
    swole::QueryResult copy = p.result;
    p.mutate(copy);
    expect(!checker.Check(copy, p.oracle, p.what), p.what);
  }
  expect(!checker.Check(swole::Status::Internal("injected"), *grouped_oracle,
                        "status"),
         "a non-OK Status fails");
  expect(checker.failed() - failed_before == 5,
         "every perturbation is counted in failed");
  expect(checker.attempted() == 7, "every check is counted in attempted");
  expect(checker.FailureSamples().size() == 5,
         "failures are kept for the report");
  return broken;
}

}  // namespace perfbench
