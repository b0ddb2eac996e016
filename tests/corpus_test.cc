// Startup kernel-corpus precompilation (codegen/corpus.h): the query
// registry, catalog gating, cache warm-up through the content-addressed
// kernel cache, and the warm-hit accounting that makes the corpus's
// effectiveness observable (jit.corpus.*).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "codegen/corpus.h"
#include "codegen/jit.h"
#include "codegen/kernel_cache.h"
#include "engine/reference_engine.h"
#include "micro/micro.h"
#include "obs/metrics.h"

namespace swole {
namespace {

using codegen::AutoCorpus;
using codegen::CorpusEntry;
using codegen::CorpusReport;
using codegen::ExecutionReport;
using codegen::GeneratorOptions;
using codegen::JitOptions;
using codegen::KernelCache;

// Sets an environment variable for the lifetime of the scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* old = ::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

class CorpusTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    MicroConfig config;
    config.r_rows = 10'000;
    config.s_small_rows = 50;
    config.s_large_rows = 500;
    config.c_cardinalities = {10, 200};
    config.seed = 7;
    data_ = MicroData::Generate(config).release();
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  void SetUp() override {
    KernelCache::Global().Clear();
    codegen::ResetCorpusKeysForTest();
  }
  void TearDown() override { codegen::ResetCorpusKeysForTest(); }

  // Cheap compiles: corpus accounting is flag-agnostic, so the tests skip
  // the -O3 rung. The same options must flow to ExecuteWithFallback — the
  // cache key covers the flag configuration.
  static JitOptions FastJit() {
    JitOptions jit;
    jit.extra_flags = "-O1";
    jit.degrade_flags.clear();
    return jit;
  }

  static std::vector<CorpusEntry> Pick(const std::vector<std::string>& names) {
    std::vector<CorpusEntry> all = AutoCorpus(data_->catalog);
    std::vector<CorpusEntry> picked;
    for (CorpusEntry& entry : all) {
      for (const std::string& name : names) {
        if (entry.name.rfind(name, 0) == 0) picked.push_back(std::move(entry));
      }
    }
    return picked;
  }

  static MicroData* data_;
};

MicroData* CorpusTest::data_ = nullptr;

TEST_F(CorpusTest, RegistryNamesAreStable) {
  std::vector<std::string> names = codegen::CorpusQueryNames();
  for (const char* expected :
       {"tpch.q1", "tpch.q6", "micro.q1", "micro.q4_small", "micro.q5"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST_F(CorpusTest, AutoCorpusGatesOnCatalogTables) {
  // The micro catalog has no TPC-H tables: only micro.* queries qualify.
  std::vector<CorpusEntry> entries = AutoCorpus(data_->catalog);
  EXPECT_FALSE(entries.empty());
  for (const CorpusEntry& entry : entries) {
    EXPECT_EQ(entry.name.rfind("micro.", 0), 0u) << entry.name;
    EXPECT_EQ(entry.gen.strategy, StrategyKind::kSwole);
  }
  // And an empty catalog qualifies nothing.
  Catalog empty;
  EXPECT_TRUE(AutoCorpus(empty).empty());
}

TEST_F(CorpusTest, PrecompileCompilesOnceThenServesFromCache) {
  std::vector<CorpusEntry> entries = Pick({"micro.q1", "micro.q3"});
  ASSERT_EQ(entries.size(), 2u);

  CorpusReport first = codegen::PrecompileCorpus(entries, data_->catalog,
                                                 FastJit());
  EXPECT_EQ(first.entries, 2);
  EXPECT_EQ(first.compiled, 2);
  EXPECT_EQ(first.cache_hits, 0);
  EXPECT_EQ(first.unsupported, 0);
  EXPECT_EQ(first.failures, 0);

  // A second warm-up (e.g. a config reload) finds everything cached.
  CorpusReport second = codegen::PrecompileCorpus(entries, data_->catalog,
                                                  FastJit());
  EXPECT_EQ(second.compiled, 0);
  EXPECT_EQ(second.cache_hits, 2);
  EXPECT_EQ(second.failures, 0);
}

TEST_F(CorpusTest, WarmHitAccountingThroughExecuteWithFallback) {
  std::vector<CorpusEntry> entries = Pick({"micro.q1"});
  ASSERT_EQ(entries.size(), 1u);
  CorpusReport report =
      codegen::PrecompileCorpus(entries, data_->catalog, FastJit());
  ASSERT_EQ(report.compiled + report.cache_hits, 1);

  obs::Counter& warm =
      obs::MetricsRegistry::Global().GetCounter("jit.corpus.warm_hits");
  obs::Counter& cold =
      obs::MetricsRegistry::Global().GetCounter("jit.corpus.cold_misses");

  // The corpus query's first client is served from the warm cache.
  int64_t warm_before = warm.value();
  const QueryPlan& plan = entries[0].plan;
  ExecutionReport exec_report;
  Result<QueryResult> result = codegen::ExecuteWithFallback(
      plan, data_->catalog, entries[0].gen, FastJit(), &exec_report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(exec_report.used_jit);
  EXPECT_TRUE(exec_report.cache_hit);
  EXPECT_EQ(warm.value() - warm_before, 1);

  ReferenceEngine oracle(data_->catalog);
  EXPECT_EQ(*result, *oracle.Execute(plan));

  // Losing the cache under a registered key is a cold miss — the signal
  // that the corpus promised warmth it no longer delivers.
  KernelCache::Global().Clear();
  int64_t cold_before = cold.value();
  result = codegen::ExecuteWithFallback(plan, data_->catalog, entries[0].gen,
                                        FastJit(), &exec_report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(cold.value() - cold_before, 1);
}

TEST_F(CorpusTest, LookupAccountingIsInertWithoutACorpus) {
  // No corpus registered: cache consults must not touch jit.corpus.*.
  obs::Counter& warm =
      obs::MetricsRegistry::Global().GetCounter("jit.corpus.warm_hits");
  obs::Counter& cold =
      obs::MetricsRegistry::Global().GetCounter("jit.corpus.cold_misses");
  int64_t warm_before = warm.value();
  int64_t cold_before = cold.value();
  QueryPlan plan = MicroQ1(false, 41);
  for (int i = 0; i < 2; ++i) {
    Result<QueryResult> result = codegen::ExecuteWithFallback(
        plan, data_->catalog, {}, FastJit());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(warm.value(), warm_before);
  EXPECT_EQ(cold.value(), cold_before);
}

TEST_F(CorpusTest, WarmCorpusFromEnvPathways) {
  {
    ScopedEnv env("SWOLE_WARM_CORPUS", "");
    CorpusReport report = codegen::WarmCorpusFromEnv(data_->catalog);
    EXPECT_EQ(report.entries, 0);
  }
  {
    // Any value other than "auto" warns and serves cold — never fatal,
    // and nothing reaches the precompiler.
    obs::Counter& entries =
        obs::MetricsRegistry::Global().GetCounter("jit.corpus.entries");
    const int64_t entries_before = entries.value();
    ScopedEnv env("SWOLE_WARM_CORPUS", "/nonexistent/corpus.json");
    CorpusReport report = codegen::WarmCorpusFromEnv(data_->catalog);
    EXPECT_EQ(report.entries, 0);
    EXPECT_EQ(report.compiled + report.cache_hits, 0);
    EXPECT_EQ(entries.value(), entries_before);
  }
}

TEST_F(CorpusTest, WarmCorpusAutoPrecompilesEverythingEligible) {
  ScopedEnv env("SWOLE_WARM_CORPUS", "auto");
  CorpusReport report = codegen::WarmCorpusFromEnv(data_->catalog, FastJit());
  EXPECT_EQ(static_cast<size_t>(report.entries),
            AutoCorpus(data_->catalog).size());
  EXPECT_EQ(report.failures, 0);
  // Every supported entry is now warm: a rerun compiles nothing.
  CorpusReport rerun = codegen::WarmCorpusFromEnv(data_->catalog, FastJit());
  EXPECT_EQ(rerun.compiled, 0);
  EXPECT_EQ(rerun.cache_hits, report.compiled + report.cache_hits);
}

}  // namespace
}  // namespace swole
