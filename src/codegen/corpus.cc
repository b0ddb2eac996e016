#include "codegen/corpus.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>

#include "common/env.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "exec/scheduler.h"
#include "micro/micro.h"
#include "obs/metrics.h"
#include "storage/table.h"
#include "tpch/queries.h"

namespace swole::codegen {

namespace {

// ---- Warm-hit accounting ----

struct CorpusKeySet {
  std::atomic<bool> active{false};
  std::mutex mu;
  std::set<std::string> keys;
};

CorpusKeySet& GlobalCorpusKeys() {
  static CorpusKeySet* set = new CorpusKeySet();
  return *set;
}

// ---- Named query registry ----

struct NamedQuery {
  const char* name;
  std::vector<const char*> required_tables;
  QueryPlan (*build)(const Catalog&);
};

QueryPlan BuildMicroQ1(const Catalog&) { return MicroQ1(false, 50); }
QueryPlan BuildMicroQ3(const Catalog&) { return MicroQ3(true, 50); }
QueryPlan BuildMicroQ4Small(const Catalog&) { return MicroQ4(false, 50, 50); }
QueryPlan BuildMicroQ4Large(const Catalog&) { return MicroQ4(true, 50, 50); }
QueryPlan BuildMicroQ5(const Catalog& catalog) {
  const Table* s = catalog.GetTable("s_small").ValueOr(nullptr);
  return MicroQ5(false, 50, s != nullptr ? s->num_rows() : 1000);
}

const std::vector<NamedQuery>& Registry() {
  static const std::vector<NamedQuery>* registry = new std::vector<
      NamedQuery>{
      {"tpch.q1", {"lineitem"}, tpch::Q1},
      {"tpch.q3", {"lineitem", "orders", "customer"}, tpch::Q3},
      {"tpch.q4", {"orders", "lineitem"}, tpch::Q4},
      {"tpch.q5",
       {"lineitem", "orders", "customer", "supplier", "nation", "region"},
       tpch::Q5},
      {"tpch.q6", {"lineitem"}, tpch::Q6},
      {"tpch.q13", {"customer", "orders"}, tpch::Q13},
      {"tpch.q14", {"lineitem", "part"}, tpch::Q14},
      {"tpch.q19", {"lineitem", "part"}, tpch::Q19},
      {"micro.q1", {"r"}, BuildMicroQ1},
      {"micro.q3", {"r"}, BuildMicroQ3},
      {"micro.q4_small", {"r", "s_small"}, BuildMicroQ4Small},
      {"micro.q4_large", {"r", "s_large"}, BuildMicroQ4Large},
      {"micro.q5", {"r", "s_small"}, BuildMicroQ5},
  };
  return *registry;
}

bool TablesPresent(const NamedQuery& query, const Catalog& catalog) {
  for (const char* table : query.required_tables) {
    if (!catalog.GetTable(table).ok()) return false;
  }
  return true;
}

}  // namespace

void RegisterCorpusKey(const std::string& cache_key) {
  CorpusKeySet& set = GlobalCorpusKeys();
  {
    std::lock_guard<std::mutex> lock(set.mu);
    set.keys.insert(cache_key);
  }
  set.active.store(true, std::memory_order_release);
}

void NoteCorpusLookup(const std::string& cache_key, bool hit) {
  CorpusKeySet& set = GlobalCorpusKeys();
  if (!set.active.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(set.mu);
    if (set.keys.find(cache_key) == set.keys.end()) return;
  }
  static obs::Counter& warm =
      obs::MetricsRegistry::Global().GetCounter("jit.corpus.warm_hits");
  static obs::Counter& cold =
      obs::MetricsRegistry::Global().GetCounter("jit.corpus.cold_misses");
  (hit ? warm : cold).Add(1);
}

void ResetCorpusKeysForTest() {
  CorpusKeySet& set = GlobalCorpusKeys();
  std::lock_guard<std::mutex> lock(set.mu);
  set.keys.clear();
  set.active.store(false, std::memory_order_release);
}

std::string CorpusReport::ToString() const {
  return StringFormat(
      "corpus{entries=%lld compiled=%lld cache_hits=%lld unsupported=%lld "
      "failures=%lld elapsed_ms=%lld}",
      static_cast<long long>(entries), static_cast<long long>(compiled),
      static_cast<long long>(cache_hits),
      static_cast<long long>(unsupported),
      static_cast<long long>(failures), static_cast<long long>(elapsed_ms));
}

std::vector<std::string> CorpusQueryNames() {
  std::vector<std::string> names;
  for (const NamedQuery& query : Registry()) names.push_back(query.name);
  return names;
}

std::vector<CorpusEntry> AutoCorpus(const Catalog& catalog) {
  std::vector<CorpusEntry> entries;
  for (const NamedQuery& query : Registry()) {
    if (!TablesPresent(query, catalog)) continue;
    CorpusEntry entry;  // default generator options: the swole strategy
    entry.name = StringFormat("%s/%s", query.name,
                              StrategyKindName(entry.gen.strategy));
    entry.plan = query.build(catalog);
    entries.push_back(std::move(entry));
  }
  return entries;
}

CorpusReport PrecompileCorpus(const std::vector<CorpusEntry>& entries,
                              const Catalog& catalog,
                              const JitOptions& jit_options) {
  static obs::Counter& m_entries =
      obs::MetricsRegistry::Global().GetCounter("jit.corpus.entries");
  static obs::Counter& m_compiled =
      obs::MetricsRegistry::Global().GetCounter("jit.corpus.precompiled");
  static obs::Counter& m_cache_hits =
      obs::MetricsRegistry::Global().GetCounter("jit.corpus.cache_hits");
  static obs::Counter& m_unsupported =
      obs::MetricsRegistry::Global().GetCounter("jit.corpus.unsupported");
  static obs::Counter& m_failures =
      obs::MetricsRegistry::Global().GetCounter("jit.corpus.failures");
  static obs::Counter& m_elapsed =
      obs::MetricsRegistry::Global().GetCounter("jit.corpus.precompile_ms");

  CorpusReport report;
  report.entries = static_cast<int64_t>(entries.size());
  m_entries.Add(report.entries);
  if (entries.empty()) return report;

  Timer timer;
  std::atomic<int64_t> compiled{0};
  std::atomic<int64_t> cache_hits{0};
  std::atomic<int64_t> unsupported{0};
  std::atomic<int64_t> failures{0};

  // One corpus entry per morsel: compiles are subprocess-bound, so the
  // shared pool overlaps them up to its thread cap.
  const int num_threads = std::min<int>(static_cast<int>(entries.size()),
                                        exec::GlobalPoolThreadCap());
  exec::ParallelMorsels(
      num_threads, static_cast<int64_t>(entries.size()), /*morsel_size=*/1,
      [&](int /*worker*/, int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          const CorpusEntry& entry = entries[i];
          Result<GeneratedKernel> kernel =
              GenerateKernel(entry.plan, catalog, entry.gen);
          if (!kernel.ok()) {
            if (kernel.status().code() == StatusCode::kUnimplemented) {
              unsupported.fetch_add(1, std::memory_order_relaxed);
            } else {
              failures.fetch_add(1, std::memory_order_relaxed);
              SWOLE_LOG(WARNING)
                  << "corpus: generation failed for " << entry.name << ": "
                  << kernel.status().ToString();
            }
            continue;
          }
          std::string cache_key =
              ResolvedKernelCacheKey(kernel->source, jit_options);
          Result<std::unique_ptr<CompiledKernel>> built = CompileKernel(
              std::move(*kernel), entry.plan, jit_options);
          if (!built.ok()) {
            failures.fetch_add(1, std::memory_order_relaxed);
            SWOLE_LOG(WARNING) << "corpus: compile failed for " << entry.name
                               << ": " << built.status().ToString();
            continue;
          }
          // Register only after the compile succeeded, so warm-hit
          // accounting never counts a key the cache can't actually serve.
          RegisterCorpusKey(cache_key);
          if ((*built)->from_cache()) {
            cache_hits.fetch_add(1, std::memory_order_relaxed);
          } else {
            compiled.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });

  report.compiled = compiled.load();
  report.cache_hits = cache_hits.load();
  report.unsupported = unsupported.load();
  report.failures = failures.load();
  report.elapsed_ms = timer.ElapsedNanos() / 1'000'000;
  m_compiled.Add(report.compiled);
  m_cache_hits.Add(report.cache_hits);
  m_unsupported.Add(report.unsupported);
  m_failures.Add(report.failures);
  m_elapsed.Add(report.elapsed_ms);
  SWOLE_LOG(INFO) << "kernel corpus precompiled: " << report.ToString();
  return report;
}

CorpusReport WarmCorpusFromEnv(const Catalog& catalog,
                               const JitOptions& jit_options) {
  std::string value = GetEnvString("SWOLE_WARM_CORPUS", "");
  if (value.empty()) return CorpusReport();
  if (value != "auto") {
    // Startup must not die over a bad setting; serve cold instead.
    SWOLE_LOG(WARNING) << "SWOLE_WARM_CORPUS=\"" << value
                       << "\" unusable (expected \"auto\"), serving cold";
    return CorpusReport();
  }
  return PrecompileCorpus(AutoCorpus(catalog), catalog, jit_options);
}

}  // namespace swole::codegen
