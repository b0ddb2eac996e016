#ifndef SWOLE_STRATEGIES_STRATEGY_H_
#define SWOLE_STRATEGIES_STRATEGY_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "cost/cost_model.h"
#include "exec/kernels.h"
#include "plan/plan.h"
#include "plan/result.h"

// The four code-generation strategies as execution engines over the plan
// algebra. All engines share the primitive kernels (exec/kernels.h) and the
// hash table (exec/hash_table.h) — the paper's "same library code" setup —
// so a runtime difference between two engines on the same plan reflects the
// strategy (its data access patterns), not incidental implementation
// differences.

namespace swole {

namespace exec {
class QueryContext;
}  // namespace exec

namespace obs {
class QueryTrace;
}  // namespace obs

enum class StrategyKind : uint8_t {
  kDataCentric,  // HyPer-style tuple-at-a-time with branching [3]
  kHybrid,       // Tupleware-style prepass + partial selection vectors [4]
  kRof,          // Peloton's relaxed operator fusion: full selection
                 // vectors, LUT selection, software prefetching [5]
  kSwole,        // access-aware: predicate pullups, masking, positional
                 // bitmaps, eager aggregation (this paper)
};

const char* StrategyKindName(StrategyKind kind);

struct StrategyOptions {
  int64_t tile_size = kernels::kDefaultTileSize;

  // Morsel-driven parallelism (exec/scheduler.h): number of worker threads
  // for the build and probe phases. 0 defers to the SWOLE_THREADS
  // environment variable (default 1). Results are bit-exact at every
  // thread count: per-worker states are merged in worker order.
  int num_threads = 0;

  // Cost-model inputs for SWOLE's technique decisions (null = default
  // deterministic profile).
  const CostProfile* cost_profile = nullptr;

  // Technique switches (SWOLE only): force-disable access merging or eager
  // aggregation so the forced-technique series can measure each one.
  bool enable_access_merging = true;
  bool enable_eager_aggregation = true;

  // Overrides the cost model (for microbenchmarks that pin a technique):
  // when set, SWOLE uses exactly this aggregation technique.
  enum class ForceAgg { kAuto, kValueMasking, kKeyMasking, kHybridFallback };
  ForceAgg force_agg = ForceAgg::kAuto;

  // Forces the eager-aggregation rewrite whenever the plan shape is
  // eligible, regardless of the cost model (Fig. 12's EA series).
  bool force_eager_aggregation = false;

  // ---- Query-lifecycle governance (exec/query_context.h) ----

  // Externally owned context carrying the memory budget, deadline, and
  // cancellation token for this execution. When set it wins over the limit
  // fields below and over the environment. The caller retains ownership
  // and may RequestCancel() from another thread.
  exec::QueryContext* query_ctx = nullptr;

  // Hard memory budget in bytes for tracked build-side structures
  // (hash tables, group tables, positional bitmaps). -1 defers to
  // SWOLE_MEM_LIMIT (absent = unlimited); 0 explicitly unlimited.
  int64_t mem_limit_bytes = -1;

  // Wall-clock deadline for the whole execution. -1 defers to
  // SWOLE_DEADLINE_MS (absent = none); 0 explicitly none.
  int64_t deadline_ms = -1;

  // Spill-to-disk for group tables that breach the memory budget
  // (exec/spill.h, DESIGN.md §14): -1 defers to SWOLE_SPILL (default off),
  // 0 forces off, 1 forces on. Only insert-mode group tables spill;
  // join-mode and group-seeded plans keep their budget-abort behavior.
  int spill = -1;

  // ---- Concurrent serving (exec/admission.h, exec/scheduler.h) ----

  // Scheduler priority of this query's morsel work in the shared worker
  // pool: higher runs first, equal priorities share round-robin. Only
  // meaningful when concurrent queries compete for the pool.
  int priority = 0;

  // Tenant identity for per-tenant admission caps (SWOLE_TENANT_MAX_QUERIES).
  // Empty = the default tenant (never capped per-tenant).
  std::string tenant;

  // ---- Observability (obs/trace.h) ----

  // Per-query trace to record spans into (strategy choice, operator
  // phases, morsel rollups, governance events). Null (the default)
  // disables recording at zero cost; SWOLE_TRACE=1 enables an internally
  // owned trace instead, rendered at DEBUG log level. When query_ctx is
  // also set, the trace attaches to it for the duration of the call unless
  // the context already carries one.
  obs::QueryTrace* trace = nullptr;
};

/// Explanation of what SWOLE decided for a plan (for tests, examples, and
/// EXPERIMENTS.md narration).
struct SwoleDecisions {
  std::string aggregation;       // "value-masking" / "key-masking" / "hybrid"
  bool used_access_merging = false;
  bool used_positional_bitmaps = false;
  bool used_eager_aggregation = false;
  // A raw-string fact predicate was pulled above the joins and the other
  // conjuncts (string placement, cost/string_placement.h). False when the
  // plan had no raw-string conjunct or the cost model chose pushdown.
  bool used_string_pullup = false;
  // The pullup plan breached its memory budget and the execution was
  // retried (successfully or not) under the memory-lean data-centric
  // strategy (graceful degradation).
  bool degraded_to_data_centric = false;
  std::string rationale;
};

class Strategy {
 public:
  virtual ~Strategy() = default;

  virtual StrategyKind kind() const = 0;
  const char* name() const { return StrategyKindName(kind()); }

  /// Executes `plan` against the engine's catalog. Results are normalized
  /// (groups sorted by key) and bit-exact across engines.
  virtual Result<QueryResult> Execute(const QueryPlan& plan) = 0;
};

/// Creates an engine. `catalog` must outlive it.
std::unique_ptr<Strategy> MakeStrategy(StrategyKind kind,
                                       const Catalog& catalog,
                                       StrategyOptions options = {});

/// SWOLE-specific factory giving access to the decision trace.
class SwoleStrategy;
std::unique_ptr<SwoleStrategy> MakeSwoleStrategy(const Catalog& catalog,
                                                 StrategyOptions options = {});

}  // namespace swole

#endif  // SWOLE_STRATEGIES_STRATEGY_H_
