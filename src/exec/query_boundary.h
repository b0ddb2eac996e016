#ifndef SWOLE_EXEC_QUERY_BOUNDARY_H_
#define SWOLE_EXEC_QUERY_BOUNDARY_H_

#include <cstdint>
#include <string>

#include "common/function_ref.h"
#include "common/status.h"
#include "plan/plan.h"
#include "plan/result.h"

// The one query boundary every engine entry point runs through —
// HashStrategyEngine, SwoleStrategy, ReferenceEngine and
// codegen::ExecuteWithFallback. In order, RunQuery:
//
//   1. validates the plan against the catalog;
//   2. admits the query (exec/admission.h) — a shed query costs the server
//      nothing but the rejection Status, and nested entries on the same
//      driver thread (SWOLE's degradation retry, the JIT fallback ladder)
//      ride the outer slot;
//   3. counts it in queries.<engine>;
//   4. resolves governance (GovernanceScope) and applies the priority and
//      spill settings to the context;
//   5. runs the engine body, converting any escaping exception into a
//      structured Status (StatusFromCurrentException);
//   6. records query.latency_us.<engine> — after the body, so the sample
//      covers every retry the body made: what the client observed.

namespace swole::obs {
class QueryTrace;
}  // namespace swole::obs

namespace swole::exec {

class QueryContext;

/// The per-query settings an entry point already carries (StrategyOptions,
/// codegen::GeneratorOptions, or the ReferenceEngine setters), grouped for
/// RunQuery. The governance fields follow GovernanceScope's conventions.
struct QueryBoundary {
  const char* engine = "";  // metric suffix: queries.<engine>
  const QueryPlan* plan = nullptr;
  const Catalog* catalog = nullptr;
  std::string tenant;                 // admission tenant ("" = default)
  QueryContext* query_ctx = nullptr;  // external context, wins when set
  int64_t mem_limit_bytes = -1;       // -1 = SWOLE_MEM_LIMIT
  int64_t deadline_ms = -1;           // -1 = SWOLE_DEADLINE_MS
  obs::QueryTrace* trace = nullptr;
  int priority = 0;                   // 0 leaves the context's priority
  int spill = -1;                     // -1 = SWOLE_SPILL, 0 off, 1 on
};

/// Runs `body` inside the boundary. `body` receives the governed context
/// (null on the ungoverned zero-overhead path).
Result<QueryResult> RunQuery(
    const QueryBoundary& boundary,
    FunctionRef<Result<QueryResult>(QueryContext*)> body);

}  // namespace swole::exec

#endif  // SWOLE_EXEC_QUERY_BOUNDARY_H_
