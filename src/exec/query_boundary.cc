#include "exec/query_boundary.h"

#include <utility>
#include <vector>

#include "common/timer.h"
#include "exec/admission.h"
#include "exec/query_context.h"
#include "obs/metrics.h"

namespace swole::exec {

namespace {

struct EngineMetrics {
  obs::Counter* queries;
  obs::Histogram* latency;
};

// Bound once per driver thread and engine name: per-call
// GetCounter/GetHistogram lookups take the registry mutex, which
// concurrent driver threads would contend on every query.
EngineMetrics MetricsFor(const char* engine) {
  thread_local std::vector<std::pair<std::string, EngineMetrics>> bound;
  for (const auto& [name, metrics] : bound) {
    if (name == engine) return metrics;
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  EngineMetrics metrics{
      &registry.GetCounter(std::string("queries.") + engine),
      &registry.GetHistogram(std::string("query.latency_us.") + engine)};
  bound.emplace_back(engine, metrics);
  return metrics;
}

}  // namespace

Result<QueryResult> RunQuery(
    const QueryBoundary& boundary,
    FunctionRef<Result<QueryResult>(QueryContext*)> body) {
  SWOLE_RETURN_NOT_OK(ValidatePlan(*boundary.plan, *boundary.catalog));

  AdmissionScope admission(boundary.tenant);
  SWOLE_RETURN_NOT_OK(admission.status());

  const EngineMetrics metrics = MetricsFor(boundary.engine);
  metrics.queries->Add(1);
  Timer timer;
  GovernanceScope governance(boundary.query_ctx, boundary.mem_limit_bytes,
                             boundary.deadline_ms, boundary.trace);
  QueryContext* ctx = governance.ctx();
  if (ctx != nullptr && boundary.priority != 0) {
    ctx->set_priority(boundary.priority);
  }
  if (ctx != nullptr && boundary.spill >= 0) {
    ctx->set_spill_enabled(boundary.spill == 1);
  }

  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    try {
      return body(ctx);
    } catch (...) {
      return StatusFromCurrentException(ctx);
    }
  }();
  metrics.latency->Record(timer.ElapsedNanos() / 1000);
  return result;
}

}  // namespace swole::exec
