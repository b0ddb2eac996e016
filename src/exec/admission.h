#ifndef SWOLE_EXEC_ADMISSION_H_
#define SWOLE_EXEC_ADMISSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/status.h"

// Admission control and overload shedding for concurrent multi-query
// serving (DESIGN.md §11). The scheduler (exec/scheduler.h) makes many
// queries share one worker pool; this layer decides whether a query may
// START, so a saturated process sheds load with structured rejections
// instead of queueing unboundedly, collapsing tail latency, or OOMing:
//
//   * a max-concurrent-queries cap with a bounded-wait queue — a query
//     arriving at a full server waits up to SWOLE_ADMISSION_TIMEOUT_MS for
//     a slot, behind at most SWOLE_MAX_QUEUED waiters, then is shed as
//     kQueueTimeout / kAdmissionRejected;
//   * per-tenant running-query caps (kAdmissionRejected, no queueing — a
//     tenant at its cap must not occupy shared queue slots);
//   * a process-wide GlobalMemoryPool that every per-query QueryContext
//     mirrors its charge-before-allocate accounting into, so concurrent
//     queries compete for one budget and an overcommitted pool refuses the
//     *growth* (one query gets kBudgetExceeded) instead of the process
//     dying.
//
// All shedding outcomes are query-level, structured, and deterministic to
// test: the fault sites `admission_reject`, `queue_timeout`, and
// `pool_exhausted` (common/fault_injection.h) force each rejection path
// without real overload. Outcomes feed the metrics registry under
// `admission.*`.

namespace swole::exec {

struct AdmissionConfig {
  // Maximum queries executing at once; 0 = unlimited (cap disabled).
  int64_t max_concurrent_queries = 0;
  // Maximum queries waiting for a slot before new arrivals are rejected
  // outright; -1 = default (2 * max_concurrent_queries).
  int64_t max_queued_queries = -1;
  // Bounded wait for a slot before a queued query is shed.
  int64_t admission_timeout_ms = 100;
  // Process-wide budget for tracked operator state across all concurrent
  // queries; 0 = no shared pool.
  int64_t global_mem_limit_bytes = 0;
  // Maximum queries a single tenant may have running; 0 = unlimited.
  int64_t max_queries_per_tenant = 0;

  /// SWOLE_MAX_QUERIES, SWOLE_MAX_QUEUED, SWOLE_ADMISSION_TIMEOUT_MS,
  /// SWOLE_GLOBAL_MEM_LIMIT, SWOLE_TENANT_MAX_QUERIES.
  static AdmissionConfig FromEnv();

  /// Effective queue-depth cap (resolves the -1 default).
  int64_t EffectiveMaxQueued() const {
    return max_queued_queries >= 0 ? max_queued_queries
                                   : 2 * max_concurrent_queries;
  }
};

/// The process-wide memory budget concurrent queries draw down from.
/// Reservations are charge-before-allocate, mirrored from each query's
/// QueryContext::TryCharge, so the pool refuses growth *before* the bytes
/// exist. Thread-safe; reserve/release are single atomics.
class GlobalMemoryPool {
 public:
  /// limit_bytes <= 0 means unlimited (the pool still accounts).
  explicit GlobalMemoryPool(int64_t limit_bytes) : limit_(limit_bytes) {}

  /// Reserves `bytes` (> 0) from the pool; false when the pool would
  /// overcommit or the `pool_exhausted` fault site fires. Never blocks.
  bool TryReserve(int64_t bytes);

  /// Returns `bytes` to the pool. Always succeeds.
  void Release(int64_t bytes);

  int64_t limit_bytes() const { return limit_; }
  int64_t reserved_bytes() const {
    return reserved_.load(std::memory_order_relaxed);
  }

 private:
  const int64_t limit_;
  std::atomic<int64_t> reserved_{0};
};

class AdmissionController;

/// A granted admission slot; returned by AdmissionController::Admit and
/// released on destruction (RAII). Movable, not copyable.
class AdmissionTicket {
 public:
  AdmissionTicket() = default;
  ~AdmissionTicket() { Release(); }
  AdmissionTicket(AdmissionTicket&& other) noexcept { *this = std::move(other); }
  AdmissionTicket& operator=(AdmissionTicket&& other) noexcept;
  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;

  bool admitted() const { return controller_ != nullptr; }
  void Release();

 private:
  friend class AdmissionController;
  AdmissionController* controller_ = nullptr;
  std::string tenant_;
};

class AdmissionController {
 public:
  /// The process-wide controller, configured from the environment on first
  /// use. Disabled (every Admit passes, no locking) unless a cap or the
  /// global pool is configured — the single-query overhead is two relaxed
  /// fault-site probes.
  static AdmissionController& Global();

  /// Replaces the global controller's configuration (serving harnesses and
  /// tests). Safe against concurrent Admits: current waiters re-evaluate
  /// under the new config; already-running queries keep their slots.
  static void ConfigureGlobal(const AdmissionConfig& config);

  explicit AdmissionController(const AdmissionConfig& config);

  /// Asks to start a query for `tenant` (empty = the default tenant).
  /// Blocks up to admission_timeout_ms when the server is saturated.
  /// Returns OK and binds *ticket on admission; kAdmissionRejected when
  /// the queue is full or the tenant is at its cap; kQueueTimeout when the
  /// bounded wait expired. Fault sites `admission_reject` and
  /// `queue_timeout` force the matching outcome deterministically.
  Status Admit(const std::string& tenant, AdmissionTicket* ticket);

  /// The shared pool, or null when no global memory limit is configured.
  GlobalMemoryPool* memory_pool();

  bool enabled() const;
  AdmissionConfig config() const;
  int64_t running() const;
  int64_t waiting() const;

 private:
  friend class AdmissionTicket;
  void Release(const std::string& tenant);
  void ResetConfig(const AdmissionConfig& config);  // under mu_

  mutable std::mutex mu_;
  std::condition_variable slot_free_;
  AdmissionConfig config_;
  std::unique_ptr<GlobalMemoryPool> pool_;
  int64_t running_ = 0;
  int64_t waiting_ = 0;
  std::map<std::string, int64_t> tenant_running_;
  // Config epoch: bumped by ResetConfig so waiters notice live changes.
  int64_t epoch_ = 0;
};

/// How the current driver thread's outermost admission went: whether it
/// waited in the queue and for how long. Written by AdmissionScope /
/// Admit, read by GovernanceScope when stamping the query trace
/// (`admission.queued`, `admission.wait_us` root attributes) — all on the
/// driving thread, so a plain thread-local suffices.
struct AdmissionWaitInfo {
  bool queued = false;
  int64_t wait_us = 0;
};
const AdmissionWaitInfo& LastAdmissionWaitOnThread();

/// RAII admission for one engine execution against the global controller.
/// exec::RunQuery (exec/query_boundary.h) constructs it before any work and
/// returns status() when not OK. Re-entrant per thread: the degradation and
/// JIT-fallback retries of one logical query re-enter engine Execute on the
/// same driver thread and must not be double-counted (or deadlock against
/// their own slot), so only the outermost scope on a thread admits.
class AdmissionScope {
 public:
  explicit AdmissionScope(const std::string& tenant);
  ~AdmissionScope();
  AdmissionScope(const AdmissionScope&) = delete;
  AdmissionScope& operator=(const AdmissionScope&) = delete;

  /// OK when admitted (or admission is disabled / this is a nested scope);
  /// the structured rejection otherwise.
  const Status& status() const { return status_; }

 private:
  AdmissionTicket ticket_;
  Status status_;
  bool outermost_ = false;
};

}  // namespace swole::exec

#endif  // SWOLE_EXEC_ADMISSION_H_
