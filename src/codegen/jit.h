#ifndef SWOLE_CODEGEN_JIT_H_
#define SWOLE_CODEGEN_JIT_H_

#include <memory>
#include <string>
#include <vector>

#include "codegen/generator.h"
#include "codegen/kernel_cache.h"
#include "obs/metrics.h"
#include "plan/result.h"

// JIT driver: writes a generated translation unit to a temp directory,
// compiles it with the system C++ compiler, dlopens the result, and runs it
// against a catalog. This is the Daytona/HIQUE-style compile-to-shared-object
// pipeline; the generated code is real, inspectable C++ (keep the .cc around
// with keep_artifacts).
//
// The pipeline is built to degrade, never to take a query down with it:
//
//   kernel cache ──hit──────────────────────────────▶ run compiled kernel
//        │miss
//   compile -O3 -march=native ──fail/timeout──▶ -O2 ──▶ -O0   (retry ladder)
//        │all fail
//   ExecuteWithFallback ──▶ interpreted strategy engine ──▶ reference engine
//
// Compiles run in a fork/exec subprocess (common/subprocess.h) with a
// timeout — no shell, no hung compiler wedging the server. Every stage
// (workdir, source write, compile, dlopen, dlsym) is a fault-injection site
// (common/fault_injection.h, SWOLE_FAULT=jit_compile:1.0) so the failure
// paths are deterministically testable. Counters for all of it live in
// JitStats.

namespace swole::exec {
class QueryContext;
}  // namespace swole::exec

namespace swole::codegen {

/// The JIT's default first-rung flags ("-O3 -march=native"), fixed by the
/// build (SWOLE_JIT_FLAGS in src/CMakeLists.txt), which also builds the
/// precompiled kernel prelude and the kernel runtime object with them.
extern const char kDefaultJitFlags[];

struct JitOptions {
  // Compiler binary; the SWOLE_CXX env var overrides. A single executable
  // path — flags go in extra_flags / degrade_flags.
  std::string compiler = "c++";
  // First rung of the flag ladder. Only a rung equal to kDefaultJitFlags
  // compiles against the precompiled kernel prelude.
  std::string extra_flags = kDefaultJitFlags;
  // Successive rungs tried when a compile fails or times out (the
  // HeteroDB-style "default variant" degradation). Empty = no retries.
  std::vector<std::string> degrade_flags = {"-O2", "-O0"};
  // Directory for generated sources/objects; empty => a fresh temp dir,
  // removed again unless keep_artifacts is set.
  std::string work_dir;
  bool keep_artifacts = false;
  // Per-compile-attempt wall-clock budget; expired compilers are killed.
  // SWOLE_JIT_TIMEOUT_MS overrides; 0 disables the timeout.
  int64_t compile_timeout_ms = 60'000;
  // Consult/populate the in-memory kernel cache.
  bool use_cache = true;
  // On-disk cache directory shared across processes; empty disables the
  // disk layer. SWOLE_KERNEL_CACHE_DIR overrides.
  std::string disk_cache_dir;

  /// Rejects option values that could not survive an exec boundary: paths
  /// or flags containing whitespace (outside flag lists), quotes, or shell
  /// metacharacters. The compile pipeline never invokes a shell, so this is
  /// defense in depth, not an escaping layer.
  Status Validate() const;
};

/// Pipeline counters, process-wide. A stable view over the `jit.*`
/// instruments in obs::MetricsRegistry (which owns storage and the
/// shutdown dump); benches and tests read snapshots exactly as before the
/// registry existed. Each member is a forever-valid registry handle.
struct JitStats {
  obs::Counter& compiles;          // jit.compiles: subprocess invocations
  obs::Counter& compile_failures;  // jit.compile_failures
  obs::Counter& retries;           // jit.retries: ladder rungs after first
  obs::Counter& timeouts;          // jit.timeouts: attempts killed on timeout
  obs::Counter& cache_hits_memory;  // jit.cache_hits_memory
  obs::Counter& cache_hits_disk;    // jit.cache_hits_disk
  obs::Counter& fallbacks;         // jit.fallbacks: served interpreted
  obs::Counter& compile_ms;        // jit.compile_ms: total compiler wall time

  JitStats();  // binds the handles; use GlobalJitStats(), don't construct

  struct Snapshot {
    int64_t compiles = 0;
    int64_t compile_failures = 0;
    int64_t retries = 0;
    int64_t timeouts = 0;
    int64_t cache_hits_memory = 0;
    int64_t cache_hits_disk = 0;
    int64_t fallbacks = 0;
    int64_t compile_ms = 0;

    std::string ToString() const;
  };

  Snapshot snapshot() const;
  void Reset();
};

/// The process-wide stats instance used by the pipeline. The metrics
/// registry logs all non-zero instruments (including these) at shutdown.
JitStats& GlobalJitStats();

/// A compiled query kernel bound to the dlopened shared object. The shared
/// object itself (KernelLibrary) may be shared with the kernel cache and
/// other CompiledKernel instances.
class CompiledKernel {
 public:
  ~CompiledKernel() = default;

  CompiledKernel(const CompiledKernel&) = delete;
  CompiledKernel& operator=(const CompiledKernel&) = delete;

  /// Executes the kernel against `catalog`, binding column/table/fk-index
  /// slots by name. The catalog must contain the same tables the kernel
  /// was generated against; slot types and fk-index row counts are
  /// validated (InvalidArgument) before any generated code runs.
  /// `num_threads` == 0 defers to SWOLE_THREADS (default 1); the fact scan
  /// is dispatched as tile-aligned morsels with per-worker generated
  /// states merged in worker order, so results are bit-exact at every
  /// thread count.
  ///
  /// `query_ctx` attaches query-lifecycle governance (exec/query_context.h)
  /// to the kernel: its memory hook tracks the generated dim structures and
  /// group tables (sites jit_dim_bitmap / jit_dim_keyset / jit_groups) and
  /// its cancellation token is polled at the top of every generated morsel.
  /// When null, SWOLE_MEM_LIMIT / SWOLE_DEADLINE_MS still govern the run if
  /// set; with neither, the hooks stay null and the kernel runs exactly as
  /// before (identical generated source either way — cache keys are stable).
  Result<QueryResult> Run(const Catalog& catalog, int num_threads = 0,
                          exec::QueryContext* query_ctx = nullptr) const;

  const GeneratedKernel& kernel() const { return kernel_; }
  const std::string& library_path() const { return library_->library_path(); }
  const std::string& source_path() const { return source_path_; }
  /// True if this kernel came out of the cache instead of a fresh compile.
  bool from_cache() const { return from_cache_; }

 private:
  friend Result<std::unique_ptr<CompiledKernel>> CompileKernel(
      GeneratedKernel kernel, const QueryPlan& plan,
      const JitOptions& options);

  CompiledKernel() = default;

  GeneratedKernel kernel_;
  std::shared_ptr<KernelLibrary> library_;
  std::string source_path_;
  bool from_cache_ = false;
  // Result post-processing metadata captured from the plan.
  std::vector<std::string> agg_names_;
  bool sort_groups_ = true;
};

/// The kernel-cache key CompileKernel will use for `source` under
/// `options`, with environment overrides (SWOLE_CXX) resolved — what the
/// startup corpus (codegen/corpus.h) registers for warm-hit accounting.
std::string ResolvedKernelCacheKey(const std::string& source,
                                   const JitOptions& options = {});

/// Compiles a generated kernel into a shared object and loads it, going
/// through the cache and the flag-degradation retry ladder.
Result<std::unique_ptr<CompiledKernel>> CompileKernel(
    GeneratedKernel kernel, const QueryPlan& plan,
    const JitOptions& options = {});

/// One-stop: generate + compile for (plan, strategy).
Result<std::unique_ptr<CompiledKernel>> GenerateAndCompile(
    const QueryPlan& plan, const Catalog& catalog,
    const GeneratorOptions& gen_options, const JitOptions& jit_options = {});

/// How ExecuteWithFallback actually served a query.
struct ExecutionReport {
  bool used_jit = false;        // ran the compiled kernel
  bool used_fallback = false;   // ran an interpreted engine instead
  bool cache_hit = false;       // compiled kernel came from the cache
  // Which engine served the fallback: "strategy" or "reference".
  std::string fallback_engine;
  // Status string of the JIT failure that triggered the fallback.
  std::string fallback_reason;
};

/// Fault-tolerant execution: JIT the plan and run it; if generation,
/// compilation, loading, or kernel binding fails for any reason (including
/// Unimplemented plan shapes), transparently execute the plan on the
/// interpreted engine for gen_options.strategy — and on the reference
/// engine if even that refuses. A query only returns an error Status when
/// every layer has failed. Fallbacks are counted in GlobalJitStats().
///
/// Governance statuses are NOT infrastructure failures and do not trigger
/// the interpreter fallback: a cancelled or deadline-exceeded kernel run
/// returns its structured Status directly. The one exception is a memory
/// budget breach under the SWOLE strategy, which earns a single retry on
/// the interpreted data-centric engine under the same query context —
/// mirroring SwoleStrategy's own degradation path.
Result<QueryResult> ExecuteWithFallback(
    const QueryPlan& plan, const Catalog& catalog,
    const GeneratorOptions& gen_options = {},
    const JitOptions& jit_options = {}, ExecutionReport* report = nullptr);

}  // namespace swole::codegen

#endif  // SWOLE_CODEGEN_JIT_H_
