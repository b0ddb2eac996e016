#ifndef SWOLE_CODEGEN_CORPUS_H_
#define SWOLE_CODEGEN_CORPUS_H_

#include <string>
#include <vector>

#include "codegen/generator.h"
#include "codegen/jit.h"
#include "plan/plan.h"

// Startup kernel-corpus precompilation. A serving process pays the JIT
// compile exactly once per distinct (source, compiler, flags) key — but
// "once" lands on the first unlucky client of every kernel. A workload
// corpus moves those compiles to startup: the registry of known benchmark
// queries names the plans, and PrecompileCorpus drives each through the
// content-addressed kernel cache in parallel on the shared worker pool, so
// the first client of every known query hits a warm cache.
//
// Activation: SWOLE_WARM_CORPUS=auto precompiles every registered query
// whose tables exist in the catalog.
//
// Effectiveness is observable: every precompiled cache key is registered,
// and CompileKernel reports each later consult of a registered key as
// jit.corpus.warm_hits (served from cache) or jit.corpus.cold_misses
// (compiled again — e.g. the cache was cleared). The precompile itself
// reports jit.corpus.entries / precompiled / cache_hits / unsupported /
// failures / precompile_ms.

namespace swole::codegen {

/// One corpus member: a plan plus the generator configuration whose
/// emitted source keys the cache.
struct CorpusEntry {
  std::string name;  // e.g. "tpch.q1/swole"
  QueryPlan plan;
  GeneratorOptions gen;
};

struct CorpusReport {
  int64_t entries = 0;      // corpus size
  int64_t compiled = 0;     // fresh compiles performed
  int64_t cache_hits = 0;   // already cached (memory or disk layer)
  int64_t unsupported = 0;  // plan shape outside the codegen subset
  int64_t failures = 0;     // generation or compile errors (logged)
  int64_t elapsed_ms = 0;

  std::string ToString() const;
};

/// Names of the registered queries AutoCorpus draws from ("tpch.q1",
/// "micro.q4_small", ...).
std::vector<std::string> CorpusQueryNames();

/// Every registered query whose required tables exist in `catalog`, under
/// the default (swole) generator configuration.
std::vector<CorpusEntry> AutoCorpus(const Catalog& catalog);

/// Generates and compiles every entry in parallel on the shared worker
/// pool (exec/scheduler.h), registering each cache key for warm-hit
/// accounting. Individual failures are counted and logged, never fatal —
/// a corpus must not stop a server from starting.
CorpusReport PrecompileCorpus(const std::vector<CorpusEntry>& entries,
                              const Catalog& catalog,
                              const JitOptions& jit_options = {});

/// SWOLE_WARM_CORPUS entry point: "" (unset) does nothing, "auto"
/// precompiles AutoCorpus. Any other value is logged as a warning and
/// reported as zero entries, not raised.
CorpusReport WarmCorpusFromEnv(const Catalog& catalog,
                               const JitOptions& jit_options = {});

/// Registers `cache_key` as corpus-precompiled (PrecompileCorpus does this
/// for every entry; exposed for tests).
void RegisterCorpusKey(const std::string& cache_key);

/// CompileKernel's accounting hook: counts the consult of a registered key
/// as jit.corpus.warm_hits (hit) or jit.corpus.cold_misses. No-op until a
/// corpus has registered keys, so non-corpus processes pay one atomic load.
void NoteCorpusLookup(const std::string& cache_key, bool hit);

/// Drops all registered corpus keys (tests).
void ResetCorpusKeysForTest();

}  // namespace swole::codegen

#endif  // SWOLE_CODEGEN_CORPUS_H_
