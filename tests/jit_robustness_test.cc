// Robustness tests for the JIT pipeline: the flag-degradation retry ladder,
// compile timeouts (hung compilers get killed), the content-addressed
// kernel cache (memory + disk layers), fault injection at every pipeline
// stage, and the interpreter fallback — which must produce bit-exact
// results whenever the JIT path is broken, so a compiler outage degrades
// throughput, never correctness.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <dirent.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "codegen/jit.h"
#include "codegen/kernel_cache.h"
#include "common/fault_injection.h"
#include "common/string_util.h"
#include "common/subprocess.h"
#include "engine/reference_engine.h"
#include "micro/micro.h"
#include "storage/table.h"

namespace swole {
namespace {

using codegen::CompiledKernel;
using codegen::ExecutionReport;
using codegen::GeneratorOptions;
using codegen::JitOptions;
using codegen::JitStats;
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

void RemoveTree(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d != nullptr) {
    while (struct dirent* entry = ::readdir(d)) {
      std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

class JitRobustnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    MicroConfig config;
    config.r_rows = 10'000;
    config.s_small_rows = 50;
    config.s_large_rows = 500;
    config.c_cardinalities = {10, 200};
    config.seed = 5;
    data_ = MicroData::Generate(config).release();

    std::string tmpl = "/tmp/swole_fakecxx_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    script_dir_ = new std::string(tmpl);
  }
  static void TearDownTestSuite() {
    RemoveTree(*script_dir_);
    delete script_dir_;
    script_dir_ = nullptr;
    delete data_;
    data_ = nullptr;
  }

  void SetUp() override {
    FaultInjector::Global().ClearAll();
    KernelCache::Global().Clear();
  }
  void TearDown() override { FaultInjector::Global().ClearAll(); }

  // Writes an executable fake-compiler script and returns its path.
  static std::string WriteScript(const std::string& name,
                                 const std::string& body) {
    std::string path = *script_dir_ + "/" + name;
    {
      std::ofstream out(path);
      out << body;
    }
    ::chmod(path.c_str(), 0755);
    return path;
  }

  static GeneratorOptions SwoleOptions() {
    GeneratorOptions options;
    options.strategy = StrategyKind::kSwole;
    return options;
  }

  static QueryResult Oracle(const QueryPlan& plan) {
    ReferenceEngine oracle(data_->catalog);
    return oracle.Execute(plan).value();
  }

  static MicroData* data_;
  static std::string* script_dir_;
};

MicroData* JitRobustnessTest::data_ = nullptr;
std::string* JitRobustnessTest::script_dir_ = nullptr;

// ---- subprocess runner ----

TEST_F(JitRobustnessTest, SubprocessCapturesOutputAndExitCode) {
  Result<SubprocessResult> run =
      RunSubprocess({"/bin/sh", "-c", "echo boom >&2; exit 3"});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->exit_code, 3);
  EXPECT_FALSE(run->timed_out);
  EXPECT_NE(run->captured_output.find("boom"), std::string::npos);
}

TEST_F(JitRobustnessTest, SubprocessTimeoutKillsHungChild) {
  SubprocessOptions options;
  options.timeout_ms = 300;
  Result<SubprocessResult> run =
      RunSubprocess({"/bin/sh", "-c", "sleep 30"}, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->timed_out);
  EXPECT_FALSE(run->Succeeded());
  // The child must die with the timeout, not with the sleep.
  EXPECT_LT(run->elapsed_ms, 10'000);
}

TEST_F(JitRobustnessTest, SubprocessReportsMissingBinary) {
  Result<SubprocessResult> run =
      RunSubprocess({"/nonexistent/swole-compiler"});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->exit_code, 127);
}

// ---- fault injector ----

TEST_F(JitRobustnessTest, FaultInjectorParsesSpecAndIsDeterministic) {
  FaultInjector& injector = FaultInjector::Global();
  ASSERT_TRUE(injector.Configure("a:1.0,b:0.0", 7).ok());
  EXPECT_TRUE(injector.ShouldFail("a"));
  EXPECT_FALSE(injector.ShouldFail("b"));
  EXPECT_FALSE(injector.ShouldFail("unarmed_site"));
  EXPECT_EQ(injector.InjectedCount("a"), 1);

  EXPECT_FALSE(injector.Configure("a:2.0", 7).ok());
  EXPECT_FALSE(injector.Configure("a:b:c", 7).ok());
  EXPECT_FALSE(injector.Configure("a:notanumber", 7).ok());

  // Same spec + seed => the same injection sequence, call for call.
  std::vector<bool> first;
  ASSERT_TRUE(injector.Configure("flaky:0.5", 99).ok());
  for (int i = 0; i < 64; ++i) first.push_back(injector.ShouldFail("flaky"));
  ASSERT_TRUE(injector.Configure("flaky:0.5", 99).ok());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(injector.ShouldFail("flaky"), first[i]) << "call " << i;
  }
  // And a 0.5 stream actually mixes failures and successes.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
  injector.ClearAll();
}

// ---- option validation (shell-metacharacter guard) ----

TEST_F(JitRobustnessTest, JitOptionsValidationRejectsUnsafeValues) {
  EXPECT_TRUE(JitOptions().Validate().ok());

  JitOptions bad_compiler;
  bad_compiler.compiler = "c++ -evil";  // embedded whitespace
  EXPECT_EQ(bad_compiler.Validate().code(), StatusCode::kInvalidArgument);

  JitOptions bad_dir;
  bad_dir.work_dir = "/tmp/x; rm -rf /";
  EXPECT_EQ(bad_dir.Validate().code(), StatusCode::kInvalidArgument);

  JitOptions bad_flags;
  bad_flags.extra_flags = "-O2 $(reboot)";
  EXPECT_EQ(bad_flags.Validate().code(), StatusCode::kInvalidArgument);

  JitOptions bad_cache;
  bad_cache.disk_cache_dir = "/tmp/\"quoted\"";
  EXPECT_EQ(bad_cache.Validate().code(), StatusCode::kInvalidArgument);

  JitOptions bad_timeout;
  bad_timeout.compile_timeout_ms = -1;
  EXPECT_EQ(bad_timeout.Validate().code(), StatusCode::kInvalidArgument);

  // An unsafe SWOLE_CXX is rejected at compile time, not passed through.
  ScopedEnv cxx("SWOLE_CXX", "c++ --sneaky");
  Result<std::unique_ptr<CompiledKernel>> compiled = codegen::GenerateAndCompile(
      MicroQ1(false, 37), data_->catalog, SwoleOptions());
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
}

// ---- retry ladder ----

TEST_F(JitRobustnessTest, CompileFailureDegradesFlagsAndSucceeds) {
  // A compiler that ICEs on the aggressive rung but works otherwise.
  std::string fake_cxx = WriteScript("fail_o3.sh",
                                     "#!/bin/sh\n"
                                     "for a in \"$@\"; do\n"
                                     "  case \"$a\" in\n"
                                     "    -O3|-march=native)\n"
                                     "      echo \"simulated ICE at $a\" >&2\n"
                                     "      exit 1;;\n"
                                     "  esac\n"
                                     "done\n"
                                     "exec c++ \"$@\"\n");
  ScopedEnv cxx("SWOLE_CXX", fake_cxx);

  JitStats::Snapshot before = codegen::GlobalJitStats().snapshot();
  JitOptions jit;
  jit.use_cache = false;
  QueryPlan plan = MicroQ1(false, 37);
  Result<std::unique_ptr<CompiledKernel>> compiled =
      codegen::GenerateAndCompile(plan, data_->catalog, SwoleOptions(), jit);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  JitStats::Snapshot after = codegen::GlobalJitStats().snapshot();
  EXPECT_GE(after.retries - before.retries, 1);
  EXPECT_GE(after.compile_failures - before.compile_failures, 1);
  EXPECT_GE(after.compiles - before.compiles, 2);

  Result<QueryResult> result = (*compiled)->Run(data_->catalog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, Oracle(plan));
}

TEST_F(JitRobustnessTest, AllRungsFailingReportsLastError) {
  std::string fake_cxx = WriteScript(
      "always_fail.sh", "#!/bin/sh\necho \"hopeless ICE\" >&2\nexit 1\n");
  ScopedEnv cxx("SWOLE_CXX", fake_cxx);
  JitOptions jit;
  jit.use_cache = false;
  Result<std::unique_ptr<CompiledKernel>> compiled = codegen::GenerateAndCompile(
      MicroQ1(false, 37), data_->catalog, SwoleOptions(), jit);
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("hopeless ICE"),
            std::string::npos);
  EXPECT_NE(compiled.status().message().find("3 attempt"), std::string::npos);
}

// ---- compile timeout ----

TEST_F(JitRobustnessTest, TimeoutKillsHungCompilerAndFallbackServes) {
  std::string hang_cxx =
      WriteScript("hang.sh", "#!/bin/sh\nsleep 30\nexit 0\n");
  ScopedEnv cxx("SWOLE_CXX", hang_cxx);

  JitOptions jit;
  jit.use_cache = false;
  jit.compile_timeout_ms = 400;
  jit.degrade_flags.clear();  // one rung; keep the test fast

  JitStats::Snapshot before = codegen::GlobalJitStats().snapshot();
  Result<std::unique_ptr<CompiledKernel>> compiled = codegen::GenerateAndCompile(
      MicroQ1(false, 37), data_->catalog, SwoleOptions(), jit);
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("timed out"), std::string::npos);
  JitStats::Snapshot after = codegen::GlobalJitStats().snapshot();
  EXPECT_EQ(after.timeouts - before.timeouts, 1);

  // The query is still served — interpreted.
  QueryPlan plan = MicroQ1(false, 37);
  ExecutionReport report;
  Result<QueryResult> result = codegen::ExecuteWithFallback(
      plan, data_->catalog, SwoleOptions(), jit, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(report.used_fallback);
  EXPECT_EQ(*result, Oracle(plan));
}

// ---- precompiled kernel prelude ----

// A fake-compiler script that runs the system compiler with -H, which
// lists every header the compile opens on stderr: "! <gch>" for a
// precompiled header it used, "x <gch>" for one it refused. The listing is
// appended to `log`; `trailing_flags` follow the JIT's own arguments.
std::string IncludeTracingCompiler(const std::string& log,
                                   const std::string& trailing_flags = "") {
  return "#!/bin/sh\nexec c++ \"$@\" -H " + trailing_flags + " 2>>" + log +
         "\n";
}

// The lines of `log` that end in `suffix`.
std::vector<std::string> LogLinesEndingIn(const std::string& log,
                                          const std::string& suffix) {
  std::ifstream in(log);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (line.ends_with(suffix)) lines.push_back(line);
  }
  return lines;
}

constexpr char kPreludeGch[] = "/codegen/kernel_prelude.h.gch";
constexpr char kPreludeHeader[] = "/codegen/kernel_prelude.h";

TEST_F(JitRobustnessTest, DefaultFlagsCompileAgainstFreshPrecompiledPrelude) {
  // The tracing wrapper is also the same compiler under another path: the
  // prelude is chosen by the rung's flags, never by the compiler's path.
  std::string log = *script_dir_ + "/default_flags.log";
  ScopedEnv cxx("SWOLE_CXX",
                WriteScript("trace_default.sh", IncludeTracingCompiler(log)));
  JitOptions jit;
  jit.use_cache = false;
  jit.degrade_flags.clear();
  QueryPlan plan = MicroQ1(false, 41);
  Result<std::unique_ptr<CompiledKernel>> compiled =
      codegen::GenerateAndCompile(plan, data_->catalog, SwoleOptions(), jit);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  Result<QueryResult> result = (*compiled)->Run(data_->catalog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, Oracle(plan));

  // Taken, not refused, and not missing.
  std::vector<std::string> used = LogLinesEndingIn(log, kPreludeGch);
  ASSERT_EQ(used.size(), 1u);
  ASSERT_EQ(used[0].rfind("! ", 0), 0u) << used[0];

  // Not stale: nothing the prelude pulls in changed after it was built.
  std::string gch = used[0].substr(2);
  std::filesystem::file_time_type built = std::filesystem::last_write_time(gch);
  std::ifstream depfile(gch + ".d");
  ASSERT_TRUE(depfile.good()) << gch << ".d";
  std::string token;
  depfile >> token;  // the rule's target, "<gch>:"
  bool saw_hash_table = false;
  while (depfile >> token) {
    if (token == "\\") continue;
    saw_hash_table |= token.ends_with("/exec/hash_table.h");
    EXPECT_LE(std::filesystem::last_write_time(token), built)
        << token << " changed after " << gch << " was built";
  }
  EXPECT_TRUE(saw_hash_table);
}

TEST_F(JitRobustnessTest, NonDefaultFlagRungsCompileWithoutThePrelude) {
  // GCC accepts the prelude under other -O levels too, but then emits
  // different code: only a rung with exactly the prelude's flags uses it.
  std::string log = *script_dir_ + "/other_flags.log";
  ScopedEnv cxx("SWOLE_CXX",
                WriteScript("trace_other.sh", IncludeTracingCompiler(log)));
  QueryPlan plan = MicroQ1(false, 43);
  QueryResult expected = Oracle(plan);
  {
    JitOptions jit;
    jit.use_cache = false;
    jit.extra_flags = "-O2";
    jit.degrade_flags.clear();
    Result<std::unique_ptr<CompiledKernel>> compiled =
        codegen::GenerateAndCompile(plan, data_->catalog, SwoleOptions(), jit);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    Result<QueryResult> result = (*compiled)->Run(data_->catalog);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*result, expected);
  }
  {
    // An injected compile failure on the default rung pushes the ladder
    // onto -O2. Pick the seed whose first two draws are fail, then pass.
    uint64_t seed = 0;
    for (;; ++seed) {
      ASSERT_TRUE(FaultInjector::Global().Configure("jit_compile:0.5", seed)
                      .ok());
      bool first = FaultInjector::Global().ShouldFail("jit_compile");
      if (first && !FaultInjector::Global().ShouldFail("jit_compile")) break;
    }
    ASSERT_TRUE(
        FaultInjector::Global().Configure("jit_compile:0.5", seed).ok());
    JitOptions jit;
    jit.use_cache = false;
    jit.degrade_flags = {"-O2"};
    JitStats::Snapshot before = codegen::GlobalJitStats().snapshot();
    Result<std::unique_ptr<CompiledKernel>> compiled =
        codegen::GenerateAndCompile(plan, data_->catalog, SwoleOptions(), jit);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    JitStats::Snapshot after = codegen::GlobalJitStats().snapshot();
    EXPECT_EQ(after.retries - before.retries, 1);
    EXPECT_EQ(FaultInjector::Global().InjectedCount("jit_compile"), 1);
    Result<QueryResult> result = (*compiled)->Run(data_->catalog);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*result, expected);
  }

  // Both compiles parsed the prelude header; neither saw the precompiled
  // copy, accepted or refused.
  EXPECT_EQ(LogLinesEndingIn(log, kPreludeHeader).size(), 2u);
  std::vector<std::string> gch_lines = LogLinesEndingIn(log, kPreludeGch);
  EXPECT_TRUE(gch_lines.empty()) << gch_lines.front();
}

TEST_F(JitRobustnessTest, RefusedPreludeFallsBackToParsingTheHeaders) {
  // Another -march than the prelude's makes GCC refuse it; the compile
  // parses the headers instead and never fails over it.
  std::string log = *script_dir_ + "/refused.log";
  ScopedEnv cxx("SWOLE_CXX",
                WriteScript("trace_refused.sh",
                            IncludeTracingCompiler(log, "-march=x86-64")));
  JitOptions jit;
  jit.use_cache = false;
  jit.degrade_flags.clear();
  QueryPlan plan = MicroQ1(false, 47);
  Result<std::unique_ptr<CompiledKernel>> compiled =
      codegen::GenerateAndCompile(plan, data_->catalog, SwoleOptions(), jit);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  Result<QueryResult> result = (*compiled)->Run(data_->catalog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, Oracle(plan));

  std::vector<std::string> refused = LogLinesEndingIn(log, kPreludeGch);
  ASSERT_EQ(refused.size(), 1u);
  EXPECT_EQ(refused[0].rfind("x ", 0), 0u) << refused[0];
  EXPECT_EQ(LogLinesEndingIn(log, kPreludeHeader).size(), 1u);
}

// ---- fault injection at every stage -> interpreter fallback ----

TEST_F(JitRobustnessTest, FaultAtEveryStageFallsBackBitExact) {
  const char* kSites[] = {"jit_workdir", "jit_source_write", "jit_compile",
                          "jit_dlopen", "jit_dlsym"};
  QueryPlan plan = MicroQ4(false, 60, 40);
  QueryResult expected = Oracle(plan);
  JitOptions jit;
  jit.use_cache = false;

  for (const char* site : kSites) {
    SCOPED_TRACE(site);
    FaultInjector::Global().SetFault(site, 1.0);
    JitStats::Snapshot before = codegen::GlobalJitStats().snapshot();
    ExecutionReport report;
    Result<QueryResult> result = codegen::ExecuteWithFallback(
        MicroQ4(false, 60, 40), data_->catalog, SwoleOptions(), jit,
        &report);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(report.used_fallback);
    EXPECT_FALSE(report.used_jit);
    EXPECT_EQ(report.fallback_engine, StrategyKindName(StrategyKind::kSwole));
    EXPECT_NE(report.fallback_reason.find(site), std::string::npos);
    EXPECT_EQ(*result, expected);
    JitStats::Snapshot after = codegen::GlobalJitStats().snapshot();
    EXPECT_EQ(after.fallbacks - before.fallbacks, 1);
    EXPECT_GE(FaultInjector::Global().InjectedCount(site), 1);
    FaultInjector::Global().ClearAll();
  }

  // Faults off: the same entry point serves the query compiled.
  ExecutionReport report;
  Result<QueryResult> result = codegen::ExecuteWithFallback(
      MicroQ4(false, 60, 40), data_->catalog, SwoleOptions(), jit, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(report.used_jit);
  EXPECT_FALSE(report.used_fallback);
  EXPECT_EQ(*result, expected);
}

TEST_F(JitRobustnessTest, CompileFaultSweepAcrossStrategiesAndPlans) {
  // Differential check: with the compiler fully broken, every strategy and
  // plan shape still answers correctly through the interpreted engines.
  FaultInjector::Global().SetFault("jit_compile", 1.0);
  JitOptions jit;
  jit.use_cache = false;
  for (StrategyKind kind : {StrategyKind::kDataCentric, StrategyKind::kHybrid,
                            StrategyKind::kSwole}) {
    for (int q = 0; q < 3; ++q) {
      QueryPlan plan = q == 0   ? MicroQ1(false, 37)
                       : q == 1 ? MicroQ2(data_->c_columns[0],
                                          data_->c_actual[0], 45)
                                : MicroQ4(false, 60, 40);
      SCOPED_TRACE(StringFormat("%s q%d", StrategyKindName(kind), q));
      QueryResult expected = Oracle(plan);
      GeneratorOptions gen;
      gen.strategy = kind;
      ExecutionReport report;
      Result<QueryResult> result = codegen::ExecuteWithFallback(
          plan, data_->catalog, gen, jit, &report);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(report.used_fallback);
      EXPECT_EQ(*result, expected);
    }
  }
}

TEST_F(JitRobustnessTest, EnvDrivenFaultSpecIsHonored) {
  ScopedEnv fault("SWOLE_FAULT", "jit_compile:1.0");
  FaultInjector::Global().LoadFromEnv();
  JitOptions jit;
  jit.use_cache = false;
  QueryPlan plan = MicroQ1(false, 37);
  ExecutionReport report;
  Result<QueryResult> result = codegen::ExecuteWithFallback(
      plan, data_->catalog, SwoleOptions(), jit, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(report.used_fallback);
  EXPECT_EQ(*result, Oracle(plan));
  FaultInjector::Global().ClearAll();
}

TEST_F(JitRobustnessTest, UnimplementedPlanFallsBackToItsEngine) {
  // ROF has no code generator; ExecuteWithFallback runs its interpreted
  // engine instead of erroring (the Bespoke-OLAP "generic path" behavior).
  QueryPlan plan = MicroQ1(false, 37);
  GeneratorOptions gen;
  gen.strategy = StrategyKind::kRof;
  ExecutionReport report;
  Result<QueryResult> result = codegen::ExecuteWithFallback(
      plan, data_->catalog, gen, {}, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(report.used_fallback);
  EXPECT_EQ(report.fallback_engine, StrategyKindName(StrategyKind::kRof));
  EXPECT_NE(report.fallback_reason.find("Unimplemented"), std::string::npos);
  EXPECT_EQ(*result, Oracle(plan));
}

// ---- kernel cache ----

TEST_F(JitRobustnessTest, KernelCacheHitSkipsRecompilation) {
  QueryPlan plan = MicroQ1(false, 21);
  JitStats::Snapshot before = codegen::GlobalJitStats().snapshot();

  Result<std::unique_ptr<CompiledKernel>> first =
      codegen::GenerateAndCompile(plan, data_->catalog, SwoleOptions());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE((*first)->from_cache());
  JitStats::Snapshot mid = codegen::GlobalJitStats().snapshot();
  EXPECT_GE(mid.compiles - before.compiles, 1);

  Result<std::unique_ptr<CompiledKernel>> second =
      codegen::GenerateAndCompile(MicroQ1(false, 21), data_->catalog,
                                  SwoleOptions());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE((*second)->from_cache());
  JitStats::Snapshot after = codegen::GlobalJitStats().snapshot();
  EXPECT_EQ(after.compiles, mid.compiles);  // no new compiler invocation
  EXPECT_EQ(after.cache_hits_memory - mid.cache_hits_memory, 1);

  QueryResult expected = Oracle(plan);
  EXPECT_EQ(*(*first)->Run(data_->catalog), expected);
  EXPECT_EQ(*(*second)->Run(data_->catalog), expected);
}

TEST_F(JitRobustnessTest, DiskCacheSurvivesMemoryCacheClear) {
  std::string tmpl = "/tmp/swole_diskcache_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
  JitOptions jit;
  jit.disk_cache_dir = tmpl;

  QueryPlan plan = MicroQ1(false, 63);
  Result<std::unique_ptr<CompiledKernel>> first =
      codegen::GenerateAndCompile(plan, data_->catalog, SwoleOptions(), jit);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE((*first)->from_cache());

  // A new process would start with an empty memory cache; model that.
  KernelCache::Global().Clear();
  JitStats::Snapshot before = codegen::GlobalJitStats().snapshot();
  Result<std::unique_ptr<CompiledKernel>> second = codegen::GenerateAndCompile(
      MicroQ1(false, 63), data_->catalog, SwoleOptions(), jit);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE((*second)->from_cache());
  JitStats::Snapshot after = codegen::GlobalJitStats().snapshot();
  EXPECT_EQ(after.cache_hits_disk - before.cache_hits_disk, 1);
  EXPECT_EQ(after.compiles, before.compiles);
  EXPECT_EQ(*(*second)->Run(data_->catalog), Oracle(plan));

  RemoveTree(tmpl);
}

TEST_F(JitRobustnessTest, CorruptedDiskCacheEntryIsQuarantinedAndRecompiled) {
  std::string tmpl = "/tmp/swole_diskcache_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
  JitOptions jit;
  jit.disk_cache_dir = tmpl;

  QueryPlan plan = MicroQ1(false, 77);
  Result<std::unique_ptr<CompiledKernel>> first =
      codegen::GenerateAndCompile(plan, data_->catalog, SwoleOptions(), jit);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  QueryResult expected = Oracle(plan);
  EXPECT_EQ(*(*first)->Run(data_->catalog), expected);

  // Corrupt the cached shared object in place (flip one byte mid-file).
  // The .sum sidecar now disagrees with the content, exactly as after a
  // torn write or bit rot.
  auto list_entries = [&](const std::string& suffix) {
    std::vector<std::string> out;
    DIR* d = ::opendir(tmpl.c_str());
    while (struct dirent* entry = ::readdir(d)) {
      std::string name = entry->d_name;
      if (name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        out.push_back(tmpl + "/" + name);
      }
    }
    ::closedir(d);
    return out;
  };
  std::vector<std::string> sos = list_entries(".so");
  ASSERT_EQ(sos.size(), 1u);
  {
    std::fstream f(sos[0],
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(128);
    char byte = 0;
    f.seekg(128);
    f.get(byte);
    byte ^= 0x1;
    f.seekp(128);
    f.put(byte);
  }

  // A fresh process (empty memory cache) must not dlopen the corrupt
  // object: the lookup quarantines it and the compile path rebuilds.
  KernelCache::Global().Clear();
  JitStats::Snapshot before = codegen::GlobalJitStats().snapshot();
  Result<std::unique_ptr<CompiledKernel>> second = codegen::GenerateAndCompile(
      MicroQ1(false, 77), data_->catalog, SwoleOptions(), jit);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE((*second)->from_cache());
  JitStats::Snapshot after = codegen::GlobalJitStats().snapshot();
  EXPECT_EQ(after.cache_hits_disk, before.cache_hits_disk);
  EXPECT_GE(after.compiles - before.compiles, 1);
  EXPECT_EQ(*(*second)->Run(data_->catalog), expected);

  // The corrupt object is preserved for inspection, not silently deleted,
  // and the rebuilt entry has a fresh checksum sidecar.
  EXPECT_FALSE(list_entries(".corrupt." + std::to_string(::getpid())).empty());
  EXPECT_EQ(list_entries(".so").size(), 1u);
  EXPECT_EQ(list_entries(".so.sum").size(), 1u);

  // The rebuilt entry serves disk hits again.
  KernelCache::Global().Clear();
  Result<std::unique_ptr<CompiledKernel>> third = codegen::GenerateAndCompile(
      MicroQ1(false, 77), data_->catalog, SwoleOptions(), jit);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_TRUE((*third)->from_cache());
  EXPECT_EQ(*(*third)->Run(data_->catalog), expected);

  RemoveTree(tmpl);
}

// ---- JIT temp-directory resolution (SWOLE_JIT_TMPDIR / TMPDIR) ----

namespace {

// Removes a base directory that holds swole_jit_* work dirs (one level).
void RemoveBaseTree(const std::string& base) {
  DIR* d = ::opendir(base.c_str());
  if (d != nullptr) {
    while (struct dirent* entry = ::readdir(d)) {
      std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      RemoveTree(base + "/" + name);
    }
    ::closedir(d);
  }
  ::rmdir(base.c_str());
}

}  // namespace

TEST_F(JitRobustnessTest, JitTmpDirFollowsEnvironmentWithPrecedence) {
  std::string tmpdir_base = "/tmp/swole_tmpbase_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpdir_base.data()), nullptr);
  std::string own_base = "/tmp/swole_ownbase_XXXXXX";
  ASSERT_NE(::mkdtemp(own_base.data()), nullptr);

  // keep_artifacts + no cache: every compile is fresh and leaves its
  // source where the work dir was created.
  JitOptions jit;
  jit.use_cache = false;
  jit.keep_artifacts = true;
  jit.extra_flags = "-O1";
  jit.degrade_flags.clear();

  {
    ScopedEnv tmpdir("TMPDIR", tmpdir_base);
    Result<std::unique_ptr<CompiledKernel>> compiled =
        codegen::GenerateAndCompile(MicroQ1(false, 11), data_->catalog,
                                    SwoleOptions(), jit);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    EXPECT_EQ((*compiled)->source_path().rfind(tmpdir_base + "/swole_jit_",
                                               0),
              0u)
        << (*compiled)->source_path();
  }
  {
    // SWOLE_JIT_TMPDIR wins over TMPDIR; a trailing slash is tolerated.
    ScopedEnv tmpdir("TMPDIR", tmpdir_base);
    ScopedEnv own("SWOLE_JIT_TMPDIR", own_base + "/");
    Result<std::unique_ptr<CompiledKernel>> compiled =
        codegen::GenerateAndCompile(MicroQ1(false, 12), data_->catalog,
                                    SwoleOptions(), jit);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    EXPECT_EQ(
        (*compiled)->source_path().rfind(own_base + "/swole_jit_", 0), 0u)
        << (*compiled)->source_path();
  }

  RemoveBaseTree(tmpdir_base);
  RemoveBaseTree(own_base);
}

TEST_F(JitRobustnessTest, ExecUnsafeJitTmpDirFallsBackToTmp) {
  // The work-dir path crosses the compiler's exec boundary: a base with
  // shell metacharacters is refused (with a warning), not propagated.
  ScopedEnv bad("SWOLE_JIT_TMPDIR", "/tmp/evil base; rm -rf /");
  JitOptions jit;
  jit.use_cache = false;
  jit.keep_artifacts = true;
  jit.extra_flags = "-O1";
  jit.degrade_flags.clear();
  Result<std::unique_ptr<CompiledKernel>> compiled =
      codegen::GenerateAndCompile(MicroQ1(false, 13), data_->catalog,
                                  SwoleOptions(), jit);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ((*compiled)->source_path().rfind("/tmp/swole_jit_", 0), 0u)
      << (*compiled)->source_path();
  // Drop the kept artifacts.
  std::string dir = (*compiled)->source_path();
  dir = dir.substr(0, dir.find_last_of('/'));
  RemoveTree(dir);
}

TEST_F(JitRobustnessTest, UnwritableJitTmpDirReportsActionableError) {
  ScopedEnv bad("SWOLE_JIT_TMPDIR", "/nonexistent/swole_base");
  JitOptions jit;
  jit.use_cache = false;
  Result<std::unique_ptr<CompiledKernel>> compiled =
      codegen::GenerateAndCompile(MicroQ1(false, 14), data_->catalog,
                                  SwoleOptions(), jit);
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("SWOLE_JIT_TMPDIR"),
            std::string::npos)
      << compiled.status().ToString();
}

// ---- Run-time binding validation ----

namespace binding {

std::unique_ptr<Column> MakeIntColumn(const std::string& name,
                                      PhysicalType type, int64_t rows,
                                      int64_t modulus) {
  auto column = std::make_unique<Column>(name, ColumnType::Int(type));
  for (int64_t i = 0; i < rows; ++i) column->Append(i % modulus);
  return column;
}

// fact "f"(fk -> d.d_pk, v), dim "d"(d_pk, d_x). The fk index is built
// against `index_pk_rows` primary-key values — when that disagrees with the
// bound dim table (stale index after an append), Run must refuse.
void BuildCatalog(Catalog* catalog, int64_t fact_rows, int64_t dim_rows,
                  int64_t index_pk_rows) {
  auto dim = std::make_shared<Table>("d");
  dim->AddColumn(
         MakeIntColumn("d_pk", PhysicalType::kInt32, dim_rows, dim_rows))
      .CheckOK();
  dim->AddColumn(MakeIntColumn("d_x", PhysicalType::kInt8, dim_rows, 100))
      .CheckOK();

  auto fact = std::make_shared<Table>("f");
  fact->AddColumn(MakeIntColumn("fk", PhysicalType::kInt32, fact_rows,
                                std::min(dim_rows, index_pk_rows)))
      .CheckOK();
  fact->AddColumn(MakeIntColumn("v", PhysicalType::kInt16, fact_rows, 50))
      .CheckOK();

  // Build the index against a detached pk column so its referenced size can
  // disagree with the registered dim table.
  std::unique_ptr<Column> index_pk = MakeIntColumn(
      "d_pk", PhysicalType::kInt32, index_pk_rows, index_pk_rows);
  fact->AddFkIndex("fk",
                   FkIndex::Build(fact->ColumnRef("fk"), *index_pk).value())
      .CheckOK();

  catalog->AddTable(std::move(fact)).CheckOK();
  catalog->AddTable(std::move(dim)).CheckOK();
}

QueryPlan JoinPlan() {
  QueryPlan plan;
  plan.name = "binding_join";
  plan.fact_table = "f";
  plan.fact_filter = Ge(Col("v"), Lit(0));
  plan.dims.emplace_back(Hop{"fk", "d", "d_pk"}, Lt(Col("d_x"), Lit(50)));
  plan.aggs.emplace_back(AggKind::kSum, Col("v"), "s");
  return plan;
}

}  // namespace binding

TEST_F(JitRobustnessTest, RunRejectsFkIndexInconsistentWithTables) {
  // Consistent catalog: kernel compiles and runs.
  Catalog good;
  binding::BuildCatalog(&good, 1000, 50, 50);
  GeneratorOptions gen = SwoleOptions();  // positional-bitmap join
  Result<std::unique_ptr<CompiledKernel>> compiled =
      codegen::GenerateAndCompile(binding::JoinPlan(), good, gen);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_TRUE((*compiled)->Run(good).ok());

  // An index covering fewer fact rows than its table can't even be
  // registered — the storage layer owns that invariant.
  Table fact("f2");
  fact.AddColumn(
          binding::MakeIntColumn("fk", PhysicalType::kInt32, 1000, 50))
      .CheckOK();
  std::unique_ptr<Column> short_fk =
      binding::MakeIntColumn("fk", PhysicalType::kInt32, 500, 50);
  std::unique_ptr<Column> pk =
      binding::MakeIntColumn("d_pk", PhysicalType::kInt32, 50, 50);
  EXPECT_EQ(fact.AddFkIndex("fk", FkIndex::Build(*short_fk, *pk).value())
                .code(),
            StatusCode::kInvalidArgument);

  // Index references fewer dim rows than the bound dim table (stale index
  // after a dim append): the positional bitmap would be probed past its
  // end. Run must refuse instead of letting generated code read OOB.
  Catalog short_ref;
  binding::BuildCatalog(&short_ref, 1000, 60, 50);
  Result<QueryResult> run_ref = (*compiled)->Run(short_ref);
  ASSERT_FALSE(run_ref.ok());
  EXPECT_EQ(run_ref.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run_ref.status().message().find("references"),
            std::string::npos);
}

}  // namespace
}  // namespace swole
