// The benchmark of record. One process runs one workload:
//
//   tpch-sf1     TPC-H SF 1, the 8 paper queries + 3 string variants, each
//                under data-centric, hybrid, ROF, SWOLE and JIT-SWOLE; one
//                client, one engine thread, engine order rotated per round.
//   micro-4m     the paper's micro Q1-Q6 at R = 4M rows, 21 points that
//                straddle the Figs. 8-12 crossovers, the four interpreted
//                engines, plus JIT-SWOLE on one point per query family.
//   serving-mix  a closed loop of 2 clients x 2 engine threads running the
//                11 TPC-H queries round-robin at SF 0.1 against one shared
//                SWOLE engine, interleaved with solo rounds of every
//                engine that give each query its unloaded latency.
//
// Every result the benchmark receives, timed or not, is checked bit-for-bit
// against ReferenceEngine on the same data (checker.h). Report lines start
// with "# "; the last stdout line is the JSON result. See README.md for
// the metric definitions and why each workload exists.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checker.h"
#include "codegen/corpus.h"
#include "codegen/jit.h"
#include "codegen/kernel_cache.h"
#include "engine/reference_engine.h"
#include "exec/kernels.h"
#include "exec/query_context.h"
#include "exec/simd.h"
#include "micro/micro.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spans.h"
#include "storage/table.h"
#include "strategies/strategy.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

extern char** environ;

namespace perfbench {
namespace {

using swole::Catalog;
using swole::QueryPlan;
using swole::QueryResult;
using swole::Result;
using swole::StrategyKind;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---- statistics ----

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// ---- engines ----

enum Engine : int { kDataCentric, kHybrid, kRof, kSwole, kJit, kNumEngines };
constexpr int kNumInterpreted = 4;
constexpr const char* kEngineKey[kNumEngines] = {"data_centric", "hybrid",
                                                 "rof", "swole", "jit"};
constexpr StrategyKind kEngineKind[kNumInterpreted] = {
    StrategyKind::kDataCentric, StrategyKind::kHybrid, StrategyKind::kRof,
    StrategyKind::kSwole};

// The engines' existing phase spans (obs/trace.h) the traced run sums.
constexpr int kNumPhases = 4;
constexpr const char* kPhaseName[kNumPhases] = {"build", "probe", "merge",
                                                "extract"};

// ---- workloads ----

struct WorkloadSpec {
  const char* name;
  bool tpch;  // TPC-H tables; otherwise the micro table set
  double scale_factor;
  int64_t micro_rows;
  int engine_threads;
  int clients;  // > 0: closed-loop serving mix with this many clients
};

constexpr WorkloadSpec kWorkloads[] = {
    {"tpch-sf1", true, 1.0, 0, 1, 0},
    {"micro-4m", false, 0, 4'000'000, 1, 0},
    {"serving-mix", true, 0.1, 0, 2, 2},
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

struct Point {
  std::string name;
  std::string family;  // micro: q1..q6; TPC-H: the query itself
  QueryPlan plan;
  // Also run under JIT-SWOLE. Every TPC-H query is; on micro-4m one point
  // per family is, because each point is its own kernel and the corpus
  // compile (~5 s of compiler time per kernel) is paid in every run.
  bool jit = true;
  QueryResult oracle;
};

struct Dataset {
  std::unique_ptr<swole::tpch::TpchData> tpch;
  std::unique_ptr<swole::MicroData> micro;

  const Catalog& catalog() const {
    return tpch != nullptr ? tpch->catalog : micro->catalog;
  }
  const char* fact_table() const { return tpch != nullptr ? "lineitem" : "r"; }
};

std::unique_ptr<Dataset> Generate(const WorkloadSpec& spec,
                                  const Options& opt) {
  auto data = std::make_unique<Dataset>();
  if (spec.tpch) {
    swole::tpch::TpchConfig config;
    config.scale_factor = spec.scale_factor;
    config.seed = opt.seed;
    data->tpch = swole::tpch::TpchData::Generate(config);
  } else {
    swole::MicroConfig config;
    config.r_rows = spec.micro_rows;
    config.seed = opt.seed;
    data->micro = swole::MicroData::Generate(config);
  }
  return data;
}

std::vector<Point> BuildPoints(const Dataset& data) {
  std::vector<Point> points;
  auto add = [&points](std::string name, std::string family, QueryPlan plan,
                        bool jit = true) {
    points.push_back(
        {std::move(name), std::move(family), std::move(plan), jit, {}});
  };
  if (data.tpch != nullptr) {
    const Catalog& catalog = data.catalog();
    std::vector<QueryPlan> plans = swole::tpch::AllQueries(catalog);
    for (QueryPlan& plan : swole::tpch::StringQueries(catalog)) {
      plans.push_back(std::move(plan));
    }
    for (QueryPlan& plan : plans) {
      std::string name = plan.name;
      std::transform(name.begin(), name.end(), name.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      add(name, name, std::move(plan));
    }
    return points;
  }
  const swole::MicroData& m = *data.micro;
  const std::string groups_1k = m.c_columns[1];
  const std::string groups_max = m.c_columns.back();
  for (int64_t sel : {1, 50, 90}) {
    const std::string s = "_s" + std::to_string(sel);
    const bool jit = sel == 50;
    add("q1_mul" + s, "q1", swole::MicroQ1(false, sel), jit);
    if (sel == 50) add("q1_div" + s, "q1", swole::MicroQ1(true, sel), false);
    add("q2_g1k" + s, "q2", swole::MicroQ2(groups_1k, m.c_actual[1], sel),
        jit);
    if (sel == 50) {
      add("q2_gmax" + s, "q2",
          swole::MicroQ2(groups_max, m.c_actual.back(), sel), false);
    }
    add("q3_both" + s, "q3", swole::MicroQ3(true, sel), jit);
    if (sel == 50) {
      add("q4_small" + s, "q4", swole::MicroQ4(false, sel, 50), false);
    }
    add("q4_large" + s, "q4", swole::MicroQ4(true, sel, 50), jit);
    add("q5_large" + s, "q5", swole::MicroQ5(true, sel, m.config.s_large_rows),
        jit);
    add("q6_large" + s, "q6", swole::MicroQ6(true, sel), jit);
  }
  return points;
}

// Plain engines serve the untraced rounds exactly as a caller would use
// them: no query context, no trace. Governed engines run
// under an explicit QueryContext per engine, which yields the per-engine
// peak memory and carries a fresh QueryTrace per traced execution.
struct Engines {
  Engines(const Catalog& catalog, int threads) {
    for (int e = 0; e < kNumInterpreted; ++e) {
      swole::StrategyOptions options;
      options.num_threads = threads;
      plain[e] = swole::MakeStrategy(kEngineKind[e], catalog, options);
      ctx[e] = std::make_unique<swole::exec::QueryContext>();
      options.query_ctx = ctx[e].get();
      governed[e] = swole::MakeStrategy(kEngineKind[e], catalog, options);
    }
  }

  std::unique_ptr<swole::Strategy> plain[kNumInterpreted];
  std::unique_ptr<swole::exec::QueryContext> ctx[kNumInterpreted];
  std::unique_ptr<swole::Strategy> governed[kNumInterpreted];
};

Result<QueryResult> Execute(Engines& engines, int engine, const Point& point,
                            const Catalog& catalog, int threads,
                            bool governed, swole::obs::QueryTrace* trace,
                            swole::codegen::ExecutionReport* report) {
  if (engine == kJit) {
    swole::codegen::GeneratorOptions gen;
    gen.strategy = StrategyKind::kSwole;
    gen.num_threads = threads;
    gen.trace = trace;
    return swole::codegen::ExecuteWithFallback(point.plan, catalog, gen, {},
                                               report);
  }
  if (!governed) return engines.plain[engine]->Execute(point.plan);
  engines.ctx[engine]->set_trace(trace);
  Result<QueryResult> result = engines.governed[engine]->Execute(point.plan);
  engines.ctx[engine]->set_trace(nullptr);
  return result;
}

// Sums the durations of the top-most build/probe/merge/extract spans.
void AddPhases(const swole::obs::QueryTrace::Span& span,
               std::array<double, kNumPhases>& ms) {
  for (int ph = 0; ph < kNumPhases; ++ph) {
    if (span.name == kPhaseName[ph]) {
      ms[ph] += static_cast<double>(span.duration_ns) / 1e6;
      return;
    }
  }
  for (const auto& child : span.children) AddPhases(*child, ms);
}

// ---- set-up ----

struct SetupTimes {
  double generate_s = 0;
  double setup_s = 0;  // generate + plans + engines
};

struct Setup {
  std::unique_ptr<Dataset> data;
  std::vector<Point> points;
  std::unique_ptr<Engines> engines;
  SetupTimes times;
};

Setup TimedSetup(const WorkloadSpec& spec, const Options& opt) {
  Setup setup;
  const Clock::time_point start = Clock::now();
  setup.data = Generate(spec, opt);
  setup.times.generate_s = Since(start);
  setup.points = BuildPoints(*setup.data);
  setup.engines =
      std::make_unique<Engines>(setup.data->catalog(), spec.engine_threads);
  setup.times.setup_s = Since(start);
  return setup;
}

double RssMiB() {
  std::ifstream statm("/proc/self/statm");
  int64_t size = 0;
  int64_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident * sysconf(_SC_PAGESIZE)) / (1 << 20);
}

double CatalogMiB(const Catalog& catalog) {
  int64_t bytes = 0;
  for (const std::string& name : catalog.TableNames()) {
    bytes += catalog.TableRef(name).ByteSize();
  }
  return static_cast<double>(bytes) / (1 << 20);
}

// Host-noise sentinel: kernels::SumMasked over the fact table's widest
// integer column with an all-ones mask, median of 25 passes.
double SeqReadGbps(const Dataset& data) {
  const swole::Table& table = data.catalog().TableRef(data.fact_table());
  const swole::Column* widest = nullptr;
  for (int i = 0; i < table.num_columns(); ++i) {
    const swole::Column& c = table.ColumnAt(i);
    if (c.type().logical == swole::LogicalType::kText) continue;
    if (widest == nullptr || c.type().physical > widest->type().physical) {
      widest = &c;
    }
  }
  const int64_t rows = widest->size();
  const std::vector<uint8_t> mask(rows, 1);
  std::vector<double> gbps;
  volatile int64_t sink = 0;
  for (int pass = 0; pass < 25; ++pass) {
    const Clock::time_point start = Clock::now();
    const int64_t bytes = swole::DispatchPhysical(
        widest->type().physical, [&]<typename T>() {
          sink = sink + swole::kernels::SumMasked(widest->Data<T>(),
                                                  mask.data(), rows);
          return rows * static_cast<int64_t>(sizeof(T) + 1);
        });
    gbps.push_back(static_cast<double>(bytes) / Since(start) / 1e9);
  }
  return Median(gbps);
}

// ---- metrics ----

enum class Kind { kEndToEnd, kLayer, kDetail };

struct Metric {
  std::string name;
  double value;
  std::string unit;
  Kind kind;
};


// Per point, per engine: untraced and traced latencies, and phase times.
struct PointSamples {
  std::vector<double> ms[kNumEngines];
  std::vector<double> traced_ms[kNumEngines];
  std::vector<double> phase_ms[kNumInterpreted][kNumPhases];
};

// ---- the paper-shape report (never gates) ----

int PaperShapeReport(const WorkloadSpec& spec, const std::vector<Point>& points,
                     const std::vector<std::array<double, kNumEngines>>& med) {
  int open = 0;
  auto line = [&open](bool pass, const std::string& figure,
                      const std::string& text) {
    if (!pass) ++open;
    std::printf("# shape %s %s: %s\n", pass ? "PASS" : "OPEN-DEFECT",
                figure.c_str(), text.c_str());
  };
  auto index_of = [&points](const std::string& name) -> int {
    for (size_t i = 0; i < points.size(); ++i) {
      if (points[i].name == name) return static_cast<int>(i);
    }
    return -1;
  };
  char buf[256];
  const std::string fig = spec.tpch ? "fig6" : "figs8-12";
  for (size_t i = 0; i < points.size(); ++i) {
    const auto& m = med[i];
    const double best = std::min({m[kDataCentric], m[kHybrid], m[kRof]});
    std::snprintf(buf, sizeof(buf),
                  "%s swole %.3f ms vs best baseline %.3f ms, regret %.3f "
                  "(expect <= 1.1)",
                  points[i].name.c_str(), m[kSwole], best, m[kSwole] / best);
    line(m[kSwole] <= 1.1 * best, fig, buf);
  }
  if (spec.tpch) {
    for (const char* q : {"q1", "q3", "q4", "q5", "q6", "q13", "q14", "q19"}) {
      const int i = index_of(q);
      if (i < 0) continue;
      std::snprintf(buf, sizeof(buf),
                    "%s hybrid %.3f ms vs data-centric %.3f ms "
                    "(paper: hybrid wins by 1.04-2.43x)",
                    q, med[i][kHybrid], med[i][kDataCentric]);
      line(med[i][kHybrid] < med[i][kDataCentric], fig, buf);
    }
    const int q4 = index_of("q4");
    if (q4 >= 0) {
      std::snprintf(buf, sizeof(buf),
                    "q4 hybrid/swole %.2fx (paper 2.63x, expect >= 1.5x)",
                    med[q4][kHybrid] / med[q4][kSwole]);
      line(med[q4][kHybrid] >= 1.5 * med[q4][kSwole], fig, buf);
    }
    return open;
  }
  const int lo = index_of("q1_mul_s1");
  const int mid = index_of("q1_mul_s50");
  const int hi = index_of("q1_mul_s90");
  if (lo >= 0 && mid >= 0 && hi >= 0) {
    std::snprintf(buf, sizeof(buf),
                  "data-centric q1 * hump: %.2f / %.2f / %.2f ms at sel "
                  "1/50/90 (expect the peak at 50)",
                  med[lo][kDataCentric], med[mid][kDataCentric],
                  med[hi][kDataCentric]);
    line(med[mid][kDataCentric] >
             std::max(med[lo][kDataCentric], med[hi][kDataCentric]),
         "fig8a", buf);
  }
  for (const char* name : {"q4_large_s50", "q4_large_s90"}) {
    const int i = index_of(name);
    if (i < 0) continue;
    const double best_hash = std::min(med[i][kDataCentric], med[i][kHybrid]);
    std::snprintf(buf, sizeof(buf),
                  "%s positional bitmaps %.2fx faster than the best hash "
                  "strategy (expect >= 2x)",
                  name, best_hash / med[i][kSwole]);
    line(best_hash >= 2 * med[i][kSwole], "fig11", buf);
  }
  const int ea_lo = index_of("q5_large_s1");
  const int ea_hi = index_of("q5_large_s90");
  if (ea_lo >= 0 && ea_hi >= 0) {
    std::snprintf(buf, sizeof(buf),
                  "eager aggregation flat: swole %.2f ms at sel 90 vs %.2f "
                  "ms at sel 1 (expect <= 1.5x)",
                  med[ea_hi][kSwole], med[ea_lo][kSwole]);
    line(med[ea_hi][kSwole] <= 1.5 * med[ea_lo][kSwole], "fig12", buf);
  }
  return open;
}

// ---- the run ----

std::string RunId(const Options& opt) {
  return opt.workload + "-seed" + std::to_string(opt.seed) + "-pid" +
         std::to_string(getpid()) + "-" +
         std::to_string(std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::system_clock::now().time_since_epoch())
                            .count());
}

void PrintJsonResult(bool correct, int64_t attempted, int64_t failed,
                     const std::vector<Metric>& metrics, Kind kind) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[128];
  for (const Metric& m : metrics) {
    if (m.kind != kind) continue;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, ",
                  first ? "" : ", ", m.name.c_str(), m.value);
    out += buf;
    out += "\"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Run(const WorkloadSpec& spec, const Options& opt) {
  const int threads = spec.engine_threads;
  SpanLog spans(RunId(opt), opt.trace);
  SpanScope run_span(spans, "run", -1, spec.name);
  std::vector<Metric> metrics;
  auto report = [&metrics](std::string name, double value, std::string unit,
                           Kind kind) {
    metrics.push_back({std::move(name), value, std::move(unit), kind});
  };

  Setup setup;
  {
    SpanScope s(spans, "setup", run_span.id());
    setup = TimedSetup(spec, opt);
  }
  const Dataset& data = *setup.data;
  std::vector<Point>& points = setup.points;
  Engines& engines = *setup.engines;
  const Catalog& catalog = data.catalog();

  // The JIT corpus is precompiled once from an empty kernel cache.
  // Plans are move-only, so the corpus gets its own copy of the points.
  std::vector<swole::codegen::CorpusEntry> corpus;
  for (Point& p : BuildPoints(data)) {
    if (!p.jit) continue;
    swole::codegen::CorpusEntry entry;
    entry.name = p.name + "/swole";
    entry.plan = std::move(p.plan);
    entry.gen.strategy = StrategyKind::kSwole;
    corpus.push_back(std::move(entry));
  }
  swole::codegen::KernelCache::Global().Clear();
  const Clock::time_point compile_start = Clock::now();
  swole::codegen::CorpusReport compiled;
  {
    SpanScope s(spans, "precompile", run_span.id());
    compiled = swole::codegen::PrecompileCorpus(corpus, catalog);
  }
  const double compile_s = Since(compile_start);
  const double rss_mib = RssMiB();
  const double seq_read_gbps = SeqReadGbps(data);
  std::printf("# simd_backend %s\n",
              swole::simd::BackendName(swole::simd::ActiveBackend()));
  std::printf("# seq_read_gbps %.4f\n", seq_read_gbps);

  // Oracle, then one checked execution of every (point, engine) pair. This
  // round warms the engines up and yields the exact counts; it is not timed.
  // (Under --trace 1 the governed instances run too, so tiles_native counts
  // both; the count-determinism self-test compares traced runs.)
  Checker checker;
  const Clock::time_point oracle_start = Clock::now();
  {
    SpanScope oracle_span(spans, "oracle", run_span.id());
    swole::ReferenceEngine reference(catalog, /*num_threads=*/4);
    for (Point& p : points) {
      SpanScope s(spans, "oracle.execute", oracle_span.id(), p.name);
      Result<QueryResult> r = reference.Execute(p.plan);
      if (!r.ok()) {
        std::fprintf(stderr, "perfbench: oracle failed on %s: %s\n",
                     p.name.c_str(), r.status().ToString().c_str());
        return 1;
      }
      p.oracle = std::move(r).value();
    }
  }
  const double reference_s = Since(oracle_start);

  swole::obs::MetricsRegistry& registry = swole::obs::MetricsRegistry::Global();
  swole::obs::Counter& tiles_native = registry.GetCounter("simd.tiles_native");
  swole::obs::Counter& morsels = registry.GetCounter("scheduler.morsels");
  swole::obs::Counter& steals = registry.GetCounter("scheduler.steals");
  swole::obs::Histogram& admission_wait =
      registry.GetHistogram("admission.wait_us");

  const int64_t tiles_before = tiles_native.value();
  int64_t jit_attempts = 0;
  int64_t jit_served = 0;
  std::vector<bool> jit_serves(points.size(), false);
  std::vector<double> visit_ms(points.size(), 0);
  {
    SpanScope check_span(spans, "check", run_span.id());
    for (size_t i = 0; i < points.size(); ++i) {
      for (int e = 0; e < kNumEngines; ++e) {
        if (e == kJit && !points[i].jit) continue;
        const std::string label = points[i].name + "/" + kEngineKey[e];
        SpanScope s(spans, "execute", check_span.id(), label);
        swole::codegen::ExecutionReport jit_report;
        const Clock::time_point start = Clock::now();
        Result<QueryResult> r = Execute(engines, e, points[i], catalog,
                                        threads, false, nullptr, &jit_report);
        visit_ms[i] += Since(start) * 1e3;
        checker.Check(r, points[i].oracle, label);
        if (opt.trace && e != kJit) {
          // The traced rounds' engine instances need their warm-up too.
          checker.Check(Execute(engines, e, points[i], catalog, threads, true,
                                nullptr, nullptr),
                        points[i].oracle, label + "/governed");
        }
        if (e == kJit) {
          ++jit_attempts;
          jit_served += jit_report.used_jit ? 1 : 0;
          jit_serves[i] = jit_report.used_jit;
        }
      }
    }
  }
  const int64_t tiles = tiles_native.value() - tiles_before;

  // In the sweeps a round visits each point `reps` times, so that a point
  // whose engines all finish in a few ms gets more samples than one round
  // of the slowest points would give it. Serving solo rounds stay single.
  constexpr double kVisitTargetMs = 150;
  constexpr int kMaxReps = 8;
  std::vector<int> reps(points.size(), 1);
  for (size_t i = 0; i < points.size() && spec.clients == 0; ++i) {
    reps[i] = std::clamp(static_cast<int>(kVisitTargetMs / visit_ms[i]), 1,
                         kMaxReps);
  }

  // Timed phase.
  std::vector<PointSamples> samples(points.size());
  std::vector<double> pooled_ms;  // every serving-mix latency
  std::vector<std::vector<double>> mix_ms(points.size());
  double mix_s = 0;  // wall time of the serving waves
  int64_t timed_queries = 0;
  const int64_t morsels_before = morsels.value();
  const int64_t steals_before = steals.value();
  const int64_t wait_count_before = admission_wait.count();
  const int64_t wait_sum_before = admission_wait.sum();

  const size_t n = points.size();
  auto run_one = [&](size_t i, int e, bool traced, int64_t parent) {
    const std::string label = points[i].name + "/" + kEngineKey[e];
    swole::obs::QueryTrace trace;
    SpanScope s(spans, traced ? "execute.traced" : "execute", parent, label);
    const Clock::time_point start = Clock::now();
    Result<QueryResult> r = Execute(engines, e, points[i], catalog, threads,
                                    traced, traced ? &trace : nullptr, nullptr);
    const double ms = Since(start) * 1e3;
    ++timed_queries;
    checker.Check(r, points[i].oracle, label);
    if (traced) {
      samples[i].traced_ms[e].push_back(ms);
      if (e < kNumInterpreted) {
        std::array<double, kNumPhases> phase{};
        AddPhases(*trace.root(), phase);
        for (int ph = 0; ph < kNumPhases; ++ph) {
          samples[i].phase_ms[e][ph].push_back(phase[ph]);
        }
      }
      return;
    }
    samples[i].ms[e].push_back(ms);
  };
  // One solo round: every point under every engine, both orders rotated.
  // Returns false when the deadline stopped it.
  auto solo_round = [&](int round, bool traced, int64_t parent,
                        Clock::time_point deadline, int min_rounds) {
    for (size_t k = 0; k < n; ++k) {
      if (round >= min_rounds && Clock::now() >= deadline) return false;
      const size_t i = (k + round) % n;
      for (int r = 0; r < reps[i]; ++r) {
        for (int j = 0; j < kNumEngines; ++j) {
          const int e = (j + round + r) % kNumEngines;
          if (e == kJit && !points[i].jit) continue;
          run_one(i, e, traced, parent);
        }
      }
    }
    return true;
  };

  // The traced run alternates untraced and traced rounds, so the trace
  // overhead is measured against interleaved untraced rounds.
  const int min_rounds = opt.trace ? 2 : 1;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  {
    SpanScope measure_span(spans, "measure", run_span.id());
    for (int round = 0;; ++round) {
      const bool traced = opt.trace && round % 2 == 1;
      if (spec.clients > 0) {
        if (round >= min_rounds && Clock::now() >= deadline) break;
        // A serving wave: the clients share the plain SWOLE engine, each
        // sending its next query only after the previous reply.
        SpanScope wave_span(spans, "wave", measure_span.id());
        constexpr double kWaveSeconds = 0.6;
        const Clock::time_point wave_start = Clock::now();
        const Clock::time_point wave_end =
            wave_start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(kWaveSeconds));
        std::vector<std::vector<std::pair<size_t, double>>> got(spec.clients);
        std::vector<std::thread> clients;
        for (int c = 0; c < spec.clients; ++c) {
          clients.emplace_back([&, c] {
            swole::Strategy& shared = *engines.plain[kSwole];
            for (size_t q = c * n / spec.clients; Clock::now() < wave_end;
                 ++q) {
              const size_t i = q % n;
              const std::string label = points[i].name + "/mix";
              SpanScope s(spans, "execute.mix", wave_span.id(), label);
              const Clock::time_point start = Clock::now();
              Result<QueryResult> r = shared.Execute(points[i].plan);
              got[c].emplace_back(i, Since(start) * 1e3);
              checker.Check(r, points[i].oracle, label);
            }
          });
        }
        for (std::thread& t : clients) t.join();
        mix_s += Since(wave_start);
        for (const auto& client : got) {
          for (const auto& [i, ms] : client) {
            mix_ms[i].push_back(ms);
            pooled_ms.push_back(ms);
          }
        }
        SpanScope solo_span(spans, "solo", measure_span.id());
        solo_round(round, traced, solo_span.id(), deadline, round + 1);
        continue;
      }
      SpanScope round_span(spans, traced ? "round.traced" : "round",
                           measure_span.id());
      if (!solo_round(round, traced, round_span.id(), deadline, min_rounds)) {
        break;
      }
    }
  }
  timed_queries += static_cast<int64_t>(pooled_ms.size());

  // ---- end-to-end metrics ----
  std::vector<std::array<double, kNumEngines>> med(n);
  for (size_t i = 0; i < n; ++i) {
    for (int e = 0; e < kNumEngines; ++e) med[i][e] = Median(samples[i].ms[e]);
  }
  auto engine_geomean = [&](int e) {
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i) {
      if (e != kJit || points[i].jit) v.push_back(med[i][e]);
    }
    return GeoMean(v);
  };
  for (int e : {kSwole, kHybrid, kRof, kDataCentric, kJit}) {
    report(std::string(kEngineKey[e]) + "_ms", engine_geomean(e), "ms",
           Kind::kEndToEnd);
  }
  // The serving mix pools every latency its clients saw. A single-client
  // sweep weights each (point, engine) pair equally instead: its latency
  // percentiles and throughput are taken over the per-pair medians, so a
  // partial last round cannot shift the weights of the pooled samples.
  double qps = static_cast<double>(pooled_ms.size()) / mix_s;
  if (spec.clients == 0) {
    for (size_t i = 0; i < n; ++i) {
      for (int e = 0; e < kNumEngines; ++e) {
        if (e != kJit || points[i].jit) pooled_ms.push_back(med[i][e]);
      }
    }
    double total_ms = 0;
    for (double ms : pooled_ms) total_ms += ms;
    qps = 1e3 * static_cast<double>(pooled_ms.size()) / total_ms;
  }
  report("qps", qps, "1/s", Kind::kEndToEnd);
  report("latency_ms_p50", Quantile(pooled_ms, 0.50), "ms",
         Kind::kEndToEnd);
  report("latency_ms_p99", Quantile(pooled_ms, 0.99), "ms",
         Kind::kEndToEnd);
  report("setup_s", setup.times.setup_s + compile_s, "s", Kind::kEndToEnd);
  report("rss_mb", rss_mib, "MiB", Kind::kEndToEnd);
  const double error_rate = static_cast<double>(checker.failed()) /
                            static_cast<double>(checker.attempted());
  report("error_rate", error_rate, "ratio", Kind::kDetail);
  report("latency_samples", static_cast<double>(pooled_ms.size()), "count",
         Kind::kDetail);

  // ---- per-layer metrics ----
  report("datagen.generate_s", setup.times.generate_s, "s", Kind::kLayer);
  report(std::string(spec.tpch ? "tpch" : "micro") + ".generate_s",
         setup.times.generate_s, "s", Kind::kDetail);
  report("storage.catalog_mb", CatalogMiB(catalog), "MiB", Kind::kLayer);
  report("engine.reference_s", reference_s, "s", Kind::kLayer);
  std::vector<double> regrets;
  int64_t mispicks = 0;
  for (size_t i = 0; i < n; ++i) {
    const double best =
        std::min({med[i][kDataCentric], med[i][kHybrid], med[i][kRof]});
    regrets.push_back(med[i][kSwole] / best);
    mispicks += med[i][kSwole] > 1.1 * best ? 1 : 0;
  }
  report("cost.regret", GeoMean(regrets), "ratio", Kind::kLayer);
  report("cost.mispicks", static_cast<double>(mispicks), "count",
         Kind::kLayer);
  report("codegen.compile_s", compile_s, "s", Kind::kLayer);
  report("codegen.kernels_compiled", static_cast<double>(compiled.compiled),
         "count", Kind::kLayer);
  report("codegen.jit_served_frac",
         static_cast<double>(jit_served) / static_cast<double>(jit_attempts),
         "ratio", Kind::kLayer);
  // Only where the JIT falls back (not on micro-4m), so a report line.
  std::vector<double> fallback_extra;
  for (size_t i = 0; i < n; ++i) {
    if (points[i].jit && !jit_serves[i]) {
      fallback_extra.push_back(med[i][kJit] - med[i][kSwole]);
    }
  }
  if (!fallback_extra.empty()) {
    double sum = 0;
    for (double x : fallback_extra) sum += x;
    report("codegen.fallback_ms", sum / fallback_extra.size(), "ms",
           Kind::kDetail);
  }
  report("exec.scheduler.morsels",
         static_cast<double>(morsels.value() - morsels_before) /
             static_cast<double>(timed_queries),
         "1/query", Kind::kLayer);
  report("exec.scheduler.steals",
         static_cast<double>(steals.value() - steals_before) /
             static_cast<double>(timed_queries),
         "1/query", Kind::kLayer);
  // admission.wait_us records only queued queries, and nothing queues
  // while admission is uncapped (the default, and the benchmark refuses
  // every SWOLE_* knob), so both are report lines, not JSON metrics.
  const int64_t waits = admission_wait.count() - wait_count_before;
  report("exec.admission.queued", static_cast<double>(waits), "count",
         Kind::kDetail);
  if (waits > 0) {
    report("exec.admission.wait_us_mean",
           static_cast<double>(admission_wait.sum() - wait_sum_before) /
               static_cast<double>(waits),
           "us", Kind::kDetail);
  }
  report("exec.simd.tiles_native", static_cast<double>(tiles), "count",
         Kind::kLayer);
  report("exec.seq_read_gbps", seq_read_gbps, "GB/s", Kind::kLayer);
  if (opt.trace) {
    for (int e = 0; e < kNumInterpreted; ++e) {
      const std::string prefix = std::string("strategies.") + kEngineKey[e];
      for (int ph = 0; ph < kNumPhases; ++ph) {
        double sum = 0;
        for (size_t i = 0; i < n; ++i) {
          sum += Median(samples[i].phase_ms[e][ph]);
        }
        report(prefix + "." + kPhaseName[ph] + "_ms", sum, "ms", Kind::kLayer);
      }
      report(std::string("exec.") + kEngineKey[e] + ".query_peak_mb",
             static_cast<double>(engines.ctx[e]->peak_bytes()) / (1 << 20),
             "MiB", Kind::kLayer);
    }
    std::vector<double> traced_swole;
    for (size_t i = 0; i < n; ++i) {
      traced_swole.push_back(Median(samples[i].traced_ms[kSwole]));
    }
    report("obs.trace_overhead_pct",
           (GeoMean(traced_swole) / engine_geomean(kSwole) - 1) * 100, "%",
           Kind::kLayer);
  }

  // ---- per-point and per-family detail ----
  std::map<std::string, std::vector<size_t>> families;
  for (size_t i = 0; i < n; ++i) families[points[i].family].push_back(i);
  for (int e = 0; e < kNumEngines; ++e) {
    for (const auto& [family, members] : families) {
      std::vector<double> v;
      for (size_t i : members) {
        if (e != kJit || points[i].jit) v.push_back(med[i][e]);
      }
      const std::string prefix =
          e == kJit ? "codegen.jit."
                    : std::string("strategies.") + kEngineKey[e] + ".";
      if (!v.empty()) {
        report(prefix + family + "_ms", GeoMean(v), "ms", Kind::kDetail);
      }
    }
  }
  if (!spec.tpch) {
    for (size_t i = 0; i < n; ++i) {
      for (int e = 0; e < kNumEngines; ++e) {
        if (e == kJit && !points[i].jit) continue;
        report("point." + points[i].name + "." + kEngineKey[e] + "_ms",
               med[i][e], "ms", Kind::kDetail);
      }
    }
  }
  if (spec.clients > 0) {
    std::vector<double> slowdown;
    for (size_t i = 0; i < n; ++i) {
      slowdown.push_back(Median(mix_ms[i]) / med[i][kSwole]);
      report("exec.serving_slowdown." + points[i].name, slowdown.back(),
             "ratio", Kind::kDetail);
    }
    report("exec.serving_slowdown", GeoMean(slowdown), "ratio",
           Kind::kDetail);
  }
  report("paper_shape.open_defects",
         PaperShapeReport(spec, points, med), "count", Kind::kDetail);

  for (const Metric& m : metrics) {
    std::printf("# metric %s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("# corpus %s\n", compiled.ToString().c_str());
  for (const std::string& f : checker.FailureSamples()) {
    std::printf("# failure %s\n", f.c_str());
  }
  run_span.Close();  // self times need the run span ended
  if (opt.trace) {
    for (const SpanLog::SelfTime& row : spans.SelfTimes()) {
      std::printf("# self_time %s count=%lld total_ms=%.3f self_ms=%.3f\n",
                  row.name.c_str(), static_cast<long long>(row.count),
                  row.total_ms, row.self_ms);
    }
    if (!opt.spans_out.empty() && !spans.WriteJsonLines(opt.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.spans_out.c_str());
    }
  }
  const bool correct = checker.failed() == 0;
  PrintJsonResult(correct, checker.attempted(), checker.failed(), metrics,
                  opt.trace ? Kind::kLayer : Kind::kEndToEnd);
  return correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <tpch-sf1|micro-4m|serving-mix> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Every SWOLE_* variable changes the program under test.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "SWOLE_", 6) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *env);
      return 2;
    }
  }
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") return RunCheckerSelfTest() == 0 ? 0 : 1;
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--spans-out") {
      opt.spans_out = value;
    } else {
      return Usage();
    }
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    if (opt.workload == spec.name) return Run(spec, opt);
  }
  return Usage();
}
