// Prints the code each strategy generates for the paper's running example
// (Fig. 1 / Fig. 3): `select sum(r_a * r_b) from R where r_x < 13 and
// r_y = 1` — then JIT-compiles each variant and runs it to show they all
// produce the same answer.
//
//   $ ./build/examples/codegen_inspect

#include <cstdio>

#include "codegen/corpus.h"
#include "codegen/generator.h"
#include "codegen/jit.h"
#include "micro/micro.h"
#include "storage/table.h"

using namespace swole;

int main() {
  MicroConfig config;
  config.r_rows = 100'000;
  config.s_small_rows = 100;
  config.s_large_rows = 1000;
  auto data = MicroData::Generate(config);

  // SWOLE_WARM_CORPUS=auto pre-compiles the registered kernel corpus
  // before any query runs; later compiles of those keys are served from
  // the warm cache (jit.corpus.* in the shutdown metrics).
  codegen::CorpusReport warm = codegen::WarmCorpusFromEnv(data->catalog);
  if (warm.entries > 0) {
    std::printf("warm corpus: %s\n\n", warm.ToString().c_str());
  }

  QueryPlan plan = MicroQ1(/*division=*/false, /*sel=*/13);

  struct Variant {
    const char* title;
    codegen::GeneratorOptions options;
  };
  Variant variants[3];
  variants[0].title = "data-centric (Fig. 1 top)";
  variants[0].options.strategy = StrategyKind::kDataCentric;
  variants[1].title = "hybrid (Fig. 1 middle)";
  variants[1].options.strategy = StrategyKind::kHybrid;
  variants[2].title = "SWOLE value masking (Fig. 3)";
  variants[2].options.strategy = StrategyKind::kSwole;
  variants[2].options.agg_choice = AggChoice::kValueMasking;

  for (const Variant& variant : variants) {
    std::printf("==== %s ====\n", variant.title);
    Result<codegen::GeneratedKernel> kernel =
        codegen::GenerateKernel(plan, data->catalog, variant.options);
    kernel.status().CheckOK();
    std::printf("%s\n", kernel->source.c_str());

    // ExecuteWithFallback survives a broken toolchain: try e.g.
    //   SWOLE_FAULT=jit_compile:1.0 ./build/examples/codegen_inspect
    // and the interpreted engine serves the same answer.
    QueryPlan run_plan = MicroQ1(false, 13);
    codegen::ExecutionReport report;
    QueryResult result =
        codegen::ExecuteWithFallback(run_plan, data->catalog,
                                     variant.options, {}, &report)
            .value();
    std::printf("--> %s: sum = %lld\n\n",
                report.used_jit ? "compiled & executed"
                                : "compile failed, executed interpreted",
                static_cast<long long>(result.scalar[0]));
  }
  return 0;
}
