// All-facts exact Shapley: the single-pass ShapleyEngine against the
// per-fact CntSat loop it replaces. The engine builds the matched-fact index
// and the recursion once and evaluates every orbit representative from one
// shared top-down sweep, so the gap widens with |Dn|; the per-fact loop
// re-runs the whole recursion twice per fact.
//
// Arg = students in the q1-shaped scaling database (endo = 3s + ceil(s/2)):
// s = 20 crosses the endo >= 64 threshold tracked in BENCH_shapley.json.
// BM_EngineAllFactsParallel adds a thread-count axis ({students, threads})
// over the same workload; serial-vs-parallel speedups land in the same JSON.
// BM_ReportAssemble and BM_ReportRender time the report layer above the
// engine at endo 70/112/224: the ranked table, then its text.

#include <benchmark/benchmark.h>

#include "core/report.h"
#include "core/shapley.h"
#include "core/shapley_engine.h"
#include "datasets/synthetic.h"
#include "datasets/university.h"

namespace {

using namespace shapcq;

void BM_EngineAllFacts(benchmark::State& state) {
  // The arena's all-facts value sweep (engine_arena.h). Build is kept out of
  // the timed region (BM_EngineBuildOnly tracks it in this same JSON), so
  // the row measures the value computation alone. Compared against
  // BM_PerFactCountSatLoop below; the arena gate of tools/check_bench.py
  // holds that ratio at the endo >= 70 sizes.
  const CQ q = UniversityQ1();
  const Database db =
      BuildStudentScalingDb(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    state.PauseTiming();
    ShapleyEngine engine = std::move(ShapleyEngine::Build(q, db)).value();
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.AllValues());
  }
  state.SetLabel("endo=" + std::to_string(db.endogenous_count()));
}
// 56 students are endo 196, near a serverbench session's 206, where the
// largest weight k!(n−1−k)! runs to ~1,200 bits.
BENCHMARK(BM_EngineAllFacts)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(20)
    ->Arg(32)
    ->Arg(56);

void BM_PerFactCountSatLoop(benchmark::State& state) {
  // The pre-engine ShapleyAllViaCountSat: one ShapleyViaCountSat call (two
  // full CntSat runs over copied databases) per endogenous fact.
  const CQ q = UniversityQ1();
  const Database db =
      BuildStudentScalingDb(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    std::vector<Rational> values;
    values.reserve(db.endogenous_count());
    for (FactId f : db.endogenous_facts()) {
      values.push_back(ShapleyViaCountSat(q, db, f).value());
    }
    benchmark::DoNotOptimize(values);
  }
  state.SetLabel("endo=" + std::to_string(db.endogenous_count()));
}
BENCHMARK(BM_PerFactCountSatLoop)->Arg(4)->Arg(8)->Arg(16)->Arg(20)->Arg(32);

void BM_EngineAllFactsParallel(benchmark::State& state) {
  // The worker-pool path: args = {students, threads}. threads=1 runs the
  // same level sweep inline on the caller, so the t=1 rows double as the
  // baseline for the per-thread speedup curve BENCH_shapley.json records.
  // Output is bit-identical across the thread axis (asserted by the
  // determinism tests); only wall-clock should move.
  const CQ q = UniversityQ1();
  const Database db =
      BuildStudentScalingDb(static_cast<int>(state.range(0)), 3);
  ParallelOptions options;
  options.num_threads = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    // Build is identical serial work at every thread count — keep it out of
    // the timed region so the rows measure the value-computation speedup,
    // not (Build + values) / (Build + values/t). Engine destruction stays
    // timed (cheap relative to AllValues).
    state.PauseTiming();
    ShapleyEngine engine = std::move(ShapleyEngine::Build(q, db)).value();
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.AllValues(options));
  }
  state.SetLabel("endo=" + std::to_string(db.endogenous_count()) +
                 " threads=" + std::to_string(options.num_threads));
}
BENCHMARK(BM_EngineAllFactsParallel)
    ->Args({20, 1})
    ->Args({20, 2})
    ->Args({20, 4})
    ->Args({20, 8})
    ->Args({32, 1})
    ->Args({32, 2})
    ->Args({32, 4})
    ->Args({32, 8});

void BM_EngineBuildOnly(benchmark::State& state) {
  // The shared index + the arena-resident recursion, without any value
  // queries: the fixed cost one baseline CntSat-equivalent pass pays.
  const CQ q = UniversityQ1();
  const Database db =
      BuildStudentScalingDb(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ShapleyEngine::Build(q, db).value());
  }
  state.SetLabel("endo=" + std::to_string(db.endogenous_count()));
}
BENCHMARK(BM_EngineBuildOnly)->Arg(8)->Arg(20)->Arg(32);

void BM_ReportAssemble(benchmark::State& state) {
  // Report assembly alone: BuildAttributionReportFromEngine on an engine
  // whose per-orbit memo is already warm, so the row times the efficiency
  // total, the ranking and the row copies of the full table, not the sweep.
  const CQ q = UniversityQ1();
  const Database db =
      BuildStudentScalingDb(static_cast<int>(state.range(0)), 3);
  ShapleyEngine engine = std::move(ShapleyEngine::Build(q, db)).value();
  engine.AllValues();
  const ReportOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildAttributionReportFromEngine(engine, db, options));
  }
  state.SetLabel("endo=" + std::to_string(db.endogenous_count()));
}
BENCHMARK(BM_ReportAssemble)->Arg(20)->Arg(32)->Arg(64);

void BM_ReportRender(benchmark::State& state) {
  // RenderReport of the warm full table BM_ReportAssemble builds: the text
  // a top_k=0 REPORT sends, one row per endogenous fact.
  const CQ q = UniversityQ1();
  const Database db =
      BuildStudentScalingDb(static_cast<int>(state.range(0)), 3);
  ShapleyEngine engine = std::move(ShapleyEngine::Build(q, db)).value();
  const AttributionReport report =
      BuildAttributionReportFromEngine(engine, db, ReportOptions{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(RenderReport(report, db));
  }
  state.SetLabel("endo=" + std::to_string(db.endogenous_count()));
}
BENCHMARK(BM_ReportRender)->Arg(20)->Arg(32)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
