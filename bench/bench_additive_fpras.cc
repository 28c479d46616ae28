// E6 — the additive FPRAS (Section 5.1) as served by the sampling tier
// (core/approx_engine.h), against ground truth on the running example.
//
//   BM_ApproxCiWidth/<m>        accuracy at a per-orbit sample budget m on
//                               the NON-hierarchical q2 (the query the
//                               exact engines refuse): per-fact estimates
//                               vs brute-force exact values.
//   BM_ApproxSamplesPerSec/<t>  sampling throughput at t worker threads
//                               (permutation draws + memoized oracle).
//
// Counters (the approx gate of tools/check_bench.py holds them):
//   ci_max            widest reported confidence radius across facts
//   abs_err_max       largest |estimate - exact| across facts
//   cover_margin_min  min over facts of (ci - |error|); >= 0 means every
//                     exact value sits inside its reported interval
//   samples_per_orbit the budget the run actually used
//   samples_per_sec   permutation samples per wall-clock second
//   eval_calls        oracle evaluations: coalitions the engine's memo had
//                     not answered yet (q2 has 8 players, so at most 256
//                     per run at one thread)
//
// Fixed seed + the engine's deterministic reduction make the accuracy rows
// reproducible: the gate checks a fixed outcome, not a probabilistic one.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "core/approx_engine.h"
#include "core/brute_force.h"
#include "datasets/university.h"
#include "util/check.h"

namespace {

using namespace shapcq;

// Brute-force ground truth for q2 on the Figure 1 database, indexed by
// endo index (8 endogenous facts — exact in milliseconds, FP^#P-hard only
// asymptotically).
std::vector<double> ExactQ2Values(const CQ& q2, const Database& db) {
  std::vector<double> exact(db.endogenous_count());
  for (FactId f : db.endogenous_facts()) {
    exact[db.endo_index(f)] = ShapleyBruteForce(q2, db, f).ToDouble();
  }
  return exact;
}

void BM_ApproxCiWidth(benchmark::State& state) {
  UniversityDb u = BuildUniversityDb();
  const CQ q2 = UniversityQ2();
  const std::vector<double> exact = ExactQ2Values(q2, u.db);

  ApproxSpec spec;
  spec.epsilon = 0.01;  // Hoeffding count far above every budget below,
  spec.delta = 0.05;    // so max_samples sets the per-orbit budget exactly
  spec.seed = 42;
  spec.max_samples = static_cast<size_t>(state.range(0));

  std::vector<ApproxRow> rows;
  ApproxRunInfo info;
  for (auto _ : state) {
    auto engine = ApproxEngine::Create(q2, u.db, {});
    SHAPCQ_CHECK(engine.ok());
    ApproxEngine approx = std::move(engine).value();
    auto estimated = approx.EstimateAll(spec, /*num_threads=*/1);
    SHAPCQ_CHECK(estimated.ok());
    rows = std::move(estimated).value();
    info = approx.info();
    benchmark::DoNotOptimize(rows.data());
  }

  double ci_max = 0.0, abs_err_max = 0.0;
  double cover_margin_min = 1.0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const double error = std::fabs(rows[i].estimate.ToDouble() - exact[i]);
    ci_max = std::max(ci_max, rows[i].ci_radius);
    abs_err_max = std::max(abs_err_max, error);
    cover_margin_min = std::min(cover_margin_min, rows[i].ci_radius - error);
  }
  state.counters["ci_max"] = ci_max;
  state.counters["abs_err_max"] = abs_err_max;
  state.counters["cover_margin_min"] = cover_margin_min;
  state.counters["samples_per_orbit"] =
      static_cast<double>(info.samples_per_orbit);
  state.counters["orbits"] = static_cast<double>(info.sampled_orbits);
}
BENCHMARK(BM_ApproxCiWidth)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_ApproxSamplesPerSec(benchmark::State& state) {
  UniversityDb u = BuildUniversityDb();
  const CQ q2 = UniversityQ2();

  ApproxSpec spec;
  spec.epsilon = 0.01;
  spec.delta = 0.05;
  spec.seed = 7;
  spec.max_samples = 4096;
  const size_t threads = static_cast<size_t>(state.range(0));

  size_t samples_total = 0, eval_calls = 0, cache_hits = 0;
  for (auto _ : state) {
    auto engine = ApproxEngine::Create(q2, u.db, {});
    SHAPCQ_CHECK(engine.ok());
    ApproxEngine approx = std::move(engine).value();
    auto estimated = approx.EstimateAll(spec, threads);
    SHAPCQ_CHECK(estimated.ok());
    benchmark::DoNotOptimize(estimated.value().data());
    samples_total += approx.info().samples_total;
    eval_calls += approx.info().eval_calls;
    cache_hits += approx.info().cache_hits;
  }
  state.counters["samples_per_sec"] = benchmark::Counter(
      static_cast<double>(samples_total), benchmark::Counter::kIsRate);
  state.counters["eval_calls"] =
      static_cast<double>(eval_calls) / state.iterations();
  state.counters["cache_hits"] =
      static_cast<double>(cache_hits) / state.iterations();
}
BENCHMARK(BM_ApproxSamplesPerSec)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
