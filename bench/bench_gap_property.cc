// E5 — Theorem 5.1 / Section 5.1: the gap property fails under negation.
//
//   BM_GapValueMagnitude/<n>  builds the gap family D_n and evaluates the
//                             distinguished fact's exact Shapley value
//                             n!n!/(2n+1)!, verified by brute force at
//                             small n.
//
// Counters (the approx gate of tools/check_bench.py holds them):
//   log2_value   log2 of the exact value; the gap property FAILING means
//                this falls below -n (nonzero but exponentially small, so
//                an additive FPRAS cannot double as a multiplicative one —
//                contrast with positive CQs, where nonzero values are
//                >= 1/poly)
//   neg_n        -n, the bound log2_value must sit under
//   endo_facts   |D_n| (endogenous facts of the family instance)
//   brute_match  1 when brute force reproduces n!n!/(2n+1)! (n <= 4),
//                -1 where brute force is out of reach

#include <benchmark/benchmark.h>

#include <cmath>

#include "core/brute_force.h"
#include "reductions/gap.h"
#include "util/check.h"

namespace {

using namespace shapcq;

void BM_GapValueMagnitude(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const CQ q = GapQuery();

  size_t endo_facts = 0;
  double value = 0.0;
  for (auto _ : state) {
    GapInstance gap = BuildGapFamily(n);
    const Rational exact = GapTheoreticalShapley(n);
    endo_facts = gap.db.endogenous_count();
    value = exact.ToDouble();
    benchmark::DoNotOptimize(value);
  }

  double brute_match = -1.0;
  if (n <= 4) {
    GapInstance gap = BuildGapFamily(n);
    brute_match =
        ShapleyBruteForce(q, gap.db, gap.f) == GapTheoreticalShapley(n)
            ? 1.0
            : 0.0;
  }
  state.counters["log2_value"] = std::log2(value);
  state.counters["neg_n"] = static_cast<double>(-n);
  state.counters["endo_facts"] = static_cast<double>(endo_facts);
  state.counters["brute_match"] = brute_match;
}
BENCHMARK(BM_GapValueMagnitude)->Arg(2)->Arg(4)->Arg(8)->Arg(12);

}  // namespace

BENCHMARK_MAIN();
