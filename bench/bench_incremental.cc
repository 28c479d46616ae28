// Incremental maintenance vs rebuild: a single-fact delta on the memoized
// ShapleyEngine tree patches one root-to-leaf path, while the non-
// incremental alternative re-runs Build() over the whole database. Both
// benchmarks apply the same delete + re-insert pair per iteration, so
// time-per-iteration is directly comparable: the patch/rebuild ratio is the
// speedup the long-lived service mode buys (target >=10x at endo >= 70,
// i.e. students >= 20; the incremental gate of tools/check_bench.py holds
// the ratio at <= 0.5).
//
// Arg = students in the q1-shaped scaling database (endo = 3s + ceil(s/2)).

#include <benchmark/benchmark.h>

#include <string>

#include "core/shapley_engine.h"
#include "datasets/synthetic.h"
#include "datasets/university.h"

namespace {

using namespace shapcq;

// The mutated fact: the last endogenous fact (a Reg registration), captured
// as a literal so it can be re-inserted after every delete.
struct DeltaTarget {
  std::string relation;
  Tuple tuple;
  bool endogenous;
};

DeltaTarget TargetOf(const Database& db) {
  const FactId fact = db.endogenous_facts().back();
  return DeltaTarget{db.schema().name(db.relation_of(fact)),
                     db.tuple_of(fact), db.is_endogenous(fact)};
}

void BM_IncrementalDelta(benchmark::State& state) {
  const CQ q = UniversityQ1();
  Database db = BuildStudentScalingDb(static_cast<int>(state.range(0)), 3);
  const DeltaTarget target = TargetOf(db);
  ShapleyEngine engine = std::move(ShapleyEngine::Build(q, db)).value();
  FactId current = db.endogenous_facts().back();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.DeleteFact(db, current));
    auto inserted =
        engine.InsertFact(db, target.relation, target.tuple,
                          target.endogenous);
    current = inserted.value();
    benchmark::DoNotOptimize(current);
  }
  state.SetLabel("endo=" + std::to_string(db.endogenous_count()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_IncrementalDelta)->Arg(4)->Arg(8)->Arg(16)->Arg(20)->Arg(32);

void BM_RebuildPerDelta(benchmark::State& state) {
  // What a build-once engine must do instead: one full Build() per delta.
  const CQ q = UniversityQ1();
  Database db = BuildStudentScalingDb(static_cast<int>(state.range(0)), 3);
  const DeltaTarget target = TargetOf(db);
  FactId current = db.endogenous_facts().back();
  for (auto _ : state) {
    db.RemoveFact(current);
    benchmark::DoNotOptimize(ShapleyEngine::Build(q, db).value());
    current = db.AddFact(target.relation, target.tuple, target.endogenous);
    benchmark::DoNotOptimize(ShapleyEngine::Build(q, db).value());
  }
  state.SetLabel("endo=" + std::to_string(db.endogenous_count()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_RebuildPerDelta)->Arg(4)->Arg(8)->Arg(16)->Arg(20)->Arg(32);

void BM_IncrementalDeltaThenAllValues(benchmark::State& state) {
  // The full service round-trip: patch a delta pair, then refresh the whole
  // ranked table (every orbit re-evaluated over the patched tree).
  const CQ q = UniversityQ1();
  Database db = BuildStudentScalingDb(static_cast<int>(state.range(0)), 3);
  const DeltaTarget target = TargetOf(db);
  ShapleyEngine engine = std::move(ShapleyEngine::Build(q, db)).value();
  FactId current = db.endogenous_facts().back();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.DeleteFact(db, current));
    current = engine
                  .InsertFact(db, target.relation, target.tuple,
                              target.endogenous)
                  .value();
    benchmark::DoNotOptimize(engine.AllValues());
  }
  state.SetLabel("endo=" + std::to_string(db.endogenous_count()));
}
BENCHMARK(BM_IncrementalDeltaThenAllValues)->Arg(8)->Arg(20);

}  // namespace

BENCHMARK_MAIN();
