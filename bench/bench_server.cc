// Serving-layer benchmarks: what a resident incremental engine buys over a
// per-request rebuild, measured through the EngineRegistry (the exact path
// the shapcq_server command loop takes).
//
//   BM_ServerWarmReport  resident engine, no intervening deltas: a report is
//                        memo-backed ranking (the steady-state hit path).
//   BM_ServerColdReport  1-byte budget: every report readmits an evicted
//                        session, i.e. a full Build + evaluation per request
//                        (the thrashing floor the LRU budget protects from).
//   BM_ServerDeltaReport resident engine, one delete+insert delta pair then
//                        a report (the mixed update/query workload).
//
// The server gate of tools/check_bench.py holds cold >= 5x warm on the
// recorded JSON.
// Arg = students in the q1-shaped scaling database (endo = 3s + ceil(s/2)).

#include <benchmark/benchmark.h>

#include <string>

#include "datasets/synthetic.h"
#include "datasets/university.h"
#include "service/engine_registry.h"

namespace {

using namespace shapcq;

// Opens a session for the q1 scaling database and replays its facts.
void LoadScalingSession(EngineRegistry* registry, const std::string& id,
                        const Database& db) {
  auto opened = registry->Open(id, UniversityQ1());
  SHAPCQ_CHECK_MSG(opened.ok(), opened.error().c_str());
  for (size_t slot = 0; slot < db.fact_slot_count(); ++slot) {
    const FactId fact = static_cast<FactId>(slot);
    MutationSpec mutation;
    mutation.op = MutationSpec::Op::kInsert;
    mutation.fact.relation = db.schema().name(db.relation_of(fact));
    mutation.fact.tuple = db.tuple_of(fact);
    mutation.fact.endogenous = db.is_endogenous(fact);
    auto applied = registry->ApplyMutation(id, mutation);
    SHAPCQ_CHECK_MSG(applied.ok(), applied.error().c_str());
  }
}

void BM_ServerWarmReport(benchmark::State& state) {
  const Database db = BuildStudentScalingDb(static_cast<int>(state.range(0)),
                                            3);
  EngineRegistry registry;
  LoadScalingSession(&registry, "s", db);
  // Warm the engine (first report is the one build this benchmark ever pays).
  benchmark::DoNotOptimize(registry.Report("s", ReportOptions{}));
  for (auto _ : state) {
    auto report = registry.Report("s", ReportOptions{});
    benchmark::DoNotOptimize(report);
  }
  const size_t endo = registry.FindDatabase("s")->endogenous_count();
  state.SetLabel("endo=" + std::to_string(endo));
}
BENCHMARK(BM_ServerWarmReport)->Arg(8)->Arg(20);

void BM_ServerColdReport(benchmark::State& state) {
  const Database db = BuildStudentScalingDb(static_cast<int>(state.range(0)),
                                            3);
  RegistryOptions options;
  options.engine_byte_budget = 1;  // always over budget: rebuild per request
  EngineRegistry registry(options);
  LoadScalingSession(&registry, "s", db);
  for (auto _ : state) {
    auto report = registry.Report("s", ReportOptions{});
    benchmark::DoNotOptimize(report);
  }
  const size_t endo = registry.FindDatabase("s")->endogenous_count();
  state.SetLabel("endo=" + std::to_string(endo));
}
BENCHMARK(BM_ServerColdReport)->Arg(8)->Arg(20);

void BM_ServerDeltaReport(benchmark::State& state) {
  const Database db = BuildStudentScalingDb(static_cast<int>(state.range(0)),
                                            3);
  EngineRegistry registry;
  LoadScalingSession(&registry, "s", db);
  benchmark::DoNotOptimize(registry.Report("s", ReportOptions{}));
  // The mutated fact: the last endogenous registration, deleted and
  // re-inserted each iteration so the database is unchanged between rounds.
  const Database* live = registry.FindDatabase("s");
  const FactId target = live->endogenous_facts().back();
  MutationSpec insert;
  insert.op = MutationSpec::Op::kInsert;
  insert.fact.relation = live->schema().name(live->relation_of(target));
  insert.fact.tuple = live->tuple_of(target);
  insert.fact.endogenous = true;
  MutationSpec remove;
  remove.op = MutationSpec::Op::kDelete;
  remove.fact = insert.fact;
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.ApplyMutation("s", remove));
    benchmark::DoNotOptimize(registry.ApplyMutation("s", insert));
    auto report = registry.Report("s", ReportOptions{});
    benchmark::DoNotOptimize(report);
  }
  const size_t endo = registry.FindDatabase("s")->endogenous_count();
  state.SetLabel("endo=" + std::to_string(endo));
}
BENCHMARK(BM_ServerDeltaReport)->Arg(8)->Arg(20);

}  // namespace

BENCHMARK_MAIN();
