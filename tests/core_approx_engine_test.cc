// The sampling tier (core/approx_engine.h): interval coverage against the
// exact engines on generated tractable queries, bit-identical results at
// every thread count, orbit soundness, the coalition memo, and the spec
// surface. The ApproxEngineParallelTest suite runs under TSan in CI (the
// shared memo and the chunked fan-out are the racy surface).

#include "core/approx_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "core/brute_force.h"
#include "core/shapley.h"
#include "core/shapley_engine.h"
#include "datasets/query_gen.h"
#include "datasets/synthetic.h"
#include "datasets/university.h"
#include "db/textio.h"
#include "query/analysis.h"
#include "query/parser.h"

namespace shapcq {
namespace {

// One generated (hierarchical query, random database) instance per seed.
struct TractableInstance {
  CQ q;
  Database db;
};

TractableInstance BuildTractable(int seed) {
  Rng rng(static_cast<uint64_t>(seed) * 2654435761u + 17);
  QueryGenOptions gen;
  TractableInstance instance{RandomHierarchicalCq(gen, &rng), Database()};
  SyntheticOptions synth;
  synth.domain_size = 3;
  synth.facts_per_relation = 3;
  instance.db = RandomDatabaseForQuery(instance.q, ExoRelations{}, synth, &rng);
  return instance;
}

// ---------------------------------------------------------------------------
// Coverage battery: on >= 20 generated tractable queries, every exact
// Shapley value must sit inside the reported confidence interval. The run
// is seed-pure and the reduction deterministic, so this is a fixed outcome
// (an actual epsilon-delta failure would reproduce bit-identically).

class ApproxCoverageSweep : public ::testing::TestWithParam<int> {};

TEST_P(ApproxCoverageSweep, IntervalsCoverExactValues) {
  TractableInstance t = BuildTractable(GetParam());
  if (t.db.endogenous_count() == 0) GTEST_SKIP() << "no endogenous facts";

  auto exact = ShapleyAllViaCountSat(t.q, t.db, ParallelOptions{});
  ASSERT_TRUE(exact.ok()) << exact.error() << " for " << t.q.ToString();

  ApproxSpec spec;
  spec.epsilon = 0.12;
  spec.delta = 0.05;
  spec.seed = 1000 + static_cast<uint64_t>(GetParam());
  auto engine = ApproxEngine::Create(t.q, t.db, {});
  ASSERT_TRUE(engine.ok()) << engine.error();
  ApproxEngine approx = std::move(engine).value();
  auto rows = approx.EstimateAll(spec, /*num_threads=*/1);
  ASSERT_TRUE(rows.ok()) << rows.error();
  ASSERT_EQ(rows.value().size(), t.db.endogenous_count());

  for (size_t i = 0; i < rows.value().size(); ++i) {
    const ApproxRow& row = rows.value()[i];
    const double truth = exact.value()[i].ToDouble();
    const double error = std::fabs(row.estimate.ToDouble() - truth);
    EXPECT_LE(error, row.ci_radius)
        << "fact " << i << " of " << t.q.ToString() << ": estimate "
        << row.estimate.ToDouble() << " vs exact " << truth;
    EXPECT_LE(row.ci_radius, spec.epsilon + 1e-12)
        << "interval wider than the requested epsilon without a cap";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproxCoverageSweep, ::testing::Range(0, 24));

// ---------------------------------------------------------------------------
// Determinism: fixed (spec, database) must be bit-identical at any thread
// count — same Rational estimates, same radii, same sample counts.

TEST(ApproxEngineTest, BitIdenticalAcrossThreadCounts) {
  UniversityDb u = BuildUniversityDb();
  const CQ q2 = UniversityQ2();  // non-hierarchical: the tier's home turf

  ApproxSpec spec;
  spec.epsilon = 0.08;
  spec.delta = 0.05;
  spec.seed = 99;

  std::vector<ApproxRow> baseline;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    auto engine = ApproxEngine::Create(q2, u.db, {});
    ASSERT_TRUE(engine.ok());
    ApproxEngine approx = std::move(engine).value();
    auto rows = approx.EstimateAll(spec, threads);
    ASSERT_TRUE(rows.ok()) << rows.error();
    if (threads == 1) {
      baseline = std::move(rows).value();
      continue;
    }
    ASSERT_EQ(rows.value().size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(rows.value()[i].estimate, baseline[i].estimate)
          << "fact " << i << " at " << threads << " threads";
      EXPECT_EQ(rows.value()[i].ci_radius, baseline[i].ci_radius);
      EXPECT_EQ(rows.value()[i].samples, baseline[i].samples);
      EXPECT_EQ(rows.value()[i].orbit, baseline[i].orbit);
    }
  }
}

TEST(ApproxEngineTest, SeedChangesEstimates) {
  UniversityDb u = BuildUniversityDb();
  const CQ q2 = UniversityQ2();
  ApproxSpec spec;
  spec.epsilon = 0.2;
  spec.delta = 0.05;

  auto run = [&](uint64_t seed) {
    spec.seed = seed;
    auto engine = ApproxEngine::Create(q2, u.db, {});
    EXPECT_TRUE(engine.ok());
    ApproxEngine approx = std::move(engine).value();
    auto rows = approx.EstimateAll(spec, 1);
    EXPECT_TRUE(rows.ok());
    return std::move(rows).value();
  };
  const std::vector<ApproxRow> a = run(1), b = run(2);
  bool any_difference = false;
  for (size_t i = 0; i < a.size(); ++i) {
    any_difference = any_difference || !(a[i].estimate == b[i].estimate);
  }
  EXPECT_TRUE(any_difference) << "two seeds produced identical estimates";
}

// ---------------------------------------------------------------------------
// Orbit soundness.

TEST(ApproxEngineTest, SignatureOrbitMembersHaveEqualExactValues) {
  // Property check over random safe (often non-hierarchical) instances:
  // whenever the signature partition groups two facts, their brute-force
  // Shapley values must agree — the partition claims a symmetry.
  for (int seed = 0; seed < 12; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 40503u + 3);
    QueryGenOptions gen;
    gen.max_atoms = 3;
    const CQ q = RandomSafeCq(gen, &rng);
    SyntheticOptions synth;
    synth.domain_size = 3;
    synth.facts_per_relation = 2;
    Database db = RandomDatabaseForQuery(q, ExoRelations{}, synth, &rng);
    if (db.endogenous_count() == 0 || db.endogenous_count() > 8) continue;

    const std::vector<size_t> orbits = ApproxSymmetryOrbits(q, db);
    std::vector<Rational> values;
    for (FactId f : db.endogenous_facts()) {
      values.push_back(ShapleyBruteForce(q, db, f));
    }
    for (size_t i = 0; i < orbits.size(); ++i) {
      for (size_t j = i + 1; j < orbits.size(); ++j) {
        if (orbits[i] == orbits[j]) {
          EXPECT_EQ(values[i], values[j])
              << q.ToString() << " facts " << i << "," << j
              << " share orbit " << orbits[i] << " but differ";
        }
      }
    }
  }
}

TEST(ApproxEngineTest, EngineOrbitInjectionStratifies) {
  // Forced sampling on a hierarchical query borrows the exact engine's
  // orbits; members of one orbit must share one estimate verbatim.
  UniversityDb u = BuildUniversityDb();
  const CQ q1 = UniversityQ1();
  auto built = ShapleyEngine::Build(q1, u.db);
  ASSERT_TRUE(built.ok());
  ShapleyEngine exact_engine = std::move(built).value();
  const std::vector<size_t> orbit_ids = exact_engine.OrbitIds();

  ApproxEngine::Options options;
  options.orbit_ids = &orbit_ids;
  auto engine = ApproxEngine::Create(q1, u.db, options);
  ASSERT_TRUE(engine.ok());
  ApproxEngine approx = std::move(engine).value();
  ApproxSpec spec;
  spec.epsilon = 0.1;
  spec.delta = 0.05;
  spec.seed = 5;
  auto rows = approx.EstimateAll(spec, 1);
  ASSERT_TRUE(rows.ok());

  const std::set<size_t> distinct(orbit_ids.begin(), orbit_ids.end());
  EXPECT_EQ(approx.info().orbit_count, distinct.size());
  for (size_t i = 0; i < orbit_ids.size(); ++i) {
    for (size_t j = i + 1; j < orbit_ids.size(); ++j) {
      if (orbit_ids[i] == orbit_ids[j]) {
        EXPECT_EQ(rows.value()[i].estimate, rows.value()[j].estimate);
        EXPECT_EQ(rows.value()[i].ci_radius, rows.value()[j].ci_radius);
      }
    }
  }
}

TEST(ApproxEngineTest, UnreferencedRelationOrbitsSkipSampling) {
  // Facts in relations no query atom mentions are null players: their rows
  // come back as exact zeros with zero samples, and their orbits are
  // excluded from the confidence split.
  auto db = ParseDatabase("R(a)* R(b)* Z(a)* Z(b)*");
  ASSERT_TRUE(db.ok());
  const CQ q = MustParseCQ("q() :- R(x)");
  auto engine = ApproxEngine::Create(q, db.value(), {});
  ASSERT_TRUE(engine.ok());
  ApproxEngine approx = std::move(engine).value();
  ApproxSpec spec;
  spec.epsilon = 0.1;
  spec.delta = 0.05;
  auto rows = approx.EstimateAll(spec, 1);
  ASSERT_TRUE(rows.ok());
  EXPECT_LT(approx.info().sampled_orbits, approx.info().orbit_count);
  for (FactId f : db.value().endogenous_facts()) {
    const ApproxRow& row = rows.value()[db.value().endo_index(f)];
    if (db.value().FactToString(f)[0] == 'Z') {
      EXPECT_EQ(row.estimate, Rational(0));
      EXPECT_EQ(row.ci_radius, 0.0);
      EXPECT_EQ(row.samples, 0u);
    } else {
      EXPECT_GT(row.samples, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Spec surface.

TEST(ApproxSpecTest, ValidateRejectsOutOfRangeParameters) {
  ApproxSpec spec;
  spec.epsilon = 0.0;
  EXPECT_FALSE(spec.Validate().ok());
  spec.epsilon = 1.0;
  EXPECT_FALSE(spec.Validate().ok());
  spec.epsilon = 0.1;
  spec.delta = 0.0;
  EXPECT_FALSE(spec.Validate().ok());
  spec.delta = 1.5;
  EXPECT_FALSE(spec.Validate().ok());
  spec.delta = 0.05;
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(ApproxSpecTest, CacheKeySeparatesDistinctSpecs) {
  ApproxSpec a;
  a.epsilon = 0.1;
  ApproxSpec b = a;
  EXPECT_EQ(a.CacheKey(), b.CacheKey());
  b.seed = 1;
  EXPECT_NE(a.CacheKey(), b.CacheKey());
  b = a;
  b.delta = 0.01;
  EXPECT_NE(a.CacheKey(), b.CacheKey());
  b = a;
  b.max_samples = 32;
  EXPECT_NE(a.CacheKey(), b.CacheKey());
  b = a;
  b.force = true;
  EXPECT_NE(a.CacheKey(), b.CacheKey());
}

TEST(ApproxEngineTest, MaxSamplesCapsBudgetAndWidensIntervals) {
  UniversityDb u = BuildUniversityDb();
  const CQ q2 = UniversityQ2();
  ApproxSpec spec;
  spec.epsilon = 0.05;
  spec.delta = 0.05;
  spec.seed = 11;

  auto run = [&](size_t cap) {
    spec.max_samples = cap;
    auto engine = ApproxEngine::Create(q2, u.db, {});
    EXPECT_TRUE(engine.ok());
    ApproxEngine approx = std::move(engine).value();
    auto rows = approx.EstimateAll(spec, 1);
    EXPECT_TRUE(rows.ok());
    return std::make_pair(std::move(rows).value(), approx.info());
  };
  auto [uncapped, info_full] = run(0);
  auto [capped, info_capped] = run(64);
  EXPECT_FALSE(info_full.budget_capped);
  EXPECT_TRUE(info_capped.budget_capped);
  EXPECT_EQ(info_capped.samples_per_orbit, 64u);
  EXPECT_GT(capped[0].ci_radius, uncapped[0].ci_radius);
}

TEST(ApproxEngineTest, EstimateAllRejectsInvalidSpec) {
  UniversityDb u = BuildUniversityDb();
  const CQ q1 = UniversityQ1();
  auto engine = ApproxEngine::Create(q1, u.db, {});
  ASSERT_TRUE(engine.ok());
  ApproxEngine approx = std::move(engine).value();
  ApproxSpec bad;
  bad.epsilon = 2.0;
  EXPECT_FALSE(approx.EstimateAll(bad, 1).ok());
  // Valid specs whose sample count no run may draw: past size_t's range
  // (1e-10) and within it but past kMaxSamplesPerRun (1e-9). Each fails
  // with an error naming the count, instead of a wrapped or huge run.
  for (const double epsilon : {1e-10, 0.000000001}) {
    ApproxSpec huge;
    huge.epsilon = epsilon;
    auto rows = approx.EstimateAll(huge, 1);
    ASSERT_FALSE(rows.ok()) << epsilon;
    EXPECT_NE(rows.error().find("samples per orbit"), std::string::npos)
        << rows.error();
    EXPECT_NE(rows.error().find("max_samples="), std::string::npos);
    // Capped by max_samples, the same epsilon runs.
    huge.max_samples = 32;
    EXPECT_TRUE(approx.EstimateAll(huge, 1).ok()) << epsilon;
  }
}

// ---------------------------------------------------------------------------
// The coalition memo.

// q() :- R(x,y), S(x), T(y), not hierarchical, over exactly `n` endogenous
// facts: R(a_i,b_i), S(a_i), T(b_i) for i = 0, 1, ..., cut after n facts.
Database ChainOfTriangles(size_t n) {
  std::string text;
  for (size_t i = 0; 3 * i < n; ++i) {
    const std::string a = "a" + std::to_string(i);
    const std::string b = "b" + std::to_string(i);
    const std::string facts[] = {"R(" + a + "," + b + ")*", "S(" + a + ")*",
                                 "T(" + b + ")*"};
    for (size_t j = 0; j < 3 && 3 * i + j < n; ++j) text += facts[j] + " ";
  }
  auto db = ParseDatabase(text);
  EXPECT_TRUE(db.ok()) << db.error();
  return std::move(db).value();
}

// Figure 1's q2 at 4,096 samples per orbit: every draw is one of the 2^8
// coalitions of its 8 players.
ApproxRunInfo RunFigure1Q2(size_t threads) {
  UniversityDb u = BuildUniversityDb();
  EXPECT_EQ(u.db.endogenous_count(), 8u);
  const CQ q2 = UniversityQ2();
  auto engine = ApproxEngine::Create(q2, u.db, {});
  EXPECT_TRUE(engine.ok());
  ApproxEngine approx = std::move(engine).value();
  ApproxSpec spec;
  spec.epsilon = 0.01;
  spec.delta = 0.05;
  spec.seed = 7;
  spec.max_samples = 4096;
  EXPECT_TRUE(approx.EstimateAll(spec, threads).ok());
  return approx.info();
}

TEST(ApproxEngineTest, MemoEvaluatesEachCoalitionOnce) {
  const ApproxRunInfo info = RunFigure1Q2(1);
  EXPECT_EQ(info.eval_calls, 256u);
  EXPECT_EQ(info.eval_calls + info.cache_hits, 2 * info.samples_total);
}

TEST(ApproxEngineTest, MemoOnlyUpToTwentyPlayers) {
  const CQ q = MustParseCQ("q() :- R(x,y), S(x), T(y)");
  ApproxSpec spec;
  spec.epsilon = 0.1;
  spec.delta = 0.05;
  spec.seed = 13;
  spec.max_samples = 64;
  for (size_t n : {ApproxEngine::kMaxMemoPlayers,
                   ApproxEngine::kMaxMemoPlayers + 1}) {
    const Database db = ChainOfTriangles(n);
    ASSERT_EQ(db.endogenous_count(), n);
    auto engine = ApproxEngine::Create(q, db, {});
    ASSERT_TRUE(engine.ok());
    ApproxEngine approx = std::move(engine).value();
    ASSERT_TRUE(approx.EstimateAll(spec, 1).ok());
    const ApproxRunInfo& info = approx.info();
    ASSERT_GT(info.samples_total, 0u);
    if (n <= ApproxEngine::kMaxMemoPlayers) {
      EXPECT_GT(info.cache_hits, 0u) << n;
      EXPECT_EQ(info.eval_calls + info.cache_hits, 2 * info.samples_total);
    } else {
      // No memo: every sample evaluates with and without its player.
      EXPECT_EQ(info.cache_hits, 0u) << n;
      EXPECT_EQ(info.eval_calls, 2 * info.samples_total);
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel suite (runs under TSan in CI): many threads over the shared
// memo, checked against the serial run for bit-equality.

TEST(ApproxEngineParallelTest, MemoCountersAddUpAcrossThreads) {
  // Threads racing on one cell may both evaluate it, so evaluations can
  // exceed the 256 coalitions, but every draw is counted exactly once.
  const ApproxRunInfo info = RunFigure1Q2(4);
  EXPECT_GE(info.eval_calls, 256u);
  EXPECT_EQ(info.eval_calls + info.cache_hits, 2 * info.samples_total);
}

TEST(ApproxEngineParallelTest, SharedCacheParallelMatchesSerial) {
  Rng rng(77);
  QueryGenOptions gen;
  const CQ q = RandomHierarchicalCq(gen, &rng);
  SyntheticOptions synth;
  synth.domain_size = 4;
  synth.facts_per_relation = 5;
  Database db = RandomDatabaseForQuery(q, ExoRelations{}, synth, &rng);
  if (db.endogenous_count() == 0) GTEST_SKIP();

  ApproxSpec spec;
  spec.epsilon = 0.1;
  spec.delta = 0.05;
  spec.seed = 31;

  auto serial_engine = ApproxEngine::Create(q, db, {});
  ASSERT_TRUE(serial_engine.ok());
  ApproxEngine serial = std::move(serial_engine).value();
  auto serial_rows = serial.EstimateAll(spec, 1);
  ASSERT_TRUE(serial_rows.ok());

  auto parallel_engine = ApproxEngine::Create(q, db, {});
  ASSERT_TRUE(parallel_engine.ok());
  ApproxEngine parallel = std::move(parallel_engine).value();
  auto parallel_rows = parallel.EstimateAll(spec, 8);
  ASSERT_TRUE(parallel_rows.ok());

  ASSERT_EQ(serial_rows.value().size(), parallel_rows.value().size());
  for (size_t i = 0; i < serial_rows.value().size(); ++i) {
    EXPECT_EQ(serial_rows.value()[i].estimate,
              parallel_rows.value()[i].estimate);
    EXPECT_EQ(serial_rows.value()[i].ci_radius,
              parallel_rows.value()[i].ci_radius);
  }
}

TEST(ApproxEngineParallelTest, RepeatedParallelRunsReuseSharedCache) {
  UniversityDb u = BuildUniversityDb();
  const CQ q2 = UniversityQ2();
  auto engine = ApproxEngine::Create(q2, u.db, {});
  ASSERT_TRUE(engine.ok());
  ApproxEngine approx = std::move(engine).value();
  ApproxSpec spec;
  spec.epsilon = 0.1;
  spec.delta = 0.05;
  spec.seed = 3;

  auto first = approx.EstimateAll(spec, 4);
  ASSERT_TRUE(first.ok());
  const size_t first_evals = approx.info().eval_calls;
  auto second = approx.EstimateAll(spec, 4);
  ASSERT_TRUE(second.ok());
  // The cache persists across runs: the repeat answers (almost) entirely
  // from memo, and the estimates are reproduced bit-identically.
  EXPECT_LT(approx.info().eval_calls, first_evals / 4 + 1);
  for (size_t i = 0; i < first.value().size(); ++i) {
    EXPECT_EQ(first.value()[i].estimate, second.value()[i].estimate);
  }
}

}  // namespace
}  // namespace shapcq
