// The single-pass all-facts ShapleyEngine: differential agreement with the
// per-fact CntSat path and the exponential oracle, the efficiency axiom
// (values sum to v(Dn) − v(∅)), orbit symmetry, and null players.

#include "core/shapley_engine.h"

#include <gtest/gtest.h>

#include <tuple>

#include "core/brute_force.h"
#include "core/count_sat.h"
#include "core/exoshap.h"
#include "core/shapley.h"
#include "datasets/citations.h"
#include "datasets/query_gen.h"
#include "datasets/synthetic.h"
#include "datasets/university.h"
#include "eval/homomorphism.h"
#include "query/parser.h"
#include "util/random.h"

namespace shapcq {
namespace {

TEST(ShapleyEngineTest, Example23ExactValues) {
  UniversityDb u = BuildUniversityDb();
  auto engine = ShapleyEngine::Build(UniversityQ1(), u.db);
  ASSERT_TRUE(engine.ok()) << engine.error();
  const std::vector<Rational> values = std::move(engine).value().AllValues();
  const std::vector<Rational> expected = UniversityQ1PaperValues();
  const std::vector<FactId> facts = {u.ft1, u.ft2, u.ft3, u.fr1,
                                     u.fr2, u.fr3, u.fr4, u.fr5};
  for (size_t i = 0; i < facts.size(); ++i) {
    EXPECT_EQ(values[u.db.endo_index(facts[i])], expected[i])
        << u.db.FactToString(facts[i]);
  }
}

TEST(ShapleyEngineTest, BaselineSatMatchesCountSat) {
  UniversityDb u = BuildUniversityDb();
  const CQ q1 = UniversityQ1();
  auto engine = ShapleyEngine::Build(q1, u.db);
  ASSERT_TRUE(engine.ok()) << engine.error();
  EXPECT_EQ(engine.value().BaselineSat(), CountSat(q1, u.db).value());
}

TEST(ShapleyEngineTest, SingleFactQueriesMatchAllFacts) {
  UniversityDb u = BuildUniversityDb();
  auto engine = ShapleyEngine::Build(UniversityQ1(), u.db);
  ASSERT_TRUE(engine.ok()) << engine.error();
  ShapleyEngine built = std::move(engine).value();
  // Cold rounds: Value(f) for every fact before any AllValues, so each call
  // warms its leaf's path through the arena sweep. Asked on the fresh
  // engine, after a delete and after the re-insert, each round against a
  // fresh Build's AllValues.
  auto cold_round = [&](const std::string& round) {
    auto fresh = ShapleyEngine::Build(UniversityQ1(), u.db);
    ASSERT_TRUE(fresh.ok()) << fresh.error();
    const std::vector<Rational> all = std::move(fresh).value().AllValues();
    for (FactId f : u.db.endogenous_facts()) {
      EXPECT_EQ(built.Value(f), all[u.db.endo_index(f)])
          << round << ": " << u.db.FactToString(f);
    }
  };
  cold_round("fresh");
  const std::string relation = u.db.schema().name(u.db.relation_of(u.fr3));
  const Tuple tuple = u.db.tuple_of(u.fr3);
  ASSERT_TRUE(built.DeleteFact(u.db, u.fr3).ok());
  cold_round("after delete");
  ASSERT_TRUE(built.InsertFact(u.db, relation, tuple, true).ok());
  cold_round("after re-insert");

  // Warm: Value(f) after AllValues reads the memo.
  const std::vector<Rational> all = built.AllValues();
  for (FactId f : u.db.endogenous_facts()) {
    EXPECT_EQ(built.Value(f), all[u.db.endo_index(f)])
        << u.db.FactToString(f);
  }
}

TEST(ShapleyEngineTest, RejectsNonHierarchical) {
  UniversityDb u = BuildUniversityDb();
  EXPECT_FALSE(ShapleyEngine::Build(UniversityQ2(), u.db).ok());
}

TEST(ShapleyEngineTest, OrbitSymmetryOnRunningExample) {
  // Caroline's two registrations are interchangeable (both 13/42), as are
  // Adam's (both 37/210): the engine must place each pair in one orbit and
  // separate facts with different values.
  UniversityDb u = BuildUniversityDb();
  auto engine = ShapleyEngine::Build(UniversityQ1(), u.db);
  ASSERT_TRUE(engine.ok()) << engine.error();
  ShapleyEngine built = std::move(engine).value();
  const std::vector<size_t> orbits = built.OrbitIds();
  EXPECT_EQ(orbits[u.db.endo_index(u.fr4)], orbits[u.db.endo_index(u.fr5)]);
  EXPECT_EQ(orbits[u.db.endo_index(u.fr1)], orbits[u.db.endo_index(u.fr2)]);
  EXPECT_NE(orbits[u.db.endo_index(u.ft1)], orbits[u.db.endo_index(u.ft2)]);
  EXPECT_NE(orbits[u.db.endo_index(u.fr1)], orbits[u.db.endo_index(u.fr4)]);
  // 8 endogenous facts, two symmetric pairs -> at most 6 orbits.
  EXPECT_LE(built.stats().orbit_count, 6u);
  // Members of one orbit share one computed value — by construction, but
  // assert the observable: equal orbit id implies equal Shapley value.
  const std::vector<Rational> values = built.AllValues();
  for (FactId a : u.db.endogenous_facts()) {
    for (FactId b : u.db.endogenous_facts()) {
      if (orbits[u.db.endo_index(a)] == orbits[u.db.endo_index(b)]) {
        EXPECT_EQ(values[u.db.endo_index(a)], values[u.db.endo_index(b)]);
      }
    }
  }
}

TEST(ShapleyEngineTest, FullySymmetricDatabaseHasOneOrbit) {
  Database db;
  for (int i = 0; i < 6; ++i) db.AddEndo("R", {V("r" + std::to_string(i))});
  const CQ q = MustParseCQ("q() :- R(x)");
  auto engine = ShapleyEngine::Build(q, db);
  ASSERT_TRUE(engine.ok()) << engine.error();
  ShapleyEngine built = std::move(engine).value();
  const std::vector<Rational> values = built.AllValues();
  EXPECT_EQ(built.stats().orbit_count, 1u);
  // Six interchangeable facts, v(full) − v(empty) = 1: each gets 1/6.
  for (const Rational& value : values) {
    EXPECT_EQ(value, Rational::Of(1, 6));
  }
}

TEST(ShapleyEngineTest, NullPlayersGetZeroWithoutComputation) {
  // Facts in a relation the query never mentions are null players, as are
  // facts failing the atom's repeated-variable pattern.
  Database db;
  const FactId in_query = db.AddEndo("R", {V("a"), V("a")});
  const FactId wrong_pattern = db.AddEndo("R", {V("a"), V("b")});
  const FactId other_rel = db.AddEndo("S", {V("a")});
  const CQ q = MustParseCQ("q() :- R(x,x)");
  auto engine = ShapleyEngine::Build(q, db);
  ASSERT_TRUE(engine.ok()) << engine.error();
  ShapleyEngine built = std::move(engine).value();
  EXPECT_EQ(built.Value(wrong_pattern), Rational(0));
  EXPECT_EQ(built.Value(other_rel), Rational(0));
  EXPECT_EQ(built.Value(in_query), Rational(1));
  EXPECT_EQ(built.stats().null_player_count, 2u);
  // Differential: the per-fact reference agrees on the null players.
  EXPECT_EQ(ShapleyViaCountSat(q, db, wrong_pattern).value(), Rational(0));
  EXPECT_EQ(ShapleyViaCountSat(q, db, other_rel).value(), Rational(0));

  // The incremental path keeps the same invariant: an endogenous R(c,d)
  // inserted after Build fails the pattern as well, so it is a null player
  // until it is deleted again, and the values equal a fresh Build's.
  auto expect_fresh_values = [&](const std::string& step) {
    auto fresh = ShapleyEngine::Build(q, db);
    ASSERT_TRUE(fresh.ok()) << fresh.error();
    EXPECT_EQ(built.AllValues(), std::move(fresh).value().AllValues())
        << step;
  };
  auto inserted =
      built.InsertFact(db, "R", {V("c"), V("d")}, /*endogenous=*/true);
  ASSERT_TRUE(inserted.ok()) << inserted.error();
  EXPECT_EQ(built.Value(inserted.value()), Rational(0));
  EXPECT_EQ(built.stats().null_player_count, 3u);
  expect_fresh_values("after the insert");
  ASSERT_TRUE(built.DeleteFact(db, inserted.value()).ok());
  EXPECT_EQ(built.stats().null_player_count, 2u);
  expect_fresh_values("after the delete");
}

TEST(ShapleyEngineTest, ExoShapAllMatchesPerFact) {
  // q2 is non-hierarchical, but with Stud/Course exogenous ExoShap applies;
  // the all-facts path (one transformation) must equal per-fact brute force.
  UniversityDb u = BuildUniversityDb();
  const CQ q2 = UniversityQ2();
  const ExoRelations exo = {"Stud", "Course"};
  auto all = ExoShapShapleyAll(q2, u.db, exo);
  ASSERT_TRUE(all.ok()) << all.error();
  for (FactId f : u.db.endogenous_facts()) {
    EXPECT_EQ(all.value()[u.db.endo_index(f)], ShapleyBruteForce(q2, u.db, f))
        << u.db.FactToString(f);
  }
}

// ---------------------------------------------------------------------------
// Parallel execution: determinism across thread counts.
//
// The contract under test is strict: AllValues at ANY thread count returns
// the same Rationals, in the same order, as the serial engine — not merely
// numerically equal, but assembled from the same per-orbit computations
// (see "Threading contract" in DESIGN.md).
// ---------------------------------------------------------------------------

ParallelOptions Threads(size_t n) {
  ParallelOptions options;
  options.num_threads = n;
  return options;
}

// Serial/parallel comparison on a prebuilt (query, database) pair: fresh
// engines per thread count, element-wise exact equality.
void ExpectThreadCountInvariant(const CQ& q, const Database& db) {
  auto serial_build = ShapleyEngine::Build(q, db);
  ASSERT_TRUE(serial_build.ok()) << serial_build.error();
  ShapleyEngine serial_engine = std::move(serial_build).value();
  const std::vector<Rational> serial = serial_engine.AllValues();
  const size_t serial_orbits = serial_engine.stats().orbit_count;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    auto engine = ShapleyEngine::Build(q, db);
    ASSERT_TRUE(engine.ok()) << engine.error();
    ShapleyEngine built = std::move(engine).value();
    const std::vector<Rational> parallel = built.AllValues(Threads(threads));
    ASSERT_EQ(parallel.size(), serial.size()) << threads << " threads";
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i])
          << threads << " threads, endo index " << i;
      // Bit-identical, not just ==: the canonical string renderings agree.
      EXPECT_EQ(parallel[i].ToString(), serial[i].ToString())
          << threads << " threads, endo index " << i;
    }
    // The parallel run memoizes exactly the orbits the serial run would.
    EXPECT_EQ(built.stats().orbit_count, serial_orbits) << threads
                                                        << " threads";
  }
}

TEST(ShapleyEngineParallelTest, UniversityDeterministicAcrossThreadCounts) {
  UniversityDb u = BuildUniversityDb();
  ExpectThreadCountInvariant(UniversityQ1(), u.db);
}

TEST(ShapleyEngineParallelTest, ScalingDbDeterministicAcrossThreadCounts) {
  // Big enough that every thread count actually fans out over many orbits.
  const Database db = BuildStudentScalingDb(12, 3);
  ExpectThreadCountInvariant(UniversityQ1(), db);
}

TEST(ShapleyEngineParallelTest, SyntheticDeterministicAcrossThreadCounts) {
  Rng rng(20260731);
  SyntheticOptions options;
  options.domain_size = 5;
  options.facts_per_relation = 8;
  for (const char* text :
       {"q() :- R(x), not S(x)", "q() :- R(x,y), S(x,z), T(x)",
        "q1() :- Stud(x), not TA(x), Reg(x,y)"}) {
    const CQ q = MustParseCQ(text);
    const Database db = RandomDatabaseForQuery(q, {}, options, &rng);
    ExpectThreadCountInvariant(q, db);
  }
}

TEST(ShapleyEngineParallelTest, CitationsExoShapDeterministicAcrossThreads) {
  // The citations workload is non-hierarchical; the parallel path must also
  // be reachable (and invariant) through the ExoShap transformation layer.
  Rng rng(7);
  const Database db = BuildRandomCitationsDb(6, 5, 0.6, 0.5, &rng);
  const CQ q = CitationsQuery();
  const ExoRelations exo = CitationsExoRelations();
  auto serial = ExoShapShapleyAll(q, db, exo);
  ASSERT_TRUE(serial.ok()) << serial.error();
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    auto parallel = ExoShapShapleyAll(q, db, exo, Threads(threads));
    ASSERT_TRUE(parallel.ok()) << parallel.error();
    ASSERT_EQ(parallel.value().size(), serial.value().size());
    for (size_t i = 0; i < serial.value().size(); ++i) {
      EXPECT_EQ(parallel.value()[i], serial.value()[i])
          << threads << " threads, endo index " << i;
    }
  }
}

TEST(ShapleyEngineParallelTest, SmallCitationsAllThreadCounts) {
  const Database db = BuildSmallCitationsDb();
  const CQ q = CitationsQuery();
  const ExoRelations exo = CitationsExoRelations();
  auto serial = ExoShapShapleyAll(q, db, exo);
  ASSERT_TRUE(serial.ok()) << serial.error();
  for (size_t threads : {2u, 4u, 8u}) {
    auto parallel = ExoShapShapleyAll(q, db, exo, Threads(threads));
    ASSERT_TRUE(parallel.ok()) << parallel.error();
    EXPECT_EQ(parallel.value(), serial.value()) << threads << " threads";
  }
}

TEST(ShapleyEngineParallelTest, AutoThreadCountMatchesSerial) {
  // num_threads = 0 resolves to the hardware concurrency, whatever that is
  // on the host running the tests — output must still be invariant.
  UniversityDb u = BuildUniversityDb();
  auto serial = ShapleyAllViaCountSat(UniversityQ1(), u.db);
  auto automatic = ShapleyAllViaCountSat(UniversityQ1(), u.db, Threads(0));
  ASSERT_TRUE(serial.ok() && automatic.ok());
  EXPECT_EQ(automatic.value(), serial.value());
}

TEST(ShapleyEngineParallelTest, ValueQueriesAfterParallelAllValues) {
  // A parallel AllValues fills the orbit memo; later single-fact queries on
  // the same engine must serve the identical values.
  UniversityDb u = BuildUniversityDb();
  auto engine = ShapleyEngine::Build(UniversityQ1(), u.db);
  ASSERT_TRUE(engine.ok()) << engine.error();
  ShapleyEngine built = std::move(engine).value();
  const std::vector<Rational> all = built.AllValues(Threads(4));
  for (FactId f : u.db.endogenous_facts()) {
    EXPECT_EQ(built.Value(f), all[u.db.endo_index(f)]) << u.db.FactToString(f);
  }
  // And a repeated parallel query is a pure replay of the memo.
  EXPECT_EQ(built.AllValues(Threads(8)), all);
}

// Randomized differential battery: generated hierarchical queries × random
// databases; the parallel engine against the per-fact ShapleyViaCountSat
// oracle and the efficiency axiom.
class ShapleyEngineParallelSweep : public ::testing::TestWithParam<int> {};

TEST_P(ShapleyEngineParallelSweep, MatchesOracleAndEfficiency) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 31);
  QueryGenOptions query_options;
  query_options.max_depth = 3;
  query_options.max_branch = 2;
  const CQ q = RandomHierarchicalCq(query_options, &rng);
  SyntheticOptions db_options;
  db_options.domain_size = 3;
  db_options.facts_per_relation = 4;
  const Database db = RandomDatabaseForQuery(q, {}, db_options, &rng);
  auto engine = ShapleyEngine::Build(q, db);
  ASSERT_TRUE(engine.ok()) << engine.error() << " for " << q.ToString();
  const std::vector<Rational> values =
      std::move(engine).value().AllValues(Threads(4));
  ASSERT_EQ(values.size(), db.endogenous_count());
  Rational sum(0);
  for (FactId f : db.endogenous_facts()) {
    const Rational& fast = values[db.endo_index(f)];
    sum += fast;
    auto reference = ShapleyViaCountSat(q, db, f);
    ASSERT_TRUE(reference.ok()) << reference.error();
    EXPECT_EQ(fast, reference.value())
        << "parallel mismatch vs oracle on " << db.FactToString(f) << " for "
        << q.ToString() << " in " << db.ToString();
  }
  const int delta = (EvalBoolean(q, db, db.FullWorld()) ? 1 : 0) -
                    (EvalBoolean(q, db, db.EmptyWorld()) ? 1 : 0);
  EXPECT_EQ(sum, Rational(delta))
      << "efficiency axiom violated for " << q.ToString() << " in "
      << db.ToString();
}

INSTANTIATE_TEST_SUITE_P(GeneratedQueries, ShapleyEngineParallelSweep,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Randomized differential sweeps.
// ---------------------------------------------------------------------------

using EngineSweepParam = std::tuple<const char*, int>;

class ShapleyEngineSweep : public ::testing::TestWithParam<EngineSweepParam> {};

TEST_P(ShapleyEngineSweep, MatchesPerFactAndBruteForce) {
  const CQ q = MustParseCQ(std::get<0>(GetParam()));
  Rng rng(static_cast<uint64_t>(std::get<1>(GetParam())) * 7919 + 17);
  SyntheticOptions options;
  options.domain_size = 3;
  options.facts_per_relation = 3;
  const Database db = RandomDatabaseForQuery(q, {}, options, &rng);
  auto engine = ShapleyEngine::Build(q, db);
  ASSERT_TRUE(engine.ok()) << engine.error();
  const std::vector<Rational> values = std::move(engine).value().AllValues();
  ASSERT_EQ(values.size(), db.endogenous_count());
  for (FactId f : db.endogenous_facts()) {
    const Rational& fast = values[db.endo_index(f)];
    auto reference = ShapleyViaCountSat(q, db, f);
    ASSERT_TRUE(reference.ok()) << reference.error();
    EXPECT_EQ(fast, reference.value())
        << "per-fact mismatch on " << db.FactToString(f) << " in "
        << db.ToString();
    EXPECT_EQ(fast, ShapleyBruteForce(q, db, f))
        << "oracle mismatch on " << db.FactToString(f) << " in "
        << db.ToString();
  }
}

TEST_P(ShapleyEngineSweep, EfficiencySumsToQueryDelta) {
  const CQ q = MustParseCQ(std::get<0>(GetParam()));
  Rng rng(static_cast<uint64_t>(std::get<1>(GetParam())) * 50021 + 3);
  SyntheticOptions options;
  options.domain_size = 4;
  options.facts_per_relation = 5;
  const Database db = RandomDatabaseForQuery(q, {}, options, &rng);
  auto engine = ShapleyEngine::Build(q, db);
  ASSERT_TRUE(engine.ok()) << engine.error();
  const std::vector<Rational> values = std::move(engine).value().AllValues();
  Rational sum(0);
  for (const Rational& value : values) sum += value;
  const int delta = (EvalBoolean(q, db, db.FullWorld()) ? 1 : 0) -
                    (EvalBoolean(q, db, db.EmptyWorld()) ? 1 : 0);
  EXPECT_EQ(sum, Rational(delta)) << db.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    HierarchicalShapes, ShapleyEngineSweep,
    ::testing::Combine(
        ::testing::Values("q() :- R(x)",
                          "q() :- R(x), not S(x)",
                          "q1() :- Stud(x), not TA(x), Reg(x,y)",
                          "q() :- R(x,y), S(x,y), T(x)",
                          "q() :- R(x), S(y)",
                          "q() :- R(x,y), not S(x)",
                          "q() :- R(x,x)",
                          "q() :- R(x,y), S(x,z), T(x)"),
        ::testing::Range(0, 5)));

}  // namespace
}  // namespace shapcq
