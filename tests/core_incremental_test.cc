// Incremental maintenance of ShapleyEngine: fact inserts/deletes patched
// into the memoized recursion must be bit-identical to a fresh Build() on the
// mutated database — directed leaf/new-slice/free-fact cases, database
// tombstoning semantics, delta batching, parallel queries after mutations,
// and a randomized insert/delete fuzz sweep against the rebuild oracle and
// the per-fact ShapleyViaCountSat reference.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/count_sat.h"
#include "core/shapley.h"
#include "core/shapley_engine.h"
#include "datasets/query_gen.h"
#include "datasets/synthetic.h"
#include "datasets/university.h"
#include "eval/homomorphism.h"
#include "query/parser.h"
#include "util/random.h"

namespace shapcq {
namespace {

ParallelOptions Threads(size_t n) {
  ParallelOptions options;
  options.num_threads = n;
  return options;
}

// The mutated-state contract: the live engine must agree bit-identically
// (same Rationals, canonical renderings included) with a fresh Build() on
// the database it maintained, its baseline must equal CountSat, and the
// values must sum to the efficiency delta.
void ExpectMatchesRebuild(const CQ& q, const Database& db,
                          ShapleyEngine& engine, const std::string& label) {
  auto rebuilt = ShapleyEngine::Build(q, db);
  ASSERT_TRUE(rebuilt.ok()) << label << ": " << rebuilt.error();
  ShapleyEngine oracle = std::move(rebuilt).value();
  const std::vector<Rational> expected = oracle.AllValues();
  const std::vector<Rational> actual = engine.AllValues();
  ASSERT_EQ(actual.size(), expected.size()) << label;
  ASSERT_EQ(actual.size(), db.endogenous_count()) << label;
  Rational sum(0);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << label << ", endo index " << i;
    EXPECT_EQ(actual[i].ToString(), expected[i].ToString())
        << label << ", endo index " << i;
    sum += actual[i];
  }
  EXPECT_EQ(engine.BaselineSat(), CountSat(q, db).value()) << label;
  const int delta = (EvalBoolean(q, db, db.FullWorld()) ? 1 : 0) -
                    (EvalBoolean(q, db, db.EmptyWorld()) ? 1 : 0);
  EXPECT_EQ(sum, Rational(delta)) << label << ": efficiency axiom";
}

// ---------------------------------------------------------------------------
// Database-level tombstoning semantics.
// ---------------------------------------------------------------------------

TEST(DatabaseRemoveFactTest, StableIdsAndEndoCompaction) {
  Database db;
  const FactId a = db.AddEndo("R", {V("a")});
  const FactId b = db.AddEndo("R", {V("b")});
  const FactId c = db.AddExo("S", {V("c")});
  const FactId d = db.AddEndo("R", {V("d")});
  ASSERT_EQ(db.fact_count(), 4u);
  ASSERT_EQ(db.endo_index(d), 2u);

  db.RemoveFact(b);
  EXPECT_TRUE(db.is_removed(b));
  EXPECT_EQ(db.fact_count(), 3u);
  EXPECT_EQ(db.fact_slot_count(), 4u);
  // Remaining ids are untouched; endo indices compact in order.
  EXPECT_EQ(db.endo_index(a), 0u);
  EXPECT_EQ(db.endo_index(d), 1u);
  EXPECT_EQ(db.endogenous_count(), 2u);
  EXPECT_FALSE(db.is_endogenous(b));
  EXPECT_EQ(db.FindFact("R", {V("b")}), kNoFact);
  EXPECT_EQ(db.facts_of("R"), (std::vector<FactId>{a, d}));
  EXPECT_EQ(db.ToString(), "R(a)* S(c) R(d)*");
  EXPECT_EQ(db.relation_of(c), db.relation_of(c));  // exo slot untouched

  // Re-adding the removed tuple mints a fresh id.
  const FactId b2 = db.AddEndo("R", {V("b")});
  EXPECT_NE(b2, b);
  EXPECT_EQ(db.endo_index(b2), 2u);
  EXPECT_EQ(db.fact_count(), 4u);
}

TEST(DatabaseRemoveFactTest, CopiesAndDomainSkipTombstones) {
  Database db;
  db.AddExo("R", {V("a"), V("b")});
  const FactId gone = db.AddEndo("R", {V("x"), V("y")});
  const FactId kept = db.AddEndo("R", {V("c"), V("d")});
  db.RemoveFact(gone);

  const Database copy = db.CopyWithoutFact(kept);
  EXPECT_EQ(copy.fact_count(), 1u);
  EXPECT_EQ(copy.ToString(), "R(a,b)");

  const Database exo_copy = db.CopyWithFactExogenous(kept);
  EXPECT_EQ(exo_copy.fact_count(), 2u);
  EXPECT_EQ(exo_copy.endogenous_count(), 0u);

  // The active domain forgets values only the tombstone carried.
  bool saw_x = false;
  for (const Value& value : db.ActiveDomain()) {
    if (value == V("x")) saw_x = true;
  }
  EXPECT_FALSE(saw_x);
}

// ---------------------------------------------------------------------------
// Directed engine mutations on the running example.
// ---------------------------------------------------------------------------

TEST(ShapleyEngineIncrementalTest, InsertIntoExistingSliceAndRoundTrip) {
  UniversityDb u = BuildUniversityDb();
  const CQ q = UniversityQ1();
  auto built = ShapleyEngine::Build(q, u.db);
  ASSERT_TRUE(built.ok()) << built.error();
  ShapleyEngine engine = std::move(built).value();
  const std::vector<Rational> before = engine.AllValues();

  // Ben registers for AI: an existing student slice gains a new course leaf.
  auto inserted = engine.InsertFact(u.db, "Reg", {V("Ben"), V("AI")}, true);
  ASSERT_TRUE(inserted.ok()) << inserted.error();
  ExpectMatchesRebuild(q, u.db, engine, "after Reg(Ben,AI) insert");

  // Deleting it must restore the original values exactly.
  auto deleted = engine.DeleteFact(u.db, inserted.value());
  ASSERT_TRUE(deleted.ok()) << deleted.error();
  ExpectMatchesRebuild(q, u.db, engine, "after Reg(Ben,AI) delete");
  EXPECT_EQ(engine.AllValues(), before);
}

TEST(ShapleyEngineIncrementalTest, InsertOpensNewRootSlice) {
  UniversityDb u = BuildUniversityDb();
  const CQ q = UniversityQ1();
  auto built = ShapleyEngine::Build(q, u.db);
  ASSERT_TRUE(built.ok()) << built.error();
  ShapleyEngine engine = std::move(built).value();
  const size_t nodes_before = engine.stats().node_count;

  // A brand-new student: unseen root value -> a fresh subtree is spliced in.
  ASSERT_TRUE(engine.InsertFact(u.db, "Stud", {V("Eve")}, false).ok());
  ExpectMatchesRebuild(q, u.db, engine, "after Stud(Eve) insert");
  EXPECT_GT(engine.stats().node_count, nodes_before);

  ASSERT_TRUE(engine.InsertFact(u.db, "Reg", {V("Eve"), V("OS")}, true).ok());
  ExpectMatchesRebuild(q, u.db, engine, "after Reg(Eve,OS) insert");
}

TEST(ShapleyEngineIncrementalTest, JoinRoutesByAtomIdAcrossComponents) {
  // The components {R, T} and {S} interleave atom ids (0, 2 | 1): the join
  // step must send T's inserts to its first child and S's to its second.
  const CQ q = MustParseCQ("q() :- R(x), S(y), not T(x)");
  Database db;
  db.AddEndo("R", {V("a")});
  db.AddEndo("R", {V("b")});
  db.AddEndo("S", {V("c")});
  db.AddExo("S", {V("d")});
  db.AddEndo("T", {V("b")});
  auto built = ShapleyEngine::Build(q, db);
  ASSERT_TRUE(built.ok()) << built.error();
  ShapleyEngine engine = std::move(built).value();

  auto check = [&](const std::string& label) {
    ExpectMatchesRebuild(q, db, engine, label);
    for (FactId f : db.endogenous_facts()) {
      auto reference = ShapleyViaCountSat(q, db, f);
      ASSERT_TRUE(reference.ok()) << reference.error();
      EXPECT_EQ(engine.Value(f), reference.value())
          << label << ": " << db.FactToString(f);
    }
  };
  check("after Build");

  struct Insert {
    const char* relation;
    const char* value;
    bool endogenous;
    bool opens_slice;
  };
  const Insert inserts[] = {
      {"T", "a", true, false},  // the existing empty T leaf of slice a
      {"R", "e", true, true},   // a new root value under {R, T}
      {"S", "f", true, true},   // a new root value under {S}
      {"T", "g", false, true},  // a new {R, T} root value opened by T
  };
  std::vector<FactId> added;
  for (const Insert& insert : inserts) {
    const std::string label =
        std::string(insert.relation) + "(" + insert.value + ")";
    const size_t nodes_before = engine.stats().node_count;
    auto inserted = engine.InsertFact(db, insert.relation, {V(insert.value)},
                                      insert.endogenous);
    ASSERT_TRUE(inserted.ok()) << inserted.error();
    added.push_back(inserted.value());
    EXPECT_EQ(engine.stats().node_count > nodes_before, insert.opens_slice)
        << label;
    check("after " + label + " insert");
  }
  for (FactId fact : added) {
    const std::string label = db.FactToString(fact);
    ASSERT_TRUE(engine.DeleteFact(db, fact).ok()) << label;
    check("after " + label + " delete");
  }
}

TEST(ShapleyEngineIncrementalTest, NegatedLeafAndExogenousMutations) {
  UniversityDb u = BuildUniversityDb();
  const CQ q = UniversityQ1();
  auto built = ShapleyEngine::Build(q, u.db);
  ASSERT_TRUE(built.ok()) << built.error();
  ShapleyEngine engine = std::move(built).value();

  // Caroline becomes a TA: flips a negated leaf from absent to endogenous.
  auto ta = engine.InsertFact(u.db, "TA", {V("Caroline")}, true);
  ASSERT_TRUE(ta.ok()) << ta.error();
  ExpectMatchesRebuild(q, u.db, engine, "after TA(Caroline) insert");

  // Deleting an exogenous fact in a positive leaf (Adam's Stud fact).
  const FactId stud_adam = u.db.FindFact("Stud", {V("Adam")});
  ASSERT_NE(stud_adam, kNoFact);
  ASSERT_TRUE(engine.DeleteFact(u.db, stud_adam).ok());
  ExpectMatchesRebuild(q, u.db, engine, "after Stud(Adam) delete");

  ASSERT_TRUE(engine.DeleteFact(u.db, ta.value()).ok());
  ExpectMatchesRebuild(q, u.db, engine, "after TA(Caroline) delete");
}

TEST(ShapleyEngineIncrementalTest, UnmatchedFactsAreNullPlayers) {
  UniversityDb u = BuildUniversityDb();
  const CQ q = UniversityQ1();
  auto built = ShapleyEngine::Build(q, u.db);
  ASSERT_TRUE(built.ok()) << built.error();
  ShapleyEngine engine = std::move(built).value();
  const size_t nulls_before = engine.stats().null_player_count;

  // An endogenous fact in a relation the query never mentions: a null
  // player, but it still dilutes every other value (the player count grew).
  auto aud = engine.InsertFact(u.db, "Audit", {V("Adam")}, true);
  ASSERT_TRUE(aud.ok()) << aud.error();
  ExpectMatchesRebuild(q, u.db, engine, "after Audit(Adam) insert");
  EXPECT_EQ(engine.Value(aud.value()), Rational(0));
  EXPECT_EQ(engine.stats().null_player_count, nulls_before + 1);

  // An exogenous unmatched fact changes nothing at all.
  auto exo = engine.InsertFact(u.db, "Audit", {V("Ben")}, false);
  ASSERT_TRUE(exo.ok()) << exo.error();
  ExpectMatchesRebuild(q, u.db, engine, "after Audit(Ben) exo insert");

  ASSERT_TRUE(engine.DeleteFact(u.db, aud.value()).ok());
  ASSERT_TRUE(engine.DeleteFact(u.db, exo.value()).ok());
  ExpectMatchesRebuild(q, u.db, engine, "after Audit deletes");
  EXPECT_EQ(engine.stats().null_player_count, nulls_before);
}

TEST(ShapleyEngineIncrementalTest, MutationErrorsLeaveStateIntact) {
  UniversityDb u = BuildUniversityDb();
  const CQ q = UniversityQ1();
  auto built = ShapleyEngine::Build(q, u.db);
  ASSERT_TRUE(built.ok()) << built.error();
  ShapleyEngine engine = std::move(built).value();
  const std::vector<Rational> before = engine.AllValues();

  // Duplicate tuple and arity mismatch are rejected without touching state.
  EXPECT_FALSE(engine.InsertFact(u.db, "TA", {V("Adam")}, true).ok());
  EXPECT_FALSE(engine.InsertFact(u.db, "TA", {V("Adam"), V("x")}, true).ok());
  // Double delete is rejected.
  auto deleted = engine.DeleteFact(u.db, u.ft3);
  ASSERT_TRUE(deleted.ok());
  EXPECT_FALSE(engine.DeleteFact(u.db, u.ft3).ok());
  EXPECT_FALSE(engine.DeleteFact(u.db, static_cast<FactId>(99999)).ok());
  ASSERT_TRUE(
      engine.InsertFact(u.db, "TA", {V("David")}, true).ok());  // restore
  ExpectMatchesRebuild(q, u.db, engine, "after error battery");
}

TEST(ShapleyEngineIncrementalTest, InsertDeclaringNewRelationChecksArity) {
  // "Blocked" is mentioned by the query but has no facts at Build time, so
  // the schema has never seen it: the engine must still reject a tuple whose
  // arity disagrees with the query atom (pattern matching would index past
  // the tuple's end), and accept the right arity.
  Database db;
  db.AddEndo("R", {V("a"), V("b")});
  const CQ q = MustParseCQ("q() :- R(x,y), not Blocked(x,y)");
  auto built = ShapleyEngine::Build(q, db);
  ASSERT_TRUE(built.ok()) << built.error();
  ShapleyEngine engine = std::move(built).value();

  EXPECT_FALSE(engine.InsertFact(db, "Blocked", {V("a")}, false).ok());
  ASSERT_TRUE(engine.InsertFact(db, "Blocked", {V("a"), V("b")}, false).ok());
  ExpectMatchesRebuild(q, db, engine, "after Blocked(a,b) insert");
}

TEST(ShapleyEngineIncrementalTest, MixedMutationSequence) {
  UniversityDb u = BuildUniversityDb();
  const CQ q = UniversityQ1();
  auto built = ShapleyEngine::Build(q, u.db);
  ASSERT_TRUE(built.ok()) << built.error();
  ShapleyEngine engine = std::move(built).value();

  auto deleted = engine.DeleteFact(u.db, u.fr1);
  ASSERT_TRUE(deleted.ok()) << deleted.error();
  EXPECT_EQ(deleted.value(), u.fr1);
  ASSERT_TRUE(engine.InsertFact(u.db, "Reg", {V("David"), V("DB")}, true).ok());
  ASSERT_TRUE(engine.InsertFact(u.db, "Stud", {V("Frank")}, false).ok());
  ASSERT_TRUE(engine.InsertFact(u.db, "Reg", {V("Frank"), V("AI")}, true).ok());
  ASSERT_TRUE(engine.DeleteFact(u.db, u.ft2).ok());
  ExpectMatchesRebuild(q, u.db, engine, "after 5 mutations");

  // A failing mutation leaves the ones before it applied.
  ASSERT_TRUE(engine.InsertFact(u.db, "TA", {V("Frank")}, true).ok());
  EXPECT_FALSE(engine.DeleteFact(u.db, u.ft2).ok());  // already deleted
  ExpectMatchesRebuild(q, u.db, engine, "after a failing mutation");
}

TEST(ShapleyEngineIncrementalTest, ParallelQueriesAfterMutations) {
  // The threading contract survives mutations: mutate serially, then query
  // in parallel — bit-identical to a fresh serial build at any thread count.
  UniversityDb u = BuildUniversityDb();
  const CQ q = UniversityQ1();
  auto built = ShapleyEngine::Build(q, u.db);
  ASSERT_TRUE(built.ok()) << built.error();
  ShapleyEngine engine = std::move(built).value();
  engine.AllValues(Threads(4));  // warm contexts + once-flags pre-mutation

  ASSERT_TRUE(engine.InsertFact(u.db, "Reg", {V("David"), V("IC")}, true).ok());
  ASSERT_TRUE(engine.DeleteFact(u.db, u.fr2).ok());

  auto rebuilt = ShapleyEngine::Build(q, u.db);
  ASSERT_TRUE(rebuilt.ok());
  const std::vector<Rational> expected = std::move(rebuilt).value().AllValues();
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    auto fresh = ShapleyEngine::Build(q, u.db);
    ASSERT_TRUE(fresh.ok());
    // Also mutate a fresh engine and query it in parallel directly.
    const std::vector<Rational> values = engine.AllValues(Threads(threads));
    ASSERT_EQ(values.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(values[i].ToString(), expected[i].ToString())
          << threads << " threads, endo index " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized insert/delete fuzz sweep: generated hierarchical queries,
// random databases, random delta sequences. After every delta the live
// engine must match the rebuild oracle bit-identically, satisfy the
// efficiency axiom (inside ExpectMatchesRebuild), and agree with the
// per-fact ShapleyViaCountSat reference on a sampled fact. 20 instances x
// 15 delta attempts ≈ 280+ verified deltas.
// ---------------------------------------------------------------------------

class IncrementalFuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalFuzzSweep, MatchesRebuildAfterEveryDelta) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 86243 + 11);
  QueryGenOptions query_options;
  query_options.max_depth = 3;
  query_options.max_branch = 2;
  const CQ q = RandomHierarchicalCq(query_options, &rng);
  SyntheticOptions db_options;
  db_options.domain_size = 3;
  db_options.facts_per_relation = 4;
  Database db = RandomDatabaseForQuery(q, {}, db_options, &rng);

  auto built = ShapleyEngine::Build(q, db);
  ASSERT_TRUE(built.ok()) << built.error() << " for " << q.ToString();
  ShapleyEngine engine = std::move(built).value();

  std::vector<FactId> live;
  for (size_t i = 0; i < db.fact_slot_count(); ++i) {
    live.push_back(static_cast<FactId>(i));
  }
  // The insert pool: the query's own relations (joinable tuples over a
  // slightly larger domain than the seed database) plus one alien relation
  // the query never mentions (null players).
  std::vector<std::pair<std::string, size_t>> insertable;
  for (const Atom& atom : q.atoms()) {
    insertable.emplace_back(atom.relation, atom.arity());
  }
  insertable.emplace_back("Alien", 1);

  // Duplicate-tuple draws skip their step, so the sweep stays comfortably
  // above 200 applied deltas across the 20 instances.
  const int kDeltas = 15;
  for (int step = 0; step < kDeltas; ++step) {
    const bool do_delete = !live.empty() && rng.Bernoulli(0.45);
    if (do_delete) {
      const size_t pick = static_cast<size_t>(rng.UniformInt(live.size()));
      const FactId victim = live[pick];
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      auto deleted = engine.DeleteFact(db, victim);
      ASSERT_TRUE(deleted.ok())
          << deleted.error() << " for " << q.ToString();
    } else {
      const auto& [relation, arity] =
          insertable[rng.UniformInt(insertable.size())];
      Tuple tuple;
      for (size_t t = 0; t < arity; ++t) {
        tuple.push_back(
            V("c" + std::to_string(rng.UniformInt(4))));
      }
      if (db.FindFact(relation, tuple) != kNoFact) continue;  // duplicate
      const bool endogenous = rng.Bernoulli(0.7);
      auto inserted = engine.InsertFact(db, relation, tuple, endogenous);
      ASSERT_TRUE(inserted.ok())
          << inserted.error() << " for " << q.ToString();
      live.push_back(inserted.value());
    }

    ExpectMatchesRebuild(q, db, engine,
                         q.ToString() + " after delta " +
                             std::to_string(step));
    if (db.endogenous_count() > 0) {
      // Spot-check one fact against the independent per-fact oracle.
      const FactId f = db.endogenous_facts()[rng.UniformInt(
          db.endogenous_count())];
      auto reference = ShapleyViaCountSat(q, db, f);
      ASSERT_TRUE(reference.ok()) << reference.error();
      EXPECT_EQ(engine.Value(f), reference.value())
          << "per-fact oracle mismatch on " << db.FactToString(f) << " for "
          << q.ToString() << " in " << db.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GeneratedQueries, IncrementalFuzzSweep,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace shapcq
