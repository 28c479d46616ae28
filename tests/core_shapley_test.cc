// Exact Shapley computation: the paper's Example 2.3 values, the efficiency
// property, and randomized agreement between the polynomial engine and the
// exponential reference.

#include "core/shapley.h"

#include <gtest/gtest.h>

#include <tuple>

#include "core/brute_force.h"
#include "datasets/synthetic.h"
#include "datasets/university.h"
#include "eval/homomorphism.h"
#include "query/parser.h"
#include "util/random.h"

namespace shapcq {
namespace {

TEST(ShapleyTest, Example23ExactValues) {
  UniversityDb u = BuildUniversityDb();
  const CQ q1 = UniversityQ1();
  const std::vector<Rational> expected = UniversityQ1PaperValues();
  const std::vector<FactId> facts = {u.ft1, u.ft2, u.ft3, u.fr1,
                                     u.fr2, u.fr3, u.fr4, u.fr5};
  for (size_t i = 0; i < facts.size(); ++i) {
    auto value = ShapleyViaCountSat(q1, u.db, facts[i]);
    ASSERT_TRUE(value.ok()) << value.error();
    EXPECT_EQ(value.value(), expected[i])
        << u.db.FactToString(facts[i]) << " got " << value.value().ToString();
  }
}

TEST(ShapleyTest, Example23MatchesBruteForce) {
  UniversityDb u = BuildUniversityDb();
  const CQ q1 = UniversityQ1();
  for (FactId f : u.db.endogenous_facts()) {
    EXPECT_EQ(ShapleyViaCountSat(q1, u.db, f).value(),
              ShapleyBruteForce(q1, u.db, f))
        << u.db.FactToString(f);
  }
}

TEST(ShapleyTest, SignsFollowPolarity) {
  // TA facts only hurt q1 (≤ 0); Reg facts only help (≥ 0) — the polarity
  // observation of the introduction.
  UniversityDb u = BuildUniversityDb();
  const CQ q1 = UniversityQ1();
  auto values = ShapleyAllViaCountSat(q1, u.db).value();
  EXPECT_LE(values[u.db.endo_index(u.ft1)], Rational(0));
  EXPECT_LE(values[u.db.endo_index(u.ft2)], Rational(0));
  EXPECT_GE(values[u.db.endo_index(u.fr1)], Rational(0));
  EXPECT_GE(values[u.db.endo_index(u.fr4)], Rational(0));
}

TEST(ShapleyTest, MoreRegistrationsMoreNegativeImpact) {
  // Example 2.3: |Shapley(ft1)| > |Shapley(ft2)| because Adam is registered
  // to more courses than Ben.
  UniversityDb u = BuildUniversityDb();
  auto values = ShapleyAllViaCountSat(UniversityQ1(), u.db).value();
  EXPECT_GT(values[u.db.endo_index(u.ft1)].Abs(),
            values[u.db.endo_index(u.ft2)].Abs());
}

TEST(ShapleyTest, RejectsExogenousFact) {
  UniversityDb u = BuildUniversityDb();
  FactId stud = u.db.FindFact("Stud", {V("Adam")});
  ASSERT_NE(stud, kNoFact);
  EXPECT_FALSE(ShapleyViaCountSat(UniversityQ1(), u.db, stud).ok());
}

TEST(ShapleyTest, RejectsNonHierarchical) {
  UniversityDb u = BuildUniversityDb();
  EXPECT_FALSE(ShapleyViaCountSat(UniversityQ2(), u.db, u.ft1).ok());
}

TEST(ShapleyFromSatCountsTest, HandAssembled) {
  // n = 2, f's partner fact alone satisfies nothing; with f the query always
  // holds: Shapley(f) = Σ_k k!(1-k)!/2! ((1) - (0)) over k=0,1 = 1.
  CountVector with_f = CountVector::All(1);
  CountVector without_f = CountVector::Zero(1);
  EXPECT_EQ(ShapleyFromSatCounts(with_f, without_f, 2), Rational(1));
  // Reversal gives -1.
  EXPECT_EQ(ShapleyFromSatCounts(without_f, with_f, 2), Rational(-1));
  // Identical counts give 0.
  EXPECT_EQ(ShapleyFromSatCounts(with_f, with_f, 2), Rational(0));
}

// ---------------------------------------------------------------------------
// Randomized sweeps.
// ---------------------------------------------------------------------------

using ShapleySweepParam = std::tuple<const char*, int>;

class ShapleySweep : public ::testing::TestWithParam<ShapleySweepParam> {};

TEST_P(ShapleySweep, CountingEngineMatchesBruteForce) {
  const CQ q = MustParseCQ(std::get<0>(GetParam()));
  Rng rng(static_cast<uint64_t>(std::get<1>(GetParam())) * 104729 + 5);
  SyntheticOptions options;
  options.domain_size = 3;
  options.facts_per_relation = 3;
  const Database db = RandomDatabaseForQuery(q, {}, options, &rng);
  for (FactId f : db.endogenous_facts()) {
    auto fast = ShapleyViaCountSat(q, db, f);
    ASSERT_TRUE(fast.ok()) << fast.error();
    EXPECT_EQ(fast.value(), ShapleyBruteForce(q, db, f))
        << "fact " << db.FactToString(f) << " in " << db.ToString();
  }
}

TEST_P(ShapleySweep, EfficiencySumsToQueryDelta) {
  const CQ q = MustParseCQ(std::get<0>(GetParam()));
  Rng rng(static_cast<uint64_t>(std::get<1>(GetParam())) * 31337 + 99);
  SyntheticOptions options;
  options.domain_size = 3;
  options.facts_per_relation = 4;
  const Database db = RandomDatabaseForQuery(q, {}, options, &rng);
  auto values = ShapleyAllViaCountSat(q, db);
  ASSERT_TRUE(values.ok()) << values.error();
  Rational sum(0);
  for (const Rational& value : values.value()) sum += value;
  const int delta = (EvalBoolean(q, db, db.FullWorld()) ? 1 : 0) -
                    (EvalBoolean(q, db, db.EmptyWorld()) ? 1 : 0);
  EXPECT_EQ(sum, Rational(delta)) << db.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    HierarchicalShapes, ShapleySweep,
    ::testing::Combine(
        ::testing::Values("q() :- R(x)",
                          "q() :- R(x), not S(x)",
                          "q1() :- Stud(x), not TA(x), Reg(x,y)",
                          "q() :- R(x,y), S(x,y), T(x)",
                          "q() :- R(x), S(y)",
                          "q() :- R(x,y), not S(x)"),
        ::testing::Range(0, 5)));

}  // namespace
}  // namespace shapcq
