// Safe-plan compilation — the step layout ShapleyEngine instantiates — and
// plan-driven probabilistic evaluation, the third, independently structured
// implementation of the hierarchical algorithm, tested against lifted
// inference and world enumeration.

#include "core/plan.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/shapley_engine.h"
#include "datasets/query_gen.h"
#include "datasets/synthetic.h"
#include "datasets/university.h"
#include "db/value_dictionary.h"
#include "probdb/lifted.h"
#include "query/parser.h"

namespace shapcq {
namespace {

TEST(PlanTest, CompilesHierarchicalOnly) {
  EXPECT_TRUE(CompileSafePlan(UniversityQ1()).ok());
  EXPECT_FALSE(CompileSafePlan(UniversityQ2()).ok());
  EXPECT_FALSE(CompileSafePlan(MustParseCQ("q() :- R(x), S(x,y), T(y)")).ok());
  EXPECT_FALSE(CompileSafePlan(MustParseCQ("q() :- R(x), not S(x,y)")).ok());
  EXPECT_FALSE(
      CompileSafePlan(MustParseCQ("q() :- R(x), S(x,y), not R(y)")).ok());
}

TEST(PlanTest, ExplainShowsStructure) {
  const CQ q = UniversityQ1();
  auto plan = CompileSafePlan(q);
  ASSERT_TRUE(plan.ok());
  // q1 = Stud(x), ¬TA(x), Reg(x,y): project on x, then a join of two ground
  // leaves and a projection on y. Leaves print the query's own variables.
  EXPECT_EQ(ExplainPlan(q, *plan.value()),
            "project[x]\n"
            "  join\n"
            "    leaf: Stud(x)\n"
            "    leaf: not TA(x)\n"
            "    project[y]\n"
            "      leaf: Reg(x,y)\n");
}

TEST(PlanTest, DisconnectedQueryStartsWithJoin) {
  const CQ q = MustParseCQ("q() :- R(x), S(y)");
  auto plan = CompileSafePlan(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value()->kind, SafePlan::Kind::kIndependentJoin);
  EXPECT_EQ(plan.value()->children.size(), 2u);
  const std::string text = ExplainPlan(q, *plan.value());
  EXPECT_EQ(text.find("join"), 0u) << text;
}

TEST(PlanTest, StepsNameTheQueryAtoms) {
  // Components {R, T} and {S} interleave atom ids; B holds its root second.
  const CQ q = MustParseCQ("q() :- R(x), S(y), not T(x), B(z,y)");
  auto compiled = CompileSafePlan(q);
  ASSERT_TRUE(compiled.ok());
  const SafePlan& join = *compiled.value();
  ASSERT_EQ(join.kind, SafePlan::Kind::kIndependentJoin);
  EXPECT_EQ(join.atom_ids, (std::vector<size_t>{0, 1, 2, 3}));
  ASSERT_EQ(join.children.size(), 2u);
  EXPECT_EQ(join.child_of_atom[0], 0u);
  EXPECT_EQ(join.child_of_atom[1], 1u);
  EXPECT_EQ(join.child_of_atom[2], 0u);
  EXPECT_EQ(join.child_of_atom[3], 1u);

  const SafePlan& rt = *join.children[0];
  ASSERT_EQ(rt.kind, SafePlan::Kind::kRootProject);
  EXPECT_EQ(rt.atom_ids, (std::vector<size_t>{0, 2}));
  EXPECT_EQ(q.var_name(rt.root), "x");
  EXPECT_EQ(rt.root_position[0], 0u);
  EXPECT_EQ(rt.root_position[2], 0u);

  const SafePlan& sb = *join.children[1];
  ASSERT_EQ(sb.kind, SafePlan::Kind::kRootProject);
  EXPECT_EQ(sb.atom_ids, (std::vector<size_t>{1, 3}));
  EXPECT_EQ(q.var_name(sb.root), "y");
  EXPECT_EQ(sb.root_position[1], 0u);
  EXPECT_EQ(sb.root_position[3], 1u);
}

TEST(PlanTest, CompilingInternsNoConstants) {
  // Root variables are bound by VarId, so compiling, building and opening a
  // slice mint no constant (the process-wide dictionary never shrinks).
  const CQ q = UniversityQ1();
  UniversityDb u = BuildUniversityDb();
  const Tuple eve = {V("Eve")};  // interned before the count is taken
  const size_t before = ValueDictionary::Global().size();
  ASSERT_TRUE(CompileSafePlan(q).ok());
  auto built = ShapleyEngine::Build(q, u.db);
  ASSERT_TRUE(built.ok()) << built.error();
  ShapleyEngine engine = std::move(built).value();
  const size_t nodes = engine.stats().node_count;
  ASSERT_TRUE(engine.InsertFact(u.db, "Stud", eve, true).ok());
  EXPECT_GT(engine.stats().node_count, nodes);  // Eve opened a new slice
  EXPECT_EQ(ValueDictionary::Global().size(), before);
}

TEST(PlanTest, GroundQueryIsLeaf) {
  auto plan = CompileSafePlan(MustParseCQ("q() :- R('a')"));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value()->kind, SafePlan::Kind::kAtomLeaf);
}

TEST(PlanTest, ProbabilityMatchesHandComputation) {
  ProbDatabase pdb;
  pdb.AddFact("R", {V("pl1")}, 0.5);
  pdb.AddFact("R", {V("pl2")}, 0.5);
  pdb.AddFact("S", {V("pl1")}, 0.25);
  CQ q = MustParseCQ("q() :- R(x), not S(x)");
  const double expected = 1.0 - (1.0 - 0.5 * 0.75) * (1.0 - 0.5);
  EXPECT_NEAR(PlanProbability(q, pdb).value(), expected, 1e-12);
}

using PlanSweepParam = std::tuple<const char*, int>;

class PlanSweep : public ::testing::TestWithParam<PlanSweepParam> {};

TEST_P(PlanSweep, MatchesLiftedAndEnumeration) {
  const CQ q = MustParseCQ(std::get<0>(GetParam()));
  Rng rng(static_cast<uint64_t>(std::get<1>(GetParam())) * 179424673 + 41);
  SyntheticOptions options;
  options.domain_size = 3;
  options.facts_per_relation = 3;
  ProbDatabase pdb = RandomProbDatabaseForQuery(q, {}, options, &rng);
  auto via_plan = PlanProbability(q, pdb);
  ASSERT_TRUE(via_plan.ok()) << via_plan.error();
  EXPECT_NEAR(via_plan.value(), LiftedProbability(q, pdb).value(), 1e-9);
  EXPECT_NEAR(via_plan.value(), pdb.ProbabilityBruteForce(q), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    HierarchicalShapes, PlanSweep,
    ::testing::Combine(
        ::testing::Values("q() :- R(x)",
                          "q() :- R(x), not S(x)",
                          "q1() :- Stud(x), not TA(x), Reg(x,y)",
                          "q() :- R(x,y), S(x,y), T(x)",
                          "q() :- R(x), S(y)",
                          "q() :- E(x,x), not F(x)",
                          "q() :- A(x), B(x,y), C(x,y,z), not D(x,y,z)"),
        ::testing::Range(0, 5)));

class GeneratedPlanSweep : public ::testing::TestWithParam<int> {};

TEST_P(GeneratedPlanSweep, MatchesEnumerationOnGeneratedQueries) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 217645199 + 43);
  QueryGenOptions gen_options;
  gen_options.max_depth = 2;
  const CQ q = RandomHierarchicalCq(gen_options, &rng);
  SyntheticOptions options;
  options.domain_size = 2;
  options.facts_per_relation = 2;
  ProbDatabase pdb = RandomProbDatabaseForQuery(q, {}, options, &rng);
  if (pdb.probabilistic_count() > 16) GTEST_SKIP();
  auto via_plan = PlanProbability(q, pdb);
  ASSERT_TRUE(via_plan.ok()) << via_plan.error() << "\n" << q.ToString();
  EXPECT_NEAR(via_plan.value(), pdb.ProbabilityBruteForce(q), 1e-9)
      << q.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedPlanSweep, ::testing::Range(0, 20));

}  // namespace
}  // namespace shapcq
