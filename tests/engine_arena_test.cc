// The flat SoA engine arena (core/engine_arena.h): unit tests of the combine
// rules, the cell store, topological structure, slack/compaction and byte
// accounting on a hand-built arena, engine-level degenerate cases, and the
// fuzz battery that holds the engine to independent oracles after build and
// after every mutation, at every thread count: each value against the
// per-fact CntSat reduction (ShapleyViaCountSat), the baseline against
// CountSat, the value sum and the O(1) total against the efficiency axiom,
// the numerators over n! against the same per-fact oracle, the ranked report
// tables against a plainly assembled reference, and the orbit ids against
// those values and across thread counts. Last, the engine's byte footprint
// over long sessions: flat under stationary swaps, and near a fresh build
// after growth by inserts.

#include "core/engine_arena.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/count_sat.h"
#include "core/report.h"
#include "core/shapley.h"
#include "core/shapley_engine.h"
#include "datasets/query_gen.h"
#include "datasets/synthetic.h"
#include "datasets/university.h"
#include "eval/homomorphism.h"
#include "query/parser.h"
#include "support/report_reference.h"
#include "util/combinatorics.h"
#include "util/random.h"

namespace shapcq {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};
constexpr EngineArena::NodeKind kComponent = EngineArena::NodeKind::kComponent;
constexpr EngineArena::NodeKind kRootVar = EngineArena::NodeKind::kRootVar;

ParallelOptions Threads(size_t n) {
  ParallelOptions options;
  options.num_threads = n;
  return options;
}

CountVector Counts(std::vector<int> values) {
  std::vector<BigInt> cells;
  cells.reserve(values.size());
  for (int v : values) cells.push_back(BigInt(v));
  return CountVector::FromCounts(std::move(cells));
}

constexpr GroundFactState kAbsent = GroundFactState::kAbsent;
constexpr GroundFactState kExo = GroundFactState::kExogenous;
constexpr GroundFactState kEndo = GroundFactState::kEndogenous;

// A three-node arena built by hand (a component root over two ground
// leaves), bypassing ShapleyEngine: the unit tests below exercise the
// combine rules and the cell store directly. The left leaf is positive over
// a fact in `left`; the right one negated over an endogenous fact, [1,0].
// With both endogenous the root's sat is [0,1] ⊛ [1,0] = [0,1,0].
EngineArena MakeSmallArena(GroundFactState left = kEndo) {
  EngineArena arena;
  const int left_leaf = arena.AddGround(/*negated=*/false, left);
  const int right_leaf = arena.AddGround(/*negated=*/true, kEndo);
  const int root = arena.AddInner(kComponent, {left_leaf, right_leaf});
  arena.SetRoot(root);
  return arena;
}

// ---------------------------------------------------------------------------
// Unit tests on the hand-built arena.
// ---------------------------------------------------------------------------

TEST(EngineArenaTest, StructureAndSatRoundTrip) {
  EngineArena arena = MakeSmallArena();
  EXPECT_EQ(arena.node_count(), 3u);
  EXPECT_EQ(arena.root(), 2);
  EXPECT_EQ(arena.kind(2), kComponent);
  EXPECT_EQ(arena.child_count(2), 2u);
  EXPECT_EQ(arena.child(2, 1), 1);
  EXPECT_EQ(arena.parent(1), 2);
  EXPECT_EQ(arena.child_index(1), 1u);
  EXPECT_TRUE(arena.negated(1));
  arena.CheckInvariants();
  EXPECT_EQ(arena.SatOf(0), Counts({0, 1}));
  EXPECT_EQ(arena.SatOf(1), Counts({1, 0}));
  EXPECT_EQ(arena.SatOf(2), Counts({0, 1, 0}));
  EXPECT_EQ(arena.BaselineSat(2), Counts({0, 1, 2, 1, 0}));
  EXPECT_EQ(arena.SlackLimbs(), 0u);
}

// The Lemma 3.2 base case, as the leaf stores it: a positive ground atom
// must be present (forced pick if endogenous, free if exogenous), a
// negated one absent (the mirror image).
TEST(EngineArenaTest, GroundLeavesFollowTheBaseCase) {
  EngineArena arena;
  const std::pair<GroundFactState, std::vector<int>> plain[] = {
      {kAbsent, {0}}, {kExo, {1}}, {kEndo, {0, 1}}};
  const std::pair<GroundFactState, std::vector<int>> negated[] = {
      {kAbsent, {1}}, {kExo, {0}}, {kEndo, {1, 0}}};
  for (const auto& [state, sat] : plain) {
    EXPECT_EQ(arena.SatOf(arena.AddGround(false, state)), Counts(sat));
  }
  for (const auto& [state, sat] : negated) {
    EXPECT_EQ(arena.SatOf(arena.AddGround(true, state)), Counts(sat));
  }
}

TEST(EngineArenaTest, RootVarRuleComplementsTheUnsatProduct) {
  EngineArena arena;
  const int a = arena.AddGround(/*negated=*/false, kEndo);
  const int b = arena.AddGround(/*negated=*/false, kEndo);
  const int root = arena.AddInner(kRootVar, {a, b});
  arena.SetRoot(root);
  arena.CheckInvariants();
  // sat = All(2) − [1,0] ⊛ [1,0] = [0,2,1].
  EXPECT_EQ(arena.SatOf(root), Counts({0, 2, 1}));
}

// One leaf of the hand-built tree below: its polarity and the presence
// state of its fact.
struct HandLeaf {
  bool negated = false;
  GroundFactState state = kAbsent;
};

// root = Component(V, X, W), V = RootVar(a, b), X = Component(c, g),
// W = RootVar(d, e1, e2), over `leaves` in the order a, b, c, g, d, e1, e2.
// Returns the leaf ids in that order.
std::vector<int> BuildHandTree(EngineArena& arena,
                               const std::vector<HandLeaf>& leaves) {
  std::vector<int> ids;
  for (const HandLeaf& leaf : leaves) {
    ids.push_back(arena.AddGround(leaf.negated, leaf.state));
  }
  const int v = arena.AddInner(kRootVar, {ids[0], ids[1]});
  const int x = arena.AddInner(kComponent, {ids[2], ids[3]});
  const int w = arena.AddInner(kRootVar, {ids[4], ids[5], ids[6]});
  arena.SetRoot(arena.AddInner(kComponent, {v, x, w}));
  return ids;
}

// r[leaf] by its definition: All(global_free) convolved with every
// sibling's combine vector along the leaf's path (its sat under a
// component, All − sat under a root-var node), read from `arena`.
CountVector ExpectedR(const EngineArena& arena, int leaf, size_t global_free) {
  CountVector r = CountVector::All(global_free);
  for (int node = leaf; arena.parent(node) >= 0; node = arena.parent(node)) {
    const int parent = arena.parent(node);
    for (size_t j = 0; j < arena.child_count(parent); ++j) {
      if (arena.child(parent, j) == node) continue;
      const CountVector sat = arena.SatOf(arena.child(parent, j));
      r.ConvolveWith(arena.kind(parent) == kRootVar
                         ? sat.ComplementAgainstAll()
                         : sat);
    }
  }
  return r;
}

// Σ_k k!(n−1−k)!·r_k over the n = |r| players, negated for negated leaves.
BigInt ExpectedNumerator(const CountVector& r, bool negated) {
  const size_t n = r.universe_size() + 1;
  BigInt numerator;
  for (size_t k = 0; k < n; ++k) {
    numerator += Combinatorics::Factorial(k) *
                 Combinatorics::Factorial(n - 1 - k) * r.at(k);
  }
  return negated ? -numerator : numerator;
}

TEST(EngineArenaTest, PatchAndSpliceMatchAFreshBuild) {
  EngineArena arena;
  const int a = arena.AddGround(/*negated=*/false, kEndo);
  const int b = arena.AddGround(/*negated=*/true, kEndo);
  const int root = arena.AddInner(kRootVar, {a, b});
  arena.SetRoot(root);

  // The same root-var node built from scratch over the given leaves.
  auto fresh_sat = [](const std::vector<HandLeaf>& leaves) {
    EngineArena fresh;
    std::vector<int> children;
    for (const HandLeaf& leaf : leaves) {
      children.push_back(fresh.AddGround(leaf.negated, leaf.state));
    }
    return fresh.SatOf(fresh.AddInner(kRootVar, children));
  };

  // A leaf flip re-derives its parent as a fresh build would.
  arena.SetLeafSat(b, kAbsent);
  EXPECT_EQ(arena.SatOf(root), fresh_sat({{false, kEndo}, {true, kAbsent}}));

  // So does a spliced-in slice.
  const int c = arena.AddGround(/*negated=*/false, kEndo);
  arena.SpliceNewChild(root, c);
  arena.CheckInvariants();
  EXPECT_EQ(arena.parent(c), root);
  EXPECT_EQ(arena.child_index(c), 2u);
  EXPECT_EQ(arena.SatOf(root),
            fresh_sat({{false, kEndo}, {true, kAbsent}, {false, kEndo}}));

  // Zero combine vectors and a non-unit divisor: V's sat [0,2,1] is a factor
  // of the root's product whose lowest nonzero cell is 2; W's exogenous e1
  // and e2 are always true, two zero unsat factors at once; c walks never
  // true (absent) → endogenous → absent, a zero factor of X — and X one of
  // the root — before and after. After each step every node's sat equals a
  // fresh build's and every leaf's numerator, serial and level-parallel,
  // equals the one assembled from its definition.
  std::vector<HandLeaf> leaves = {
      {false, kEndo},   {false, kEndo},  // a, b
      {false, kAbsent}, {true, kEndo},   // c, g
      {false, kEndo},   {false, kExo},   // d, e1
      {false, kExo}};                    // e2
  EngineArena tree;
  const std::vector<int> ids = BuildHandTree(tree, leaves);
  constexpr size_t kGlobalFree = 1;
  auto expect_fresh = [&](const std::string& step) {
    tree.CheckInvariants();
    EngineArena fresh;
    BuildHandTree(fresh, leaves);
    for (size_t node = 0; node < fresh.node_count(); ++node) {
      const int id = static_cast<int>(node);
      EXPECT_EQ(tree.SatOf(id), fresh.SatOf(id)) << step << ", node " << id;
    }
    for (size_t threads : {1, 4}) {
      for (size_t i = 0; i < ids.size(); ++i) {
        const CountVector r = ExpectedR(fresh, ids[i], kGlobalFree);
        std::vector<BigInt> got;
        ASSERT_TRUE(tree.Numerators({ids[i]}, r.universe_size() + 1,
                                    kGlobalFree, threads, nullptr, &got));
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0], ExpectedNumerator(r, leaves[i].negated))
            << step << ", leaf " << i << ", t=" << threads;
      }
    }
  };
  expect_fresh("built");
  for (GroundFactState state : {kEndo, kAbsent}) {
    leaves[2].state = state;
    tree.SetLeafSat(ids[2], state);
    expect_fresh("c = " + tree.SatOf(ids[2]).ToString());
  }
}

// Every branch of the exact division that the contexts and the patch path
// run: X = Component(R_1..R_20), each R_i a root-var node over ten
// endogenous leaves, so sat(R_i) = [0,10,45,...] and sat(X) starts at
// cell 20 with 10^20 > 2^64. Under the root component, z's context divides
// by sat(z) = [0,1] (d_s = 1), X's by sat(X) (a two-limb d_s, the one
// cell-by-cell BigInt division), and each R_i's context within X by
// sat(R_i) (d_s = 10, one limb). Every leaf's numerator, before and after
// a leaf patch, must equal the one assembled from its definition.
TEST(EngineArenaTest, ContextsDivideByOneLimbAndWiderLowestCells) {
  constexpr size_t kGroups = 20;
  constexpr size_t kLeaves = 10;
  EngineArena arena;
  std::vector<int> leaves;
  std::vector<int> groups;
  for (size_t g = 0; g < kGroups; ++g) {
    std::vector<int> children;
    for (size_t i = 0; i < kLeaves; ++i) {
      children.push_back(arena.AddGround(false, kEndo));
      leaves.push_back(children.back());
    }
    groups.push_back(arena.AddInner(kRootVar, children));
  }
  const int x = arena.AddInner(kComponent, groups);
  const int z = arena.AddGround(false, kEndo);
  leaves.push_back(z);
  arena.SetRoot(arena.AddInner(kComponent, {x, z}));
  arena.CheckInvariants();
  BigInt lowest(1);
  for (size_t g = 0; g < kGroups; ++g) lowest *= BigInt(10);
  EXPECT_EQ(arena.SatOf(x).at(kGroups), lowest);
  EXPECT_GT(lowest.BitLength(), 64u);
  EXPECT_EQ(arena.SatOf(groups[0]).at(1), BigInt(10));

  // One representative leaf per orbit: a leaf of R_1 and z.
  auto expect_definition = [&](const std::string& step) {
    arena.CheckInvariants();
    for (int leaf : {leaves[0], leaves[1], z}) {
      const CountVector r = ExpectedR(arena, leaf, 0);
      for (size_t threads : {1, 4}) {
        std::vector<BigInt> got;
        ASSERT_TRUE(arena.Numerators({leaf}, r.universe_size() + 1, 0,
                                     threads, nullptr, &got));
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0], ExpectedNumerator(r, false))
            << step << ", leaf " << leaf << ", t=" << threads;
      }
    }
  };
  expect_definition("built");
  // The patch divides sat(X) out of the root's product too.
  arena.SetLeafSat(leaves[0], kAbsent);
  EXPECT_EQ(arena.SatOf(x).at(kGroups), lowest / BigInt(10) * BigInt(9));
  expect_definition("after a patch");
}

// The weight row over its common factor, against the row it replaces: the
// full weights w_k = k!(n−1−k)! and their gcd, folded with BigInt::Gcd. n
// runs over every size up to 80 — 63, 64 and 65 straddle a power of two,
// where the number of base-2 carries changes — and 206 (a serverbench
// session's player count) and 529, whose bit counts it pins.
TEST(EngineArenaTest, WeightRowMatchesAGcdOracle) {
  std::vector<size_t> sizes = {206, 529};
  for (size_t n = 1; n <= 80; ++n) sizes.push_back(n);
  for (size_t n : sizes) {
    const WeightRow row = WeightRow::For(n);
    ASSERT_EQ(row.n, n) << "n=" << n;
    BigInt gcd;
    BigInt reduced_gcd;
    size_t max_reduced_bits = 0;
    for (size_t k = 0; k < n; ++k) {
      const BigInt weight =
          Combinatorics::Factorial(k) * Combinatorics::Factorial(n - 1 - k);
      const BigInt reduced = row.Reduced(k);
      EXPECT_EQ(row.common * reduced, weight) << "n=" << n << " k=" << k;
      gcd = BigInt::Gcd(gcd, weight);
      reduced_gcd = BigInt::Gcd(reduced_gcd, reduced);
      max_reduced_bits = std::max(max_reduced_bits, reduced.BitLength());
    }
    EXPECT_EQ(row.common, gcd) << "n=" << n;
    EXPECT_TRUE(reduced_gcd.IsOne()) << "n=" << n;
    EXPECT_EQ(row.denominator * row.common, Combinatorics::Factorial(n))
        << "n=" << n;
    if (n == 206) {
      EXPECT_EQ(row.common.BitLength(), 994u);
      EXPECT_EQ(max_reduced_bits, 290u);
      EXPECT_EQ(row.denominator.BitLength(), 298u);
    }
    if (n == 529) {
      EXPECT_EQ(row.common.BitLength(), 3264u);
      EXPECT_EQ(max_reduced_bits, 757u);
      EXPECT_EQ(row.denominator.BitLength(), 766u);
    }
  }
}

TEST(EngineArenaTest, LeafStoreReusesCapacityInPlace) {
  EngineArena arena = MakeSmallArena();
  // Shorter than the stored vector: the leaf and, above it, the root's
  // product and sat are rewritten in place; no limbs are stranded.
  arena.SetLeafSat(0, kExo);
  EXPECT_EQ(arena.SlackLimbs(), 0u);
  EXPECT_EQ(arena.SatOf(0), Counts({1}));
  EXPECT_EQ(arena.SatOf(2), Counts({1, 0}));
  // The same length also fits in place.
  arena.SetLeafSat(0, kAbsent);
  EXPECT_EQ(arena.SlackLimbs(), 0u);
  EXPECT_EQ(arena.SatOf(0), Counts({0}));
  EXPECT_EQ(arena.SatOf(2), Counts({0, 0}));
  // And so does growing back into the capacity the slots were built with.
  arena.SetLeafSat(0, kEndo);
  EXPECT_EQ(arena.SlackLimbs(), 0u);
  EXPECT_EQ(arena.SatOf(2), Counts({0, 1, 0}));
  arena.CheckInvariants();
}

TEST(EngineArenaTest, WideningStoreStrandsSlackAndCompactReclaims) {
  EngineArena arena = MakeSmallArena(kAbsent);
  const size_t bytes_before = arena.ApproxMemoryBytes();
  // The leaf's universe grew past its slot's capacity (1 limb): the vector
  // moves to a fresh range and the old one becomes slack, and so do the
  // root's product and sat (2 limbs each), which the store re-derives as
  // [0,1,0].
  arena.SetLeafSat(0, kEndo);
  EXPECT_EQ(arena.SlackLimbs(), 5u);
  EXPECT_EQ(arena.SatOf(0), Counts({0, 1}));
  EXPECT_GT(arena.ApproxMemoryBytes(), bytes_before);
  arena.CheckInvariants();

  const size_t bytes_slack = arena.ApproxMemoryBytes();
  arena.CompactCells();
  EXPECT_EQ(arena.SlackLimbs(), 0u);
  EXPECT_LE(arena.ApproxMemoryBytes(), bytes_slack);
  // Values are untouched by compaction.
  EXPECT_EQ(arena.SatOf(0), Counts({0, 1}));
  EXPECT_EQ(arena.SatOf(1), Counts({1, 0}));
  EXPECT_EQ(arena.SatOf(2), Counts({0, 1, 0}));
  arena.CheckInvariants();
}

TEST(EngineArenaTest, WideningStoresCompactOnceSlackOutnumbersLiveLimbs) {
  // Each splice into the root-var node widens its product and sat by one
  // cell, so both move out of place every time.
  EngineArena arena;
  const int root = arena.AddInner(kRootVar, {arena.AddGround(false, kEndo)});
  arena.SetRoot(root);
  bool compacted = false;
  for (size_t m = 2; m <= 40; ++m) {
    const size_t slack_before = arena.SlackLimbs();
    arena.SpliceNewChild(root, arena.AddGround(false, kEndo));
    arena.CheckInvariants();
    compacted = compacted || arena.SlackLimbs() < slack_before;
    // The live limbs: m two-cell leaves, and the root's product and sat,
    // m + 1 one-limb cells each.
    EXPECT_LE(arena.SlackLimbs(), 4 * m + 2) << "m=" << m;
    EXPECT_EQ(arena.SatOf(arena.child(root, 0)), Counts({0, 1})) << "m=" << m;
    std::vector<BigInt> sat = Combinatorics::BinomialRow(m);
    sat[0] = BigInt(0);
    EXPECT_EQ(arena.SatOf(root), CountVector::FromCounts(std::move(sat)))
        << "m=" << m;
  }
  EXPECT_TRUE(compacted);
}

TEST(EngineArenaTest, RepeatedSplicesIntoOneNodeKeepEveryIdAccounted) {
  // Each splice relocates the node's whole child list, so without packing
  // the stranded ids would grow quadratically in its child count.
  EngineArena arena;
  std::vector<int> children = {arena.AddGround(false, kEndo)};
  const int root = arena.AddInner(kRootVar, children);
  arena.SetRoot(root);
  for (size_t m = 2; m <= 40; ++m) {
    children.push_back(arena.AddGround(false, kEndo));
    arena.SpliceNewChild(root, children.back());
    arena.CheckInvariants();
    ASSERT_EQ(arena.child_count(root), m);
    for (size_t j = 0; j < m; ++j) {
      EXPECT_EQ(arena.child(root, j), children[j]) << "m=" << m;
    }
    // Every nonempty subset of the m players holds one true child.
    std::vector<BigInt> sat = Combinatorics::BinomialRow(m);
    sat[0] = BigInt(0);
    EXPECT_EQ(arena.SatOf(root), CountVector::FromCounts(std::move(sat)))
        << "m=" << m;
  }
}

TEST(EngineArenaTest, ApproxMemoryBytesCoversTheLimbBuffer) {
  EngineArena arena = MakeSmallArena();
  // 2 + 2 leaf cells plus the root's 3-cell product and 3-cell sat, at one
  // 8-byte limb each, is a hard floor for the buffer term of the estimate.
  EXPECT_GE(arena.ApproxMemoryBytes(), 10 * sizeof(uint64_t));
}

// ---------------------------------------------------------------------------
// The oracles: every check runs on the engine as it stands, at one thread
// count, against quantities computed from the database alone.
// ---------------------------------------------------------------------------

// Per-fact CntSat values in endo-index order (two full CntSat runs per fact
// over copied databases; shares no code with the engine's index or sweep).
std::vector<Rational> PerFactOracle(const CQ& q, const Database& db) {
  std::vector<Rational> values(db.endogenous_count());
  for (FactId f : db.endogenous_facts()) {
    auto value = ShapleyViaCountSat(q, db, f);
    EXPECT_TRUE(value.ok()) << value.error();
    if (value.ok()) values[db.endo_index(f)] = std::move(value).value();
  }
  return values;
}

// The engine's numerators over n! and its report tables at top_k 3 and 0,
// all at `threads`, against the oracle values: each numerator is n! times
// the fact's oracle value, and each table equals the reference assembly
// (Rational sum, stable sort by Rational::Compare).
void ExpectNumeratorsAndReports(ShapleyEngine& engine, const Database& db,
                                const std::vector<Rational>& oracle,
                                size_t threads, bool reports_first,
                                const std::string& where) {
  const auto expect_reports = [&] {
    for (size_t top_k : {size_t{3}, size_t{0}}) {
      ReportOptions options;
      options.top_k = top_k;
      options.num_threads = threads;
      ExpectSameReport(
          BuildAttributionReportFromEngine(engine, db, options),
          ReferenceReport("CntSat (incremental)", db, oracle, top_k), db,
          where + ", top_k=" + std::to_string(top_k));
    }
  };
  if (reports_first) expect_reports();
  auto numerators = engine.AllNumerators(Threads(threads));
  ASSERT_TRUE(numerators.ok()) << numerators.error();
  ASSERT_EQ(numerators.value().size(), oracle.size()) << where;
  const Rational factorial(Combinatorics::Factorial(oracle.size()));
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(Rational(numerators.value()[i]), oracle[i] * factorial)
        << where << ", endo index " << i;
  }
  if (!reports_first) expect_reports();
}

// Checks the engine at `threads`: each value equals the per-fact oracle (as
// a Rational and as its rendering), BaselineSat equals CountSat, and the
// values and EfficiencyTotal both come to q(D) − q(Dx); then the numerators
// and report tables (ExpectNumeratorsAndReports). Also checks the orbit
// ids, asked for before anything else when `ids_first` (so OrbitIds is the
// first query on a mutated engine, and a report the first to value its
// orbits) and after everything otherwise: one per endogenous fact, dense in
// first-seen order, as many as the orbits AllValues counted, and facts
// sharing an id have equal oracle values. Returns the ids.
std::vector<size_t> ExpectMatchesOracles(ShapleyEngine& engine, const CQ& q,
                                         const Database& db,
                                         const std::vector<Rational>& oracle,
                                         size_t threads, bool ids_first,
                                         const std::string& label) {
  const std::string where = label + ", t=" + std::to_string(threads);
  std::vector<size_t> ids;
  if (ids_first) {
    ids = engine.OrbitIds();
    ExpectNumeratorsAndReports(engine, db, oracle, threads,
                               /*reports_first=*/true, where);
  }
  const std::vector<Rational> got = engine.AllValues(Threads(threads));
  EXPECT_EQ(got.size(), oracle.size()) << where;
  if (got.size() != oracle.size()) return {};
  Rational sum;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], oracle[i]) << where << ", endo index " << i;
    EXPECT_EQ(got[i].ToString(), oracle[i].ToString())
        << where << ", endo index " << i;
    sum += got[i];
  }
  auto count = CountSat(q, db);
  EXPECT_TRUE(count.ok()) << count.error();
  if (count.ok()) EXPECT_EQ(engine.BaselineSat(), count.value()) << where;
  const int efficiency = (EvalBoolean(q, db, db.FullWorld()) ? 1 : 0) -
                         (EvalBoolean(q, db, db.EmptyWorld()) ? 1 : 0);
  EXPECT_EQ(sum, Rational(efficiency)) << where;
  EXPECT_EQ(engine.EfficiencyTotal(), efficiency) << where;

  const size_t orbits_valued = engine.stats().orbit_count;
  if (!ids_first) {
    ExpectNumeratorsAndReports(engine, db, oracle, threads,
                               /*reports_first=*/false, where);
    ids = engine.OrbitIds();
  }
  EXPECT_EQ(ids.size(), db.endogenous_count()) << where;
  if (ids.size() != oracle.size()) return ids;
  std::vector<size_t> first_member;  // orbit id -> its first endo index
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_LE(ids[i], first_member.size())
        << where << ": orbit ids not dense first-seen at endo index " << i;
    if (ids[i] > first_member.size()) return ids;
    if (ids[i] == first_member.size()) {
      first_member.push_back(i);
      continue;
    }
    const size_t rep = first_member[ids[i]];
    EXPECT_EQ(oracle[i], oracle[rep])
        << where << ": endo indices " << rep << " and " << i
        << " share orbit " << ids[i] << " but not their value";
  }
  EXPECT_EQ(first_member.size(), orbits_valued) << where;
  EXPECT_EQ(engine.stats().orbit_count, first_member.size()) << where;
  return ids;
}

// One engine per thread count, each over its own copy of the database:
// identical deltas keep the copies (and the stable FactIds) in lockstep,
// and every engine's first query after a delta runs at its own thread
// count, so the parallel sweep really runs on the patched state.
struct Replica {
  size_t threads = 1;
  Database db;
  ShapleyEngine engine;
};

std::vector<Replica> MakeReplicas(const CQ& q, const Database& db) {
  std::vector<Replica> replicas;
  for (size_t threads : kThreadCounts) {
    Replica replica;
    replica.threads = threads;
    replica.db = db;
    replicas.push_back(std::move(replica));
  }
  // Engines point at their database: build only once the vector is final.
  for (Replica& replica : replicas) {
    auto built = ShapleyEngine::Build(q, replica.db);
    EXPECT_TRUE(built.ok()) << built.error() << " for " << q.ToString();
    if (built.ok()) replica.engine = std::move(built).value();
  }
  return replicas;
}

// Every replica against the oracles, and the same orbit ids on all of
// them; every other replica asks for its ids first. The callers mutate
// right after this, so each delta lands on engines whose orbits were just
// collected.
void ExpectReplicasMatchOracles(std::vector<Replica>& replicas, const CQ& q,
                                const std::string& label) {
  const Database& db = replicas.front().db;
  const std::vector<Rational> oracle = PerFactOracle(q, db);
  std::vector<size_t> first_ids;
  for (size_t r = 0; r < replicas.size(); ++r) {
    Replica& replica = replicas[r];
    ASSERT_EQ(replica.db.ToString(), db.ToString()) << label;
    const size_t threads = replica.threads;
    const std::vector<size_t> ids = ExpectMatchesOracles(
        replica.engine, q, replica.db, oracle, threads,
        /*ids_first=*/r % 2 == 1, label);
    if (r == 0) {
      first_ids = ids;
    } else {
      EXPECT_EQ(ids, first_ids) << label << ", t=" << threads;
    }
  }
}

TEST(EngineArenaCoreTest, EmptyDatabaseMatchesOracles) {
  const CQ q = MustParseCQ("q() :- R(x)");
  std::vector<Replica> replicas = MakeReplicas(q, Database());
  ExpectReplicasMatchOracles(replicas, q, "empty database");
  EXPECT_GT(replicas.front().engine.ApproxMemoryBytes(), 0u);
}

TEST(EngineArenaCoreTest, ExogenousOnlyDatabaseMatchesOracles) {
  const CQ q = MustParseCQ("q() :- R(x)");
  Database db;
  db.AddExo("R", {V("a")});
  db.AddExo("S", {V("b")});
  std::vector<Replica> replicas = MakeReplicas(q, db);
  ExpectReplicasMatchOracles(replicas, q, "exogenous-only database");
}

// ---------------------------------------------------------------------------
// The fuzz battery: generated hierarchical CQ¬s, random deltas.
// ---------------------------------------------------------------------------

class EngineArenaOracleFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EngineArenaOracleFuzz, MatchesPerFactOracleUnderDeltas) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 50021 + 7);
  QueryGenOptions query_options;
  query_options.max_depth = 3;
  query_options.max_branch = 2;
  const CQ q = RandomHierarchicalCq(query_options, &rng);
  SyntheticOptions db_options;
  db_options.domain_size = 3;
  db_options.facts_per_relation = 4;
  const Database db = RandomDatabaseForQuery(q, {}, db_options, &rng);
  std::vector<Replica> replicas = MakeReplicas(q, db);
  ExpectReplicasMatchOracles(replicas, q, q.ToString() + " after build");

  std::vector<FactId> live;
  for (size_t i = 0; i < replicas.front().db.fact_slot_count(); ++i) {
    live.push_back(static_cast<FactId>(i));
  }
  std::vector<std::pair<std::string, size_t>> insertable;
  for (const Atom& atom : q.atoms()) {
    insertable.emplace_back(atom.relation, atom.arity());
  }
  insertable.emplace_back("Alien", 1);

  const int kDeltas = 8;
  for (int step = 0; step < kDeltas; ++step) {
    const bool do_delete = !live.empty() && rng.Bernoulli(0.45);
    if (do_delete) {
      const size_t pick = static_cast<size_t>(rng.UniformInt(live.size()));
      const FactId victim = live[pick];
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      for (Replica& replica : replicas) {
        auto deleted = replica.engine.DeleteFact(replica.db, victim);
        ASSERT_TRUE(deleted.ok()) << deleted.error() << " for " << q.ToString();
      }
    } else {
      const auto& [relation, arity] =
          insertable[rng.UniformInt(insertable.size())];
      Tuple tuple;
      for (size_t t = 0; t < arity; ++t) {
        tuple.push_back(V("c" + std::to_string(rng.UniformInt(4))));
      }
      if (replicas.front().db.FindFact(relation, tuple) != kNoFact) continue;
      const bool endo = rng.Bernoulli(0.7);
      FactId inserted_id = kNoFact;
      for (Replica& replica : replicas) {
        ShapleyEngine& engine = replica.engine;
        auto inserted = engine.InsertFact(replica.db, relation, tuple, endo);
        ASSERT_TRUE(inserted.ok())
            << inserted.error() << " for " << q.ToString();
        // Stable ids must allocate identically, or later deletes diverge.
        if (inserted_id != kNoFact) ASSERT_EQ(inserted.value(), inserted_id);
        inserted_id = inserted.value();
      }
      live.push_back(inserted_id);
    }
    const std::string after = " after delta " + std::to_string(step);
    ExpectReplicasMatchOracles(replicas, q, q.ToString() + after);
  }
}

INSTANTIATE_TEST_SUITE_P(GeneratedQueries, EngineArenaOracleFuzz,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Thread axis on a fixed workload (also the TSan target: the level-parallel
// sweep writes disjoint spans of one call-local r buffer).
// ---------------------------------------------------------------------------

TEST(EngineArenaParallelTest, ThreadCountsBitIdenticalOnScalingDb) {
  const CQ q = UniversityQ1();
  std::vector<Replica> replicas = MakeReplicas(q, BuildStudentScalingDb(6, 3));
  ExpectReplicasMatchOracles(replicas, q, "scaling db after build");

  // And again on the patched engines, after an insert that opens a slice.
  const Atom& atom = q.atoms().front();
  Tuple tuple;
  for (size_t t = 0; t < atom.arity(); ++t) {
    tuple.push_back(V("zz" + std::to_string(t)));
  }
  for (Replica& replica : replicas) {
    ShapleyEngine& engine = replica.engine;
    auto inserted = engine.InsertFact(replica.db, atom.relation, tuple, true);
    ASSERT_TRUE(inserted.ok()) << inserted.error();
  }
  ExpectReplicasMatchOracles(replicas, q, "scaling db after insert");
}


// ---------------------------------------------------------------------------
// Limb-width boundaries: a vector of len cells takes ⌈len/64⌉ limbs per
// cell, so the root's sat changes width as its universe u crosses 64, 128
// and 192 facts (len 65, 129, 193), and so do the root-scale contexts and
// every leaf's r.
// ---------------------------------------------------------------------------

// A q1 database with exactly `endo` endogenous facts, all seen by q1.
// Student i's Stud fact is endogenous for i % 4 == 1; its TA fact is
// endogenous for i % 5 == 0, exogenous (the student can never satisfy q1)
// for i % 5 == 3, and absent otherwise; it holds 1 + i % 3 endogenous
// registrations, and one exogenous one for i % 7 == 0. Facts are added in
// that order until the count is reached.
Database WidthBoundaryDb(size_t endo) {
  Database db;
  for (size_t i = 0; db.endogenous_count() < endo; ++i) {
    const Value student = V("s" + std::to_string(i));
    db.AddFact("Stud", {student}, i % 4 == 1);
    if (db.endogenous_count() < endo && (i % 5 == 0 || i % 5 == 3)) {
      db.AddFact("TA", {student}, i % 5 == 0);
    }
    if (i % 7 == 0) db.AddExo("Reg", {student, V("x")});
    for (size_t t = 0; t <= i % 3 && db.endogenous_count() < endo; ++t) {
      db.AddEndo("Reg", {student, V("c" + std::to_string(t))});
    }
  }
  return db;
}

// n!·Shapley of every endogenous fact (endo-index order) from the per-fact
// CntSat oracle, run once per symmetry class. q1 sees a student only
// through the states of its Stud and TA facts and its numbers of
// endogenous and exogenous registrations, and a course only inside one
// registration, so facts of one relation whose students agree on those
// are images of each other under a renaming of students and courses.
std::vector<BigInt> Q1OracleNumerators(const Database& db) {
  const CQ q = UniversityQ1();
  auto state = [&](const std::string& relation, const Value& student) {
    const FactId fact = db.FindFact(relation, {student});
    return fact == kNoFact ? 0 : db.is_endogenous(fact) ? 2 : 1;
  };
  std::map<Value, std::pair<int, int>> regs;  // student -> (endo, exo)
  for (FactId fact : db.facts_of(db.schema().Find("Reg"))) {
    auto& [endo, exo] = regs[db.tuple_of(fact)[0]];
    ++(db.is_endogenous(fact) ? endo : exo);
  }
  const Rational factorial(Combinatorics::Factorial(db.endogenous_count()));
  std::map<std::vector<int>, BigInt> by_class;
  std::vector<BigInt> numerators;
  for (FactId fact : db.endogenous_facts()) {
    const std::string& relation = db.schema().name(db.relation_of(fact));
    const Value& student = db.tuple_of(fact)[0];
    const int atom = relation == "Stud" ? 0 : (relation == "TA" ? 1 : 2);
    const std::vector<int> key = {atom, state("Stud", student),
                                  state("TA", student), regs[student].first,
                                  regs[student].second};
    auto it = by_class.find(key);
    if (it == by_class.end()) {
      auto value = ShapleyViaCountSat(q, db, fact);
      EXPECT_TRUE(value.ok()) << value.error();
      const Rational scaled = value.value() * factorial;
      EXPECT_TRUE(scaled.denominator().IsOne());
      it = by_class.emplace(key, scaled.numerator()).first;
    }
    numerators.push_back(it->second);
  }
  return numerators;
}

void ExpectReplicaNumeratorsMatchOracle(std::vector<Replica>& replicas,
                                        const std::string& label) {
  const std::vector<BigInt> oracle = Q1OracleNumerators(replicas.front().db);
  for (Replica& replica : replicas) {
    ASSERT_EQ(replica.db.endogenous_count(), oracle.size()) << label;
    auto numerators = replica.engine.AllNumerators(Threads(replica.threads));
    ASSERT_TRUE(numerators.ok()) << numerators.error();
    EXPECT_EQ(numerators.value(), oracle)
        << label << ", t=" << replica.threads;
  }
}

TEST(EngineArenaWidthTest, NumeratorsHoldAcrossLimbWidthBoundaries) {
  const CQ q = UniversityQ1();
  for (size_t boundary : {64, 128, 192}) {
    // Built at u = boundary − 1; two inserts grow the root across the
    // boundary (an insert into a student's registrations, then one that
    // opens a new student's slice), and deleting them shrinks it back.
    std::vector<Replica> replicas =
        MakeReplicas(q, WidthBoundaryDb(boundary - 1));
    const std::string b = "boundary " + std::to_string(boundary);
    auto check = [&](const std::string& step) {
      const size_t u = replicas.front().db.endogenous_count();
      ExpectReplicaNumeratorsMatchOracle(
          replicas, b + ", " + step + " u=" + std::to_string(u));
    };
    check("built at");
    const std::vector<std::pair<std::string, std::string>> inserts = {
        {"s0", "extra"}, {"newcomer", "c0"}};
    std::vector<FactId> added;
    for (const auto& [student, course] : inserts) {
      FactId id = kNoFact;
      for (Replica& replica : replicas) {
        auto inserted = replica.engine.InsertFact(
            replica.db, "Reg", {V(student), V(course)}, true);
        ASSERT_TRUE(inserted.ok()) << inserted.error();
        id = inserted.value();
      }
      added.push_back(id);
      check("grown to");
    }
    for (auto it = added.rbegin(); it != added.rend(); ++it) {
      for (Replica& replica : replicas) {
        ASSERT_TRUE(replica.engine.DeleteFact(replica.db, *it).ok());
      }
      check("shrunk to");
    }
  }
}

// ---------------------------------------------------------------------------
// Footprint over long sessions: state that outlives its use would grow the
// engine while the database's shape stays put.
// ---------------------------------------------------------------------------

// One student of a q1 session: its registrations and the spare course that
// registration swaps rotate through.
struct Student {
  std::string name;
  std::vector<std::string> regs;
  std::string spare;
};

// `count` students: student i holds 1 + i % 3 registrations among courses
// c0..c6 and one spare course.
std::vector<Student> MakeStudents(size_t count) {
  std::vector<Student> students(count);
  for (size_t i = 0; i < count; ++i) {
    Student& student = students[i];
    student.name = "s" + std::to_string(i);
    for (size_t t = 0; t <= 1 + i % 3; ++t) {
      student.regs.push_back("c" + std::to_string((i + t) % 7));
    }
    student.spare = student.regs.back();
    student.regs.pop_back();
  }
  return students;
}

// The students' facts: Stud (endogenous for 1 of every 4), TA (endogenous,
// for 2 of every 5) and every registration (endogenous).
Database StudentsDb(const std::vector<Student>& students) {
  Database db;
  for (size_t i = 0; i < students.size(); ++i) {
    const Student& student = students[i];
    db.AddFact("Stud", {V(student.name)}, i % 4 == 1);
    if (i % 5 == 0 || i % 5 == 2) db.AddEndo("TA", {V(student.name)});
    for (const std::string& course : student.regs) {
      db.AddEndo("Reg", {V(student.name), V(course)});
    }
  }
  return db;
}

TEST(EngineArenaTest, EngineBytesStayFlatUnderStationarySwaps) {
  std::vector<Student> students = MakeStudents(24);
  Database db = StudentsDb(students);
  auto built = ShapleyEngine::Build(UniversityQ1(), db);
  ASSERT_TRUE(built.ok()) << built.error();
  ShapleyEngine engine = std::move(built).value();
  // The engine keeps an (absent) leaf for every fact it has seen: with each
  // spare inserted and deleted once, the swaps below change no shape.
  for (const Student& student : students) {
    const Tuple spare = {V(student.name), V(student.spare)};
    auto inserted = engine.InsertFact(db, "Reg", spare, true);
    ASSERT_TRUE(inserted.ok()) << inserted.error();
    ASSERT_TRUE(engine.DeleteFact(db, inserted.value()).ok());
  }
  Rng rng(23);
  size_t bytes_at_200 = 0;
  for (int round = 1; round <= 2000; ++round) {
    Student& student = students[rng.UniformInt(students.size())];
    std::string& dropped = student.regs[rng.UniformInt(student.regs.size())];
    const FactId fact = db.FindFact("Reg", {V(student.name), V(dropped)});
    ASSERT_TRUE(engine.DeleteFact(db, fact).ok());
    const Tuple spare = {V(student.name), V(student.spare)};
    ASSERT_TRUE(engine.InsertFact(db, "Reg", spare, true).ok());
    std::swap(dropped, student.spare);
    ASSERT_TRUE(engine.AllNumerators(Threads(1)).ok());
    if (round == 200) bytes_at_200 = engine.ApproxMemoryBytes();
  }
  const double ratio = static_cast<double>(engine.ApproxMemoryBytes()) /
                       static_cast<double>(bytes_at_200);
  EXPECT_GE(ratio, 0.95);
  EXPECT_LE(ratio, 1.05);
}

TEST(EngineArenaTest, EngineGrownByInsertsStaysNearAFreshBuild) {
  // {students, bound on grown / fresh bytes}. 80 students hold 211
  // endogenous facts: growing, the root-scale vectors cross the 64-, 128-
  // and 192-cell width boundaries, so their stores move out of place and
  // the compactions run. 200 students hold 529.
  const std::pair<size_t, double> cases[] = {{80, 2.0}, {200, 1.2}};
  for (const auto& [student_count, bound] : cases) {
    SCOPED_TRACE(student_count);
    const Database full = StudentsDb(MakeStudents(student_count));
    ASSERT_GT(full.endogenous_count(), 192u);
    const CQ q = UniversityQ1();
    Database db;
    auto built = ShapleyEngine::Build(q, db);
    ASSERT_TRUE(built.ok()) << built.error();
    ShapleyEngine grown = std::move(built).value();
    for (size_t slot = 0; slot < full.fact_slot_count(); ++slot) {
      const FactId fact = static_cast<FactId>(slot);
      const std::string relation = full.schema().name(full.relation_of(fact));
      auto inserted = grown.InsertFact(db, relation, full.tuple_of(fact),
                                       full.is_endogenous(fact));
      ASSERT_TRUE(inserted.ok()) << inserted.error();
    }
    auto rebuilt = ShapleyEngine::Build(q, db);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.error();
    ShapleyEngine fresh = std::move(rebuilt).value();
    auto grown_numerators = grown.AllNumerators(Threads(1));
    auto fresh_numerators = fresh.AllNumerators(Threads(1));
    ASSERT_TRUE(grown_numerators.ok() && fresh_numerators.ok());
    EXPECT_EQ(grown_numerators.value(), fresh_numerators.value());
    // Inserts alone leave no absent leaf, so the grown recursion's orbits
    // are a fresh build's.
    EXPECT_EQ(grown.OrbitIds(), fresh.OrbitIds());
    EXPECT_LE(static_cast<double>(grown.ApproxMemoryBytes()),
              bound * static_cast<double>(fresh.ApproxMemoryBytes()));
  }
}

}  // namespace
}  // namespace shapcq
