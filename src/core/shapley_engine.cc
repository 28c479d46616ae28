#include "core/shapley_engine.h"

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/atom_pattern.h"
#include "core/count_sat.h"
#include "core/engine_arena.h"
#include "core/plan.h"
#include "query/analysis.h"
#include "util/cancel.h"
#include "util/check.h"
#include "util/combinatorics.h"

namespace shapcq {

namespace {

// Matched facts by query atom id: the recursion's working set. A step reads
// the entries of its own atoms; slicing copies 32-bit FactIds, never Tuples.
using IndexLists = std::vector<std::vector<FactId>>;

// The leaf state of a matched fact.
GroundFactState PresentState(const Database& db, FactId fact) {
  return db.is_endogenous(fact) ? GroundFactState::kEndogenous
                                : GroundFactState::kExogenous;
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine state
// ---------------------------------------------------------------------------

struct ShapleyEngine::Impl {
  using Kind = EngineArena::NodeKind;

  // Routing metadata of one recursion node: the plan step it instantiates
  // and the state that step leaves to the data. Its structure (kind,
  // parent, children, polarity) and counts live in the arena under the
  // same id. Incremental maintenance reads the step to steer an inserted
  // fact from the root to its leaf (or to build a fresh subtree for a root
  // value the database has not seen before); orbit keys are built from the
  // signatures.
  struct Node {
    int sig = -1;                    // hash-consed structural signature
    const SafePlan* step = nullptr;  // null only in a cancelled build
    // kGround: presence state of the leaf's (unique) matching fact.
    GroundFactState leaf_state = GroundFactState::kAbsent;
    // kRootVar: root value id -> child node (the slice map, kept live).
    std::map<int32_t, int> child_by_value;
  };

  const Database* db = nullptr;
  // The query, its safe plan (compiled once per Build and never replaced,
  // so the nodes' step pointers stay valid; steps name atoms by their index
  // in `query`) and each atom's match pattern by atom id. Relations are
  // matched by name: a relation may enter the schema only after Build (the
  // first insert into a previously fact-free relation declares it).
  CQ query;
  std::unique_ptr<SafePlan> plan;
  std::vector<AtomPattern> patterns;
  size_t endo_count = 0;
  size_t global_free_endo = 0;  // endo facts matching no atom pattern
  std::vector<Node> nodes;      // indexed by arena node id

  // The numeric core: node structure, every count vector (memoized sat and
  // per-node products) and the evaluation sweep.
  EngineArena arena;

  // One orbit of endogenous facts: its representative leaf (its first
  // member's; -1 for the null players' orbit) and, once valued since the
  // last mutation, its value as the numerator over the denominator n! =
  // |Dn|! that every value shares, and reduced — one gcd per orbit, whose
  // members get copies.
  struct Orbit {
    int leaf = -1;
    bool valued = false;
    BigInt numerator;
    Rational value;
  };

  // Per endogenous fact (endo-index order): its ground leaf (-1 for null
  // players) and its orbit id. Mutations keep leaf_of_endo exact; the
  // orbits and their values are rebuilt lazily (orbits_dirty).
  std::vector<int> leaf_of_endo;
  std::vector<size_t> orbit_of_endo;
  std::vector<Orbit> orbits;
  BigInt denominator;  // n! for the current player count
  bool orbits_dirty = false;

  // The ground leaf of each matched fact. Endogenous facts without one are
  // globally free; exogenous facts without one have no effect on any count.
  std::unordered_map<FactId, int> leaf_of_fact;

  std::unordered_map<std::string, int> sig_interner;
  Stats stats;

  // Build-time cancellation: set only for the duration of Build()'s
  // BuildNode recursion (incremental subtree builds inside a mutation are
  // never cancelled — each mutation is atomic w.r.t. cancellation). Once
  // the token expires, build_cancelled makes every remaining recursion step
  // return a placeholder leaf immediately, so the unwind is prompt; Build()
  // then discards the whole engine.
  const CancelToken* build_cancel = nullptr;
  bool build_cancelled = false;

  int Intern(const std::string& canonical) {
    return sig_interner
        .emplace(canonical, static_cast<int>(sig_interner.size()))
        .first->second;
  }

  // Registers the routing metadata of the node the arena just appended and
  // signs it.
  int AddNode(int id, Node node) {
    SHAPCQ_CHECK(static_cast<size_t>(id) == nodes.size());
    nodes.push_back(std::move(node));
    ResignNode(id);
    return id;
  }

  int BuildNode(const SafePlan& step, const IndexLists& lists);
  void ResignNode(int node_id);
  bool ValueOrbits(const std::vector<size_t>& ids, size_t num_threads,
                   const CancelToken* cancel);
  void RefreshOrbitsIfDirty();
  bool ValueAllOrbits(const ParallelOptions& options,
                      const CancelToken* cancel);

  // Every endogenous fact's `field` of its orbit, endo-index order, once
  // ValueAllOrbits has valued the orbits still missing from the memo.
  template <typename T>
  Result<std::vector<T>> PerFact(T Orbit::*field,
                                 const ParallelOptions& options,
                                 const CancelToken* cancel) {
    if (!ValueAllOrbits(options, cancel)) {
      return Result<std::vector<T>>::Error(CancelToken::kCancelledMessage);
    }
    std::vector<T> out;
    out.reserve(endo_count);
    for (size_t id : orbit_of_endo) out.push_back(orbits[id].*field);
    return Result<std::vector<T>>::Ok(std::move(out));
  }
  void ApplyInsert(FactId fact);
  void RouteInsert(int node_id, FactId fact, size_t atom_id);
  void ApplyDelete(FactId fact, bool endo, size_t endo_idx);
  void PatchAncestors(int dirty);
  void RefreshDerivedState();
};

// ---------------------------------------------------------------------------
// Structural signatures (hash-consed; recomputed along dirtied paths)
// ---------------------------------------------------------------------------

// Re-derives the node's canonical signature from its current state and its
// children's (already current) signatures, and interns it. Used both by the
// initial bottom-up build and by mutation patches walking a dirty path.
void ShapleyEngine::Impl::ResignNode(int node_id) {
  std::string canonical;
  switch (arena.kind(node_id)) {
    case Kind::kGround: {
      const int negated = arena.negated(node_id) ? 1 : 0;
      const int state = static_cast<int>(nodes[node_id].leaf_state);
      canonical = "G|" + std::to_string(negated) + "|" + std::to_string(state);
      break;
    }
    case Kind::kComponent:
    case Kind::kRootVar: {
      const size_t m = arena.child_count(node_id);
      std::vector<int> child_sigs;
      child_sigs.reserve(m);
      for (size_t j = 0; j < m; ++j) {
        child_sigs.push_back(nodes[arena.child(node_id, j)].sig);
      }
      std::sort(child_sigs.begin(), child_sigs.end());
      canonical = arena.kind(node_id) == Kind::kComponent ? "C" : "R";
      for (int sig : child_sigs) canonical += "|" + std::to_string(sig);
      break;
    }
  }
  nodes[node_id].sig = Intern(canonical);
}

// ---------------------------------------------------------------------------
// Recursion: instantiates the compiled plan over the data (mirrors CoreCount
// in count_sat.cc). Runs at Build and, incrementally, whenever an insert
// opens a subtree for an unseen root value. Every node goes into the arena
// as soon as its children exist.
// ---------------------------------------------------------------------------

int ShapleyEngine::Impl::BuildNode(const SafePlan& step,
                                   const IndexLists& lists) {
  // Cancelled build: synthesize an inert leaf so every pending ancestor
  // finishes constructing with its invariants intact (Build() throws the
  // whole engine away afterwards). Numeric content is irrelevant — no value
  // is ever served from a cancelled build.
  if (build_cancel != nullptr && (build_cancelled || build_cancel->Expired())) {
    build_cancelled = true;
    CountVector inert = GroundLeafSat(false, GroundFactState::kAbsent);
    return AddNode(arena.AddGround(false, std::move(inert)), Node());
  }

  Node node;
  node.step = &step;
  switch (step.kind) {
    case SafePlan::Kind::kIndependentJoin: {
      // One child per variable-connected component. Components cover
      // disjoint atoms, so each child reads its own entries of `lists`.
      std::vector<int> children;
      children.reserve(step.children.size());
      for (const auto& child : step.children) {
        children.push_back(BuildNode(*child, lists));
      }
      return AddNode(arena.AddInner(Kind::kComponent, children),
                     std::move(node));
    }
    case SafePlan::Kind::kAtomLeaf: {
      // A single ground atom (Lemma 3.2 base case, extended for negation).
      const std::vector<FactId>& list = lists[step.atom_ids[0]];
      SHAPCQ_CHECK_MSG(list.size() <= 1,
                       "ground atom with more than one matching fact");
      const bool negated = query.atom(step.atom_ids[0]).negated;
      if (!list.empty()) node.leaf_state = PresentState(*db, list[0]);
      CountVector sat = GroundLeafSat(negated, node.leaf_state);
      const int id = AddNode(arena.AddGround(negated, std::move(sat)),
                             std::move(node));
      if (!list.empty()) leaf_of_fact[list[0]] = id;
      if (nodes[id].leaf_state == GroundFactState::kEndogenous) {
        leaf_of_endo[db->endo_index(list[0])] = id;
      }
      return id;
    }
    case SafePlan::Kind::kRootProject:
      break;
  }

  // Slice by the root variable's value, read at its first position: the
  // atom patterns admit only facts holding one value at all of a variable's
  // positions.
  std::map<int32_t, IndexLists> slices;
  for (size_t atom_id : step.atom_ids) {
    for (FactId fact : lists[atom_id]) {
      // shapcq::Value spelled out: inside ShapleyEngine's scope the bare
      // name resolves to the Value() member function.
      const shapcq::Value root_value =
          db->tuple_of(fact)[step.root_position[atom_id]];
      auto [it, inserted] = slices.try_emplace(root_value.id);
      if (inserted) it->second.resize(query.atom_count());
      it->second[atom_id].push_back(fact);
    }
  }

  std::vector<int> children;
  for (const auto& [value_id, slice_lists] : slices) {
    const int child = BuildNode(*step.children[0], slice_lists);
    children.push_back(child);
    node.child_by_value[value_id] = child;
  }
  return AddNode(arena.AddInner(Kind::kRootVar, children), std::move(node));
}

// ---------------------------------------------------------------------------
// Values and orbits
// ---------------------------------------------------------------------------

// Values the orbits `ids`, none valued yet, with one arena call over their
// representatives, and memoizes them only if the call finished: a cancelled
// call keeps nothing.
bool ShapleyEngine::Impl::ValueOrbits(const std::vector<size_t>& ids,
                                      size_t num_threads,
                                      const CancelToken* cancel) {
  std::vector<int> leaves;
  leaves.reserve(ids.size());
  for (size_t id : ids) leaves.push_back(orbits[id].leaf);
  std::vector<BigInt> numerators;
  if (!arena.Numerators(leaves, endo_count, global_free_endo, num_threads,
                        cancel, &numerators)) {
    return false;
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    Orbit& orbit = orbits[ids[i]];
    orbit.numerator = std::move(numerators[i]);
    orbit.value = Rational(orbit.numerator, denominator);
    orbit.valued = true;
  }
  return true;
}

// Orbits are (re)collected lazily after Build and after every mutation: one
// pass over the endogenous facts, keying each by the (partly re-interned)
// signatures along its leaf-to-root path. Equal keys -> the leaves are
// related by an automorphism of the recursion -> the facts are symmetric
// players with equal Shapley values. Ids are dense in first-seen
// endo-index order, and the null players (empty key) share one. Pure
// integer work; the memoized values it drops are stale by then.
void ShapleyEngine::Impl::RefreshOrbitsIfDirty() {
  if (!orbits_dirty) return;
  std::map<std::vector<int>, size_t> id_of_key;
  std::vector<int> key;
  orbit_of_endo.assign(endo_count, 0);
  orbits.clear();
  for (size_t e = 0; e < endo_count; ++e) {
    key.clear();
    for (int node = leaf_of_endo[e]; node >= 0; node = arena.parent(node)) {
      key.push_back(nodes[node].sig);
    }
    const auto [it, fresh] = id_of_key.try_emplace(key, orbits.size());
    if (fresh) {
      Orbit orbit;
      orbit.leaf = leaf_of_endo[e];
      orbit.valued = orbit.leaf < 0;
      orbits.push_back(std::move(orbit));
    }
    orbit_of_endo[e] = it->second;
  }
  denominator = Combinatorics::Factorial(endo_count);
  orbits_dirty = false;
}

// Values every orbit still missing from the memo with one arena call (inline
// at one thread, over a pool at more — see EngineArena::Numerators), which
// polls `cancel` before its sweep, between levels and before each orbit's
// assembly; returns false on expiry, with nothing new memoized. Memoized
// values are pure functions of the built index, so reusing them preserves
// bit-identity.
bool ShapleyEngine::Impl::ValueAllOrbits(const ParallelOptions& options,
                                         const CancelToken* cancel) {
  if (cancel != nullptr && !cancel->Enabled()) cancel = nullptr;
  RefreshOrbitsIfDirty();
  std::vector<size_t> unvalued;
  for (size_t id = 0; id < orbits.size(); ++id) {
    if (!orbits[id].valued) unvalued.push_back(id);
  }
  if (!ValueOrbits(unvalued, options.num_threads, cancel)) return false;
  stats.orbit_count = orbits.size();
  return true;
}

// ---------------------------------------------------------------------------
// Incremental maintenance
// ---------------------------------------------------------------------------

// Re-signs every ancestor of `dirty` (whose own sig the caller has already
// updated), bottom-up along the single root-to-leaf path whose counts the
// arena re-derived when the caller stored the change, then drops the
// derived state.
void ShapleyEngine::Impl::PatchAncestors(int dirty) {
  for (int node = arena.parent(dirty); node >= 0; node = arena.parent(node)) {
    ResignNode(node);
  }
  RefreshDerivedState();
}

// Epilogue of Build and of every value-affecting mutation: recomputes the
// stats and drops the orbits and their values, rebuilt lazily on the next
// query. After a mutation all of them are stale even though only one path's
// count vectors moved: the player count or the root's |Sat| changed, which
// re-weights every value.
void ShapleyEngine::Impl::RefreshDerivedState() {
  orbits_dirty = true;
  endo_count = db->endogenous_count();
  stats.node_count = nodes.size();
  stats.null_player_count = 0;
  for (int leaf : leaf_of_endo) {
    if (leaf < 0) ++stats.null_player_count;
  }
}

// Steers an inserted fact (already in the database) down the recursion by
// the nodes' plan steps: through its atom's component, then slice by slice
// along its root values, ending in an existing empty leaf or a freshly built
// subtree for an unseen root value. Exactly one root-to-leaf path is
// dirtied.
void ShapleyEngine::Impl::RouteInsert(int node_id, FactId fact,
                                      size_t atom_id) {
  const SafePlan& step = *nodes[node_id].step;
  switch (arena.kind(node_id)) {
    case Kind::kGround: {
      Node& leaf = nodes[node_id];
      SHAPCQ_CHECK_MSG(step.atom_ids[0] == atom_id &&
                           leaf.leaf_state == GroundFactState::kAbsent,
                       "insert routed to an occupied ground leaf");
      leaf.leaf_state = PresentState(*db, fact);
      const bool negated = arena.negated(node_id);
      arena.SetLeafSat(node_id, GroundLeafSat(negated, leaf.leaf_state));
      leaf_of_fact[fact] = node_id;
      if (leaf.leaf_state == GroundFactState::kEndogenous) {
        leaf_of_endo[db->endo_index(fact)] = node_id;
      }
      ResignNode(node_id);
      PatchAncestors(node_id);
      return;
    }
    case Kind::kComponent: {
      RouteInsert(arena.child(node_id, step.child_of_atom[atom_id]), fact,
                  atom_id);
      return;
    }
    case Kind::kRootVar:
      break;
  }

  const shapcq::Value root_value =
      db->tuple_of(fact)[step.root_position[atom_id]];
  const std::map<int32_t, int>& slices = nodes[node_id].child_by_value;
  const auto child_it = slices.find(root_value.id);
  if (child_it != slices.end()) {
    RouteInsert(child_it->second, fact, atom_id);
    return;
  }

  // Unseen root value: the fact opens a new slice. Build its subtree (just
  // this fact in its atom's list; every other atom of the slice is empty)
  // and splice it in as a fresh child.
  IndexLists slice_lists(query.atom_count());
  slice_lists[atom_id].push_back(fact);
  const int child = BuildNode(*step.children[0], slice_lists);
  // BuildNode grew the node vector: `slices` may dangle, index afresh.
  nodes[node_id].child_by_value[root_value.id] = child;
  arena.SpliceNewChild(node_id, child);
  ResignNode(node_id);
  PatchAncestors(node_id);
}

// Index half of InsertFact; the fact is already in the database.
void ShapleyEngine::Impl::ApplyInsert(FactId fact) {
  const bool endo = db->is_endogenous(fact);
  if (endo) {
    // Placeholder entry (null player until routing lands in a leaf); the
    // new fact's endo index is by construction the last one.
    leaf_of_endo.push_back(-1);
  }
  const std::string& relation = db->schema().name(db->relation_of(fact));
  int atom_id = -1;
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (query.atom(i).relation == relation &&
        MatchesPattern(patterns[i], db->tuple_of(fact))) {
      atom_id = static_cast<int>(i);
      break;  // self-join-free: at most one atom per relation
    }
  }
  if (atom_id < 0) {
    // The query cannot see this fact. An endogenous one still dilutes every
    // Shapley value (the player count grew): count it free and invalidate.
    // An exogenous one changes nothing — even the memo stays valid.
    if (endo) {
      ++global_free_endo;
      RefreshDerivedState();
    }
    return;
  }
  RouteInsert(arena.root(), fact, static_cast<size_t>(atom_id));
}

// Index half of DeleteFact; the fact is already tombstoned in the database.
// `endo`/`endo_idx` describe the fact BEFORE removal.
void ShapleyEngine::Impl::ApplyDelete(FactId fact, bool endo, size_t endo_idx) {
  if (endo) {
    leaf_of_endo.erase(leaf_of_endo.begin() + static_cast<ptrdiff_t>(endo_idx));
  }
  const auto leaf_it = leaf_of_fact.find(fact);
  if (leaf_it != leaf_of_fact.end()) {
    const int leaf_id = leaf_it->second;
    leaf_of_fact.erase(leaf_it);
    const GroundFactState absent = GroundFactState::kAbsent;
    nodes[leaf_id].leaf_state = absent;
    arena.SetLeafSat(leaf_id, GroundLeafSat(arena.negated(leaf_id), absent));
    ResignNode(leaf_id);
    PatchAncestors(leaf_id);
    return;
  }
  if (endo) {
    // Globally free: shrinking the player count re-weights every value.
    SHAPCQ_CHECK(global_free_endo > 0);
    --global_free_endo;
    RefreshDerivedState();
  }
  // Exogenous and outside the index: no count is affected.
}

// ---------------------------------------------------------------------------
// Public interface
// ---------------------------------------------------------------------------

ShapleyEngine::ShapleyEngine() = default;
ShapleyEngine::~ShapleyEngine() = default;
ShapleyEngine::ShapleyEngine(ShapleyEngine&&) noexcept = default;
ShapleyEngine& ShapleyEngine::operator=(ShapleyEngine&&) noexcept = default;

Result<ShapleyEngine> ShapleyEngine::Build(const CQ& q, const Database& db,
                                           const CancelToken* cancel) {
  if (!IsSafe(q)) {
    return Result<ShapleyEngine>::Error(
        "ShapleyEngine requires safe negation: " + q.ToString());
  }
  if (!IsSelfJoinFree(q)) {
    return Result<ShapleyEngine>::Error(
        "ShapleyEngine requires a self-join-free query: " + q.ToString());
  }
  if (!IsHierarchical(q)) {
    return Result<ShapleyEngine>::Error(
        "ShapleyEngine requires a hierarchical query: " + q.ToString());
  }

  ShapleyEngine engine;
  engine.impl_ = std::make_unique<Impl>();
  Impl& impl = *engine.impl_;
  impl.db = &db;
  impl.query = q;
  auto plan = CompileSafePlan(q);
  SHAPCQ_CHECK_MSG(plan.ok(), "a safe, self-join-free, hierarchical query "
                              "has a safe plan");
  impl.plan = std::move(plan).value();
  impl.endo_count = db.endogenous_count();
  impl.leaf_of_endo.assign(impl.endo_count, -1);

  // Shared matched-fact index: every fact of every atom's relation, matched
  // once against the precompiled pattern.
  IndexLists lists(q.atom_count());
  size_t matched = 0;
  size_t relevant_endo = 0;
  for (size_t i = 0; i < q.atom_count(); ++i) {
    const Atom& atom = q.atom(i);
    impl.patterns.push_back(BuildAtomPattern(atom));
    const RelationId rel = db.schema().Find(atom.relation);
    for (FactId fact : db.facts_of(rel)) {
      if (!MatchesPattern(impl.patterns.back(), db.tuple_of(fact))) continue;
      lists[i].push_back(fact);
      ++matched;
      if (db.is_endogenous(fact)) ++relevant_endo;
    }
  }
  impl.global_free_endo = impl.endo_count - relevant_endo;

  // Heuristic pre-size: the recursion creates at most a few nodes per
  // matched fact (leaf groups plus their component/root-var spine).
  impl.nodes.reserve(2 * matched + 16);
  impl.arena.Reserve(impl.nodes.capacity());
  impl.build_cancel =
      (cancel != nullptr && cancel->Enabled()) ? cancel : nullptr;
  const int root = impl.BuildNode(*impl.plan, lists);
  impl.build_cancel = nullptr;  // mutations' subtree builds never cancel
  if (impl.build_cancelled) {
    return Result<ShapleyEngine>::Error(CancelToken::kCancelledMessage);
  }
  impl.arena.SetRoot(root);
  impl.RefreshDerivedState();
  return Result<ShapleyEngine>::Ok(std::move(engine));
}

CountVector ShapleyEngine::BaselineSat() const {
  SHAPCQ_CHECK(impl_ != nullptr);
  return impl_->arena.BaselineSat(impl_->global_free_endo);
}

int ShapleyEngine::EfficiencyTotal() const {
  SHAPCQ_CHECK(impl_ != nullptr);
  return impl_->arena.EfficiencyTotal();
}

Rational ShapleyEngine::Value(FactId f) {
  SHAPCQ_CHECK(impl_ != nullptr);
  Impl& impl = *impl_;
  SHAPCQ_CHECK_MSG(impl.db->is_endogenous(f), "Shapley of an exogenous fact");
  impl.RefreshOrbitsIfDirty();
  const size_t id = impl.orbit_of_endo[impl.db->endo_index(f)];
  if (!impl.orbits[id].valued) impl.ValueOrbits({id}, 1, nullptr);
  return impl.orbits[id].value;
}

std::vector<Rational> ShapleyEngine::AllValues() {
  return AllValues(ParallelOptions{});
}

std::vector<Rational> ShapleyEngine::AllValues(const ParallelOptions& options) {
  return AllValues(options, /*cancel=*/nullptr).value();
}

Result<std::vector<Rational>> ShapleyEngine::AllValues(
    const ParallelOptions& options, const CancelToken* cancel) {
  SHAPCQ_CHECK(impl_ != nullptr);
  return impl_->PerFact(&Impl::Orbit::value, options, cancel);
}

Result<std::vector<BigInt>> ShapleyEngine::AllNumerators(
    const ParallelOptions& options, const CancelToken* cancel) {
  SHAPCQ_CHECK(impl_ != nullptr);
  return impl_->PerFact(&Impl::Orbit::numerator, options, cancel);
}

std::vector<size_t> ShapleyEngine::OrbitIds() {
  SHAPCQ_CHECK(impl_ != nullptr);
  Impl& impl = *impl_;
  impl.RefreshOrbitsIfDirty();
  impl.stats.orbit_count = impl.orbits.size();
  return impl.orbit_of_endo;
}

Result<bool> ShapleyEngine::CheckInsert(const CQ& q, const Database& db,
                                        const std::string& relation,
                                        const Tuple& tuple) {
  const RelationId rel = db.schema().Find(relation);
  if (rel != kNoRelation && db.schema().arity(rel) != tuple.size()) {
    return Result<bool>::Error("InsertFact: arity mismatch for relation " +
                               relation);
  }
  // A relation the schema has not seen yet (no facts so far) can still be
  // mentioned by the query: validate against the atom's arity, or pattern
  // matching would index positions past the tuple's end.
  for (const Atom& atom : q.atoms()) {
    if (atom.relation == relation && atom.arity() != tuple.size()) {
      return Result<bool>::Error(
          "InsertFact: arity mismatch with query atom " + relation);
    }
  }
  if (rel != kNoRelation && db.FindFact(rel, tuple) != kNoFact) {
    return Result<bool>::Error("InsertFact: duplicate fact in " + relation);
  }
  return Result<bool>::Ok(true);
}

Result<FactId> ShapleyEngine::InsertFact(Database& db,
                                         const std::string& relation,
                                         Tuple tuple, bool endogenous) {
  SHAPCQ_CHECK(impl_ != nullptr);
  Impl& impl = *impl_;
  SHAPCQ_CHECK_MSG(&db == impl.db,
                   "InsertFact on a database the engine was not built on");
  auto checked = CheckInsert(impl.query, db, relation, tuple);
  if (!checked.ok()) return Result<FactId>::Error(checked.error());
  const FactId fact = db.AddFact(relation, std::move(tuple), endogenous);
  impl.ApplyInsert(fact);
  return Result<FactId>::Ok(fact);
}

Result<FactId> ShapleyEngine::DeleteFact(Database& db, FactId fact) {
  SHAPCQ_CHECK(impl_ != nullptr);
  Impl& impl = *impl_;
  SHAPCQ_CHECK_MSG(&db == impl.db,
                   "DeleteFact on a database the engine was not built on");
  if (fact < 0 || static_cast<size_t>(fact) >= db.fact_slot_count()) {
    return Result<FactId>::Error("DeleteFact: no such fact id " +
                                 std::to_string(fact));
  }
  if (db.is_removed(fact)) {
    return Result<FactId>::Error("DeleteFact: fact " + std::to_string(fact) +
                                 " is already removed");
  }
  const bool endo = db.is_endogenous(fact);
  const size_t endo_idx = endo ? db.endo_index(fact) : 0;
  db.RemoveFact(fact);
  impl.ApplyDelete(fact, endo, endo_idx);
  return Result<FactId>::Ok(fact);
}

ShapleyEngine::Stats ShapleyEngine::stats() const {
  SHAPCQ_CHECK(impl_ != nullptr);
  return impl_->stats;
}

size_t ShapleyEngine::ApproxMemoryBytes() const {
  SHAPCQ_CHECK(impl_ != nullptr);
  const Impl& impl = *impl_;
  size_t bytes = sizeof(Impl) + impl.arena.ApproxMemoryBytes();
  for (const Impl::Node& node : impl.nodes) {
    bytes += sizeof(Impl::Node);
    // The slice map, at a flat per-entry estimate: the budget needs growth
    // tracking, not allocator-exact container overheads.
    bytes += node.child_by_value.size() * 4 * sizeof(void*);
  }
  bytes += impl.leaf_of_endo.capacity() * sizeof(int);
  bytes += impl.orbit_of_endo.capacity() * sizeof(size_t);
  // The per-orbit memo: the objects, then only the heap limbs of their
  // numbers (the inline part is inside the object).
  bytes += impl.orbits.capacity() * sizeof(Impl::Orbit);
  for (const Impl::Orbit& orbit : impl.orbits) {
    bytes += orbit.numerator.ApproxMemoryBytes() - sizeof(BigInt);
    bytes += orbit.value.ApproxMemoryBytes() - sizeof(Rational);
  }
  bytes += impl.denominator.ApproxMemoryBytes() - sizeof(BigInt);
  bytes += impl.leaf_of_fact.size() * 4 * sizeof(void*);
  for (const auto& [canonical, sig] : impl.sig_interner) {
    (void)sig;
    bytes += canonical.capacity() + 4 * sizeof(void*);
  }
  return bytes;
}

}  // namespace shapcq
