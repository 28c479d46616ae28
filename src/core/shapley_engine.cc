#include "core/shapley_engine.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "core/atom_pattern.h"
#include "core/count_sat.h"
#include "core/engine_arena.h"
#include "core/plan.h"
#include "query/analysis.h"
#include "util/cancel.h"
#include "util/check.h"

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
  // same id. Incremental maintenance reads the steps to route a fact from
  // the root to its leaf (or to the root-variable node that has no slice
  // for its root value yet).
  struct Node {
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
  size_t global_free_endo = 0;  // endo facts matching no atom pattern
  std::vector<Node> nodes;      // indexed by arena node id

  // The numeric core: node structure, every count vector (memoized sat and
  // per-node products) and the evaluation sweep.
  EngineArena arena;

  // One orbit of endogenous facts: its representative leaf (its first
  // member's; -1 for the null players' orbit) and, once valued since the
  // last mutation, its value as the numerator over the denominator n! =
  // |Dn|! that every value shares, and reduced — one gcd per orbit, against
  // D = n!/G (see WeightRow), whose members get copies.
  struct Orbit {
    int leaf = -1;
    bool valued = false;
    BigInt numerator;
    Rational value;
  };

  // Per endogenous fact (endo-index order): its ground leaf (-1 for null
  // players) and its orbit id. Mutations keep leaf_of_endo exact and mark
  // the orbits stale; the next query recollects them and their values.
  std::vector<int> leaf_of_endo;
  std::vector<size_t> orbit_of_endo;
  std::vector<Orbit> orbits;
  bool orbits_dirty = true;
  size_t orbit_count = 0;  // orbits at the last all-facts query (stats())

  // Build-time cancellation: set only for the duration of Build()'s
  // BuildNode recursion (incremental subtree builds inside a mutation are
  // never cancelled — each mutation is atomic w.r.t. cancellation). Once
  // the token expires, build_cancelled makes every remaining recursion step
  // return a placeholder leaf immediately, so the unwind is prompt; Build()
  // then discards the whole engine.
  const CancelToken* build_cancel = nullptr;
  bool build_cancelled = false;

  // Registers the routing metadata of the node the arena just appended.
  int AddNode(int id, Node node) {
    SHAPCQ_CHECK(static_cast<size_t>(id) == nodes.size());
    nodes.push_back(std::move(node));
    return id;
  }

  int BuildNode(const SafePlan& step, const IndexLists& lists);
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
    out.reserve(orbit_of_endo.size());
    for (size_t id : orbit_of_endo) out.push_back(orbits[id].*field);
    return Result<std::vector<T>>::Ok(std::move(out));
  }
  int MatchingAtom(FactId fact) const;
  int Route(FactId fact, size_t atom_id) const;
  void ApplyInsert(FactId fact);
  void ApplyDelete(FactId fact, bool endo, size_t endo_idx);
};

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
    return AddNode(arena.AddGround(false, GroundFactState::kAbsent), Node());
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
      const int id =
          AddNode(arena.AddGround(negated, node.leaf_state), std::move(node));
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
  std::vector<Rational> values;
  if (!arena.Numerators(leaves, db->endogenous_count(), global_free_endo,
                        num_threads, cancel, &numerators, &values)) {
    return false;
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    Orbit& orbit = orbits[ids[i]];
    orbit.numerator = std::move(numerators[i]);
    orbit.value = std::move(values[i]);
    orbit.valued = true;
  }
  return true;
}

// Orbits are (re)collected lazily after Build and after every mutation, in
// two integer passes. The first signs every node, children before parents: a
// ground leaf takes one of six fixed codes from its polarity and presence
// state, an inner node interns its kind plus its children's sorted codes, so
// equal codes mean structurally identical subtrees. The second keys each
// endogenous fact by the codes along its leaf-to-root path. Equal keys -> the
// leaves are related by an automorphism of the recursion -> the facts are
// symmetric players with equal Shapley values. Ids are dense in first-seen
// endo-index order, and the null players (empty key) share one. The codes
// die with the call; the memoized values it drops are stale by then.
void ShapleyEngine::Impl::RefreshOrbitsIfDirty() {
  if (!orbits_dirty) return;
  constexpr int kLeafCodes = 6;  // {plain, negated} x {absent, exo, endo}
  std::vector<int> code(nodes.size());
  std::map<std::vector<int>, int> code_of_key;
  std::vector<int> key;
  const std::vector<int32_t>& topo = arena.TopoOrder();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const int node = *it;
    if (arena.kind(node) == Kind::kGround) {
      code[node] = 3 * static_cast<int>(arena.negated(node)) +
                   static_cast<int>(nodes[node].leaf_state);
      continue;
    }
    key.assign(1, static_cast<int>(arena.kind(node)));
    for (size_t j = 0; j < arena.child_count(node); ++j) {
      key.push_back(code[arena.child(node, j)]);
    }
    std::sort(key.begin() + 1, key.end());
    const int fresh = kLeafCodes + static_cast<int>(code_of_key.size());
    code[node] = code_of_key.try_emplace(key, fresh).first->second;
  }

  const size_t endo_count = leaf_of_endo.size();
  std::map<std::vector<int>, size_t> id_of_key;
  orbit_of_endo.assign(endo_count, 0);
  orbits.clear();
  for (size_t e = 0; e < endo_count; ++e) {
    key.clear();
    for (int node = leaf_of_endo[e]; node >= 0; node = arena.parent(node)) {
      key.push_back(code[node]);
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
  orbit_count = orbits.size();
  return true;
}

// ---------------------------------------------------------------------------
// Incremental maintenance
// ---------------------------------------------------------------------------

// The atom whose pattern the fact matches, or -1 when the query cannot see
// it. Also answers for a tombstoned fact (the database keeps its relation
// and tuple).
int ShapleyEngine::Impl::MatchingAtom(FactId fact) const {
  const std::string& relation = db->schema().name(db->relation_of(fact));
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (query.atom(i).relation == relation &&
        MatchesPattern(patterns[i], db->tuple_of(fact))) {
      return static_cast<int>(i);  // self-join-free: at most one atom
    }
  }
  return -1;
}

// Walks from the root toward the fact's ground leaf by the nodes' plan
// steps: a component node goes to its atom's component, a root-variable
// node to the slice of the fact's root value. Returns the leaf, or the
// root-variable node that has no slice for that value yet.
int ShapleyEngine::Impl::Route(FactId fact, size_t atom_id) const {
  int node = arena.root();
  while (arena.kind(node) != Kind::kGround) {
    const SafePlan& step = *nodes[node].step;
    if (arena.kind(node) == Kind::kComponent) {
      node = arena.child(node, step.child_of_atom[atom_id]);
      continue;
    }
    const std::map<int32_t, int>& slices = nodes[node].child_by_value;
    const auto it =
        slices.find(db->tuple_of(fact)[step.root_position[atom_id]].id);
    if (it == slices.end()) break;
    node = it->second;
  }
  return node;
}

// Index half of InsertFact; the fact is already in the database. Exactly one
// root-to-leaf path is dirtied: an existing empty leaf fills, or a fresh
// subtree opens the slice of an unseen root value.
void ShapleyEngine::Impl::ApplyInsert(FactId fact) {
  const bool endo = db->is_endogenous(fact);
  // Placeholder entry (null player until the fact lands in a leaf); the new
  // fact's endo index is by construction the last one.
  if (endo) leaf_of_endo.push_back(-1);
  const int atom_id = MatchingAtom(fact);
  if (atom_id < 0) {
    // The query cannot see this fact. An endogenous one still dilutes every
    // Shapley value (the player count grew): count it free. An exogenous one
    // changes nothing — even the memo stays valid.
    if (!endo) return;
    ++global_free_endo;
    orbits_dirty = true;
    return;
  }
  const int node = Route(fact, static_cast<size_t>(atom_id));
  if (arena.kind(node) == Kind::kGround) {
    Node& leaf = nodes[node];
    SHAPCQ_CHECK_MSG(leaf.step->atom_ids[0] == static_cast<size_t>(atom_id) &&
                         leaf.leaf_state == GroundFactState::kAbsent,
                     "insert routed to an occupied ground leaf");
    leaf.leaf_state = PresentState(*db, fact);
    arena.SetLeafSat(node, leaf.leaf_state);
    if (endo) leaf_of_endo[db->endo_index(fact)] = node;
  } else {
    // Unseen root value: build the new slice's subtree (just this fact in
    // its atom's list; every other atom of the slice is empty) and splice
    // it in as a fresh child.
    const SafePlan& step = *nodes[node].step;
    IndexLists slice_lists(query.atom_count());
    slice_lists[atom_id].push_back(fact);
    const int child = BuildNode(*step.children[0], slice_lists);
    const int32_t value_id = db->tuple_of(fact)[step.root_position[atom_id]].id;
    nodes[node].child_by_value[value_id] = child;
    arena.SpliceNewChild(node, child);
  }
  orbits_dirty = true;
}

// Index half of DeleteFact; the fact is already tombstoned in the database.
// `endo`/`endo_idx` describe the fact BEFORE removal.
void ShapleyEngine::Impl::ApplyDelete(FactId fact, bool endo, size_t endo_idx) {
  if (endo) {
    leaf_of_endo.erase(leaf_of_endo.begin() + static_cast<ptrdiff_t>(endo_idx));
  }
  const int atom_id = MatchingAtom(fact);
  if (atom_id < 0) {
    // Exogenous and outside the index: no count is affected.
    if (!endo) return;
    // Globally free: shrinking the player count re-weights every value.
    SHAPCQ_CHECK(global_free_endo > 0);
    --global_free_endo;
    orbits_dirty = true;
    return;
  }
  const int leaf = Route(fact, static_cast<size_t>(atom_id));
  const GroundFactState absent = GroundFactState::kAbsent;
  SHAPCQ_CHECK_MSG(arena.kind(leaf) == Kind::kGround &&
                       nodes[leaf].leaf_state != absent,
                   "delete routed to an empty ground leaf");
  nodes[leaf].leaf_state = absent;
  arena.SetLeafSat(leaf, absent);
  orbits_dirty = true;
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
  impl.leaf_of_endo.assign(db.endogenous_count(), -1);

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
  impl.global_free_endo = db.endogenous_count() - relevant_endo;

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
  impl.orbit_count = impl.orbits.size();
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
  const Impl& impl = *impl_;
  const auto null_players =
      std::count(impl.leaf_of_endo.begin(), impl.leaf_of_endo.end(), -1);
  return Stats{impl.nodes.size(), static_cast<size_t>(null_players),
               impl.orbit_count};
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
  return bytes;
}

}  // namespace shapcq
