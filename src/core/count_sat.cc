#include "core/count_sat.h"

#include <map>
#include <optional>

#include "core/atom_pattern.h"
#include "query/analysis.h"
#include "util/check.h"

namespace shapcq {

namespace {

// A fact projected to what the recursion needs: its tuple and endogeneity.
struct FactInfo {
  Tuple tuple;
  bool endogenous;
};

using AtomLists = std::vector<std::vector<FactInfo>>;

size_t EndoCount(const AtomLists& lists) {
  size_t count = 0;
  for (const auto& list : lists) {
    for (const FactInfo& fact : list) {
      if (fact.endogenous) ++count;
    }
  }
  return count;
}

// Lemma 3.2 with the negation extension. A positive ground atom must be
// present (a forced pick if endogenous, free if exogenous, impossible if
// absent); a negative one must be absent (the mirror image).
CountVector GroundLeafSat(bool negated, GroundFactState state) {
  if (!negated) {
    if (state == GroundFactState::kAbsent) return CountVector::Zero(0);
    if (state == GroundFactState::kExogenous) return CountVector::All(0);
    return CountVector::FromCounts({BigInt(0), BigInt(1)});  // forced pick
  }
  if (state == GroundFactState::kAbsent) return CountVector::All(0);
  if (state == GroundFactState::kExogenous) return CountVector::Zero(0);
  return CountVector::FromCounts({BigInt(1), BigInt(0)});  // forced non-pick
}

// Ground base case, reduced to the leaf-state table.
CountVector GroundAtomCount(const Atom& atom, const std::vector<FactInfo>& list) {
  SHAPCQ_CHECK_MSG(list.size() <= 1,
                   "ground atom with more than one matching fact");
  GroundFactState state = GroundFactState::kAbsent;
  if (!list.empty()) {
    state = list[0].endogenous ? GroundFactState::kEndogenous
                               : GroundFactState::kExogenous;
  }
  return GroundLeafSat(atom.negated, state);
}

CountVector CoreCount(const CQ& q, const AtomLists& lists) {
  SHAPCQ_CHECK(q.atom_count() == lists.size());

  // Decompose into variable-connected components; independent subqueries
  // multiply (convolution over disjoint fact universes).
  const auto components = AtomComponents(q);
  if (components.size() > 1) {
    CountVector result;  // identity of Convolve
    for (const auto& component : components) {
      CQ sub = q.Restrict(component);
      AtomLists sub_lists;
      for (size_t index : component) sub_lists.push_back(lists[index]);
      result.ConvolveWith(CoreCount(sub, sub_lists));
    }
    return result;
  }

  if (q.UsedVars().empty()) {
    // Connected and variable-free: a single ground atom.
    SHAPCQ_CHECK(q.atom_count() == 1);
    return GroundAtomCount(q.atom(0), lists[0]);
  }

  // Connected with variables: a hierarchical connected query has a root
  // variable occurring in every atom.
  std::optional<VarId> root = FindRootVariable(q);
  SHAPCQ_CHECK_MSG(root.has_value(),
                   "connected hierarchical subquery lacks a root variable");

  // Positions of the root variable per atom.
  std::vector<std::vector<size_t>> root_positions(q.atom_count());
  for (size_t i = 0; i < q.atom_count(); ++i) {
    const Atom& atom = q.atom(i);
    for (size_t pos = 0; pos < atom.terms.size(); ++pos) {
      if (atom.terms[pos].IsVar() && atom.terms[pos].var == *root) {
        root_positions[i].push_back(pos);
      }
    }
    SHAPCQ_CHECK(!root_positions[i].empty());
  }

  // Slice the facts by the value at the root positions. Facts with unequal
  // values at the root positions can join nothing: free.
  std::map<int32_t, AtomLists> slices;  // value id -> per-atom lists
  size_t free_endo = 0;
  for (size_t i = 0; i < q.atom_count(); ++i) {
    for (const FactInfo& fact : lists[i]) {
      const Value value = fact.tuple[root_positions[i][0]];
      bool consistent = true;
      for (size_t pos : root_positions[i]) {
        if (!(fact.tuple[pos] == value)) consistent = false;
      }
      if (!consistent) {
        if (fact.endogenous) ++free_endo;
        continue;
      }
      auto [it, inserted] = slices.try_emplace(value.id);
      if (inserted) it->second.resize(q.atom_count());
      it->second[i].push_back(fact);
    }
  }

  // q holds iff some slice holds; slices own disjoint facts, so the counts
  // of jointly-unsatisfying subsets convolve.
  CountVector unsat_all;  // over the union of slice universes
  for (auto& [value_id, slice_lists] : slices) {
    CQ sliced = q.Substitute(*root, Value{value_id});
    CountVector sat = CoreCount(sliced, slice_lists);
    unsat_all.ConvolveWith(sat.ComplementAgainstAll());
  }
  CountVector sat_all =
      CountVector::All(unsat_all.universe_size()) - unsat_all;
  return sat_all.Convolve(CountVector::All(free_endo));
}

}  // namespace

Result<CountVector> CountSat(const CQ& q, const Database& db) {
  if (!IsSafe(q)) {
    return Result<CountVector>::Error("CountSat requires safe negation: " +
                                      q.ToString());
  }
  if (!IsSelfJoinFree(q)) {
    return Result<CountVector>::Error("CountSat requires a self-join-free " +
                                      std::string("query: ") + q.ToString());
  }
  if (!IsHierarchical(q)) {
    return Result<CountVector>::Error("CountSat requires a hierarchical " +
                                      std::string("query: ") + q.ToString());
  }

  AtomLists lists(q.atom_count());
  size_t relevant_endo = 0;
  for (size_t i = 0; i < q.atom_count(); ++i) {
    const Atom& atom = q.atom(i);
    // Compile the atom's constant/equality constraints once; matching each
    // fact is then a linear scan instead of an O(arity^2) rederivation.
    const AtomPattern pattern = BuildAtomPattern(atom);
    const RelationId rel = db.schema().Find(atom.relation);
    for (FactId fact : db.facts_of(rel)) {
      if (!MatchesPattern(pattern, db.tuple_of(fact))) continue;
      lists[i].push_back(FactInfo{db.tuple_of(fact), db.is_endogenous(fact)});
      if (db.is_endogenous(fact)) ++relevant_endo;
    }
  }
  SHAPCQ_CHECK(relevant_endo == EndoCount(lists));
  const size_t free_endo = db.endogenous_count() - relevant_endo;
  CountVector core = CoreCount(q, lists);
  return Result<CountVector>::Ok(core.Convolve(CountVector::All(free_endo)));
}

}  // namespace shapcq
