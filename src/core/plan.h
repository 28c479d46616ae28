// Safe-plan compilation for hierarchical self-join-free CQ¬.
//
// The PTIME algorithms of this library walk the Lemma 3.2 recursion: split
// independent components, project on a root variable, stop at ground atoms.
// Its shape depends on the query alone, so this module compiles it once as
// an explicit *safe plan* — the classic Dalvi–Suciu formulation — which
//  (a) drives ShapleyEngine: Build instantiates each step per data slice
//      and inserts route by the steps, so no data node re-derives them;
//  (b) makes the extensional evaluation inspectable (`ExplainPlan`), and
//  (c) provides an independently-structured third implementation of
//      probabilistic evaluation for differential testing.
// Steps name atoms by their index in the compiled query (atom ids) and
// variables by its VarIds. count_sat.cc and probdb/lifted.cc keep their own
// recursions on purpose: they are the oracles for (a) and (c).
//
// A query compiles to a safe plan iff it is hierarchical (for self-join-free
// safe CQ¬) — exactly the tractability frontier of Theorems 3.1/4.10.

#ifndef SHAPCQ_CORE_PLAN_H_
#define SHAPCQ_CORE_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "probdb/prob_database.h"
#include "query/cq.h"
#include "util/result.h"

namespace shapcq {

/// A step of a safe plan.
struct SafePlan {
  enum class Kind {
    kAtomLeaf,         // a single (possibly negated) ground-able atom
    kIndependentJoin,  // conjunction of variable-disjoint children
    kRootProject,      // ∃-projection of a root variable; data-dependent fanout
  };

  Kind kind = Kind::kAtomLeaf;
  /// The atoms this step covers, ascending (one for a leaf).
  std::vector<size_t> atom_ids;
  /// kRootProject: the projected (root) variable and, indexed by atom id
  /// (entries of `atom_ids` only), its first position in that atom.
  VarId root = -1;
  std::vector<size_t> root_position;
  /// kIndependentJoin: indexed by atom id (entries of `atom_ids` only), the
  /// child covering that atom.
  std::vector<size_t> child_of_atom;
  /// kIndependentJoin: one child per component; kRootProject: the one step
  /// every root value's slice instantiates.
  std::vector<std::unique_ptr<SafePlan>> children;
};

/// Compiles q into a safe plan. Fails iff q is unsafe, has self-joins, or
/// is not hierarchical (mirroring CntSat's scope). Interns no constant.
Result<std::unique_ptr<SafePlan>> CompileSafePlan(const CQ& q);

/// Indented tree rendering of q's plan, e.g.
///   join
///     project[x]
///       leaf: Stud(x)
std::string ExplainPlan(const CQ& q, const SafePlan& plan);

/// P(D ⊨ q) evaluated by walking the compiled plan — an independent
/// implementation of LiftedProbability used for differential testing.
Result<double> PlanProbability(const CQ& q, const ProbDatabase& pdb);

}  // namespace shapcq

#endif  // SHAPCQ_CORE_PLAN_H_
