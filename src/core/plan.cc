#include "core/plan.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "query/analysis.h"
#include "util/check.h"

namespace shapcq {

namespace {

using PlanResult = Result<std::unique_ptr<SafePlan>>;

// Compiles the step covering q's atoms `atom_ids`. `sub` is the subquery the
// recursion sees there: those atoms (sub's atom i is q's atom atom_ids[i])
// with every variable projected above replaced by a constant. The analysis
// helpers read variables only, so they see the variable tables the data
// recursion sees (the root choice and component order are CoreCount's), and
// no constant is ever looked at: an unbound Value{} stands in for every
// root value, and nothing is interned.
PlanResult CompileStep(const CQ& q, const CQ& sub,
                       std::vector<size_t> atom_ids) {
  auto step = std::make_unique<SafePlan>();
  step->atom_ids = std::move(atom_ids);

  const auto components = AtomComponents(sub);
  if (components.size() > 1) {
    step->kind = SafePlan::Kind::kIndependentJoin;
    step->child_of_atom.resize(q.atom_count());
    for (const auto& component : components) {
      std::vector<size_t> child_atoms;
      for (size_t local : component) {
        child_atoms.push_back(step->atom_ids[local]);
        step->child_of_atom[step->atom_ids[local]] = step->children.size();
      }
      auto child =
          CompileStep(q, sub.Restrict(component), std::move(child_atoms));
      if (!child.ok()) return child;
      step->children.push_back(std::move(child).value());
    }
    return PlanResult::Ok(std::move(step));
  }

  if (sub.UsedVars().empty()) {
    SHAPCQ_CHECK(sub.atom_count() == 1);
    step->kind = SafePlan::Kind::kAtomLeaf;
    return PlanResult::Ok(std::move(step));
  }

  const auto root = FindRootVariable(sub);
  if (!root.has_value()) {
    return PlanResult::Error("no root variable: the query is not hierarchical");
  }
  step->kind = SafePlan::Kind::kRootProject;
  // Restrict and Substitute keep variable names, which are unique per query.
  step->root = q.FindVar(sub.var_name(*root));
  step->root_position.resize(q.atom_count());
  for (size_t a : step->atom_ids) {
    const std::vector<Term>& terms = q.atom(a).terms;
    const auto it =
        std::find(terms.begin(), terms.end(), Term::MakeVar(step->root));
    SHAPCQ_CHECK(it != terms.end());
    step->root_position[a] = static_cast<size_t>(it - terms.begin());
  }
  auto child = CompileStep(q, sub.Substitute(*root, Value{}), step->atom_ids);
  if (!child.ok()) return child;
  step->children.push_back(std::move(child).value());
  return PlanResult::Ok(std::move(step));
}

std::string AtomToString(const CQ& q, const Atom& atom) {
  const ValueDictionary& dict = ValueDictionary::Global();
  std::string out = atom.negated ? "not " : "";
  out += atom.relation + "(";
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    if (i > 0) out += ",";
    out += atom.terms[i].IsVar() ? q.var_name(atom.terms[i].var)
                                 : dict.Name(atom.terms[i].constant);
  }
  return out + ")";
}

void ExplainInto(const CQ& q, const SafePlan& step, int depth,
                 std::string* out) {
  out->append(static_cast<size_t>(2 * depth), ' ');
  switch (step.kind) {
    case SafePlan::Kind::kAtomLeaf:
      *out += "leaf: " + AtomToString(q, q.atom(step.atom_ids[0])) + "\n";
      return;
    case SafePlan::Kind::kIndependentJoin:
      *out += "join\n";
      break;
    case SafePlan::Kind::kRootProject:
      *out += "project[" + q.var_name(step.root) + "]\n";
      break;
  }
  for (const auto& child : step.children) {
    ExplainInto(q, *child, depth + 1, out);
  }
}

// The root values bound on the way down, by the query's VarIds; a variable
// not projected yet holds Value{} (id -1).
using Bindings = std::vector<Value>;

// The value a term takes under the bindings (Value{} for a free variable).
Value Bind(const Term& term, const Bindings& bindings) {
  return term.IsConst() ? term.constant
                        : bindings[static_cast<size_t>(term.var)];
}

double EvalStep(const CQ& q, const SafePlan& step, const ProbDatabase& pdb,
                Bindings* bindings);

double EvalLeaf(const CQ& q, const SafePlan& step, const ProbDatabase& pdb,
                const Bindings& bindings) {
  const Atom& atom = q.atom(step.atom_ids[0]);
  Tuple tuple;
  tuple.reserve(atom.terms.size());
  for (const Term& term : atom.terms) {
    tuple.push_back(Bind(term, bindings));
    SHAPCQ_CHECK_MSG(tuple.back().id >= 0, "leaf atom must be ground");
  }
  const FactId fact = pdb.db().FindFact(atom.relation, tuple);
  const double present = fact == kNoFact ? 0.0 : pdb.probability(fact);
  return atom.negated ? 1.0 - present : present;
}

double EvalRootProject(const CQ& q, const SafePlan& step,
                       const ProbDatabase& pdb, Bindings* bindings) {
  // Candidate slice values: the root value of every fact that agrees with
  // its atom's constants and bound variables and holds that one value at
  // all of the root's positions.
  std::unordered_set<int32_t> slice_values;
  for (size_t a : step.atom_ids) {
    const Atom& atom = q.atom(a);
    const RelationId rel = pdb.db().schema().Find(atom.relation);
    for (FactId fact : pdb.db().facts_of(rel)) {
      const Tuple& tuple = pdb.db().tuple_of(fact);
      const Value value = tuple[step.root_position[a]];
      bool consistent = true;
      for (size_t i = 0; i < atom.terms.size() && consistent; ++i) {
        const Term& term = atom.terms[i];
        const Value bound = term.IsVar() && term.var == step.root
                                ? value
                                : Bind(term, *bindings);
        consistent = bound.id < 0 || bound == tuple[i];
      }
      if (consistent) slice_values.insert(value.id);
    }
  }

  Value& root_value = (*bindings)[static_cast<size_t>(step.root)];
  double none = 1.0;
  for (int32_t value_id : slice_values) {
    root_value = Value{value_id};
    none *= 1.0 - EvalStep(q, *step.children[0], pdb, bindings);
  }
  root_value = Value{};
  return 1.0 - none;
}

double EvalStep(const CQ& q, const SafePlan& step, const ProbDatabase& pdb,
                Bindings* bindings) {
  switch (step.kind) {
    case SafePlan::Kind::kAtomLeaf:
      return EvalLeaf(q, step, pdb, *bindings);
    case SafePlan::Kind::kIndependentJoin: {
      double product = 1.0;
      for (const auto& child : step.children) {
        product *= EvalStep(q, *child, pdb, bindings);
      }
      return product;
    }
    case SafePlan::Kind::kRootProject:
      return EvalRootProject(q, step, pdb, bindings);
  }
  SHAPCQ_CHECK_MSG(false, "unreachable");
  return 0.0;
}

}  // namespace

Result<std::unique_ptr<SafePlan>> CompileSafePlan(const CQ& q) {
  if (!IsSafe(q)) {
    return PlanResult::Error("safe plans require safe negation");
  }
  if (!IsSelfJoinFree(q)) {
    return PlanResult::Error("safe plans require a self-join-free query");
  }
  if (!IsHierarchical(q)) {
    return PlanResult::Error(
        "no safe plan: the query is not hierarchical (Theorems 3.1/4.10)");
  }
  std::vector<size_t> atom_ids(q.atom_count());
  std::iota(atom_ids.begin(), atom_ids.end(), size_t{0});
  return CompileStep(q, q, std::move(atom_ids));
}

std::string ExplainPlan(const CQ& q, const SafePlan& plan) {
  std::string out;
  ExplainInto(q, plan, 0, &out);
  return out;
}

Result<double> PlanProbability(const CQ& q, const ProbDatabase& pdb) {
  auto plan = CompileSafePlan(q);
  if (!plan.ok()) return Result<double>::Error(plan.error());
  Bindings bindings(q.var_count());
  return Result<double>::Ok(EvalStep(q, *plan.value(), pdb, &bindings));
}

}  // namespace shapcq
