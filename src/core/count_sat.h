// CntSat for hierarchical self-join-free CQ¬ (Lemma 3.2).
//
// Computes the full vector |Sat(D,q,k)| for k = 0..|Dn|: the number of
// k-subsets E of the endogenous facts with (Dx ∪ E) ⊨ q. The recursion
// follows the hierarchical structure of the query:
//
//  * disconnected subquery  -> independent conjunction: convolve components;
//  * connected with a root variable x (x occurs in every atom) -> the
//    database splits into disjoint slices by the value of x; the query holds
//    iff some slice holds, so unsatisfying counts multiply (convolve) and
//    sat = all − Π unsat;
//  * ground atom            -> base case extended for negation (Lemma 3.2):
//    a positive ground atom must be present (a forced pick if endogenous,
//    free if exogenous, impossible if absent); a negative ground atom must be
//    absent (impossible if exogenous, a forced non-pick if endogenous, free
//    if absent).
//
// Endogenous facts that match no atom pattern (wrong constants, unequal
// values at repeated-variable positions, relations not in q) are "free":
// they never affect satisfaction and enter through a binomial convolution.

#ifndef SHAPCQ_CORE_COUNT_SAT_H_
#define SHAPCQ_CORE_COUNT_SAT_H_

#include "db/database.h"
#include "query/cq.h"
#include "util/count_vector.h"
#include "util/result.h"

namespace shapcq {

/// Presence state of the (at most one) fact matching a fully-ground atom.
enum class GroundFactState {
  kAbsent = 0,      ///< no matching fact in the database
  kExogenous = 1,   ///< matched by an exogenous fact
  kEndogenous = 2,  ///< matched by an endogenous fact
};

/// |Sat(D,q,k)| for all k, in time polynomial in |D|. Requires q safe,
/// self-join-free and hierarchical (returns an error otherwise).
Result<CountVector> CountSat(const CQ& q, const Database& db);

}  // namespace shapcq

#endif  // SHAPCQ_CORE_COUNT_SAT_H_
