// Exact Shapley values of database facts (Theorem 3.1, tractable side).
//
// The reduction of Livshits et al. (inherited by the paper for CQ¬s):
//
//   Shapley(D,q,f) = Σ_{k=0}^{n-1} k!(n−1−k)!/n! ·
//                    ( |Sat_k(D with f exogenous)| − |Sat_k(D without f)| )
//
// where n = |Dn| and both counts range over k-subsets of Dn \ {f}. The two
// count vectors come from CntSat, so the whole computation is polynomial for
// hierarchical self-join-free CQ¬s.

#ifndef SHAPCQ_CORE_SHAPLEY_H_
#define SHAPCQ_CORE_SHAPLEY_H_

#include <vector>

#include "core/shapley_engine.h"
#include "db/database.h"
#include "query/cq.h"
#include "util/count_vector.h"
#include "util/rational.h"
#include "util/result.h"

namespace shapcq {

/// Assembles Shapley(D,q,f) from the two |Sat| vectors over Dn \ {f}
/// (universe size n−1 each). Exposed for reuse by ExoShap and tests.
Rational ShapleyFromSatCounts(const CountVector& sat_with_f,
                              const CountVector& sat_without_f,
                              size_t endogenous_count);

/// Shapley(D,q,f) in polynomial time via CntSat. Requires q safe,
/// self-join-free and hierarchical; f must be endogenous.
///
/// This is the reference per-fact path (two full CntSat runs over copied
/// databases); it is kept verbatim as the differential-testing oracle for
/// ShapleyEngine, which computes the same values from one shared recursion.
Result<Rational> ShapleyViaCountSat(const CQ& q, const Database& db, FactId f);

/// Shapley values of every endogenous fact (endo-index order). Runs the
/// single-pass ShapleyEngine (shapley_engine.h): one shared CntSat index,
/// one shared evaluation sweep, one value per symmetry orbit. With
/// options.num_threads > 1 the sweep runs on a worker pool; the output is
/// bit-identical to the serial default at any thread count. A non-null
/// `cancel` token covers both the engine build and the value sweep; on
/// expiry the call returns the cancellation error (CancelToken::IsCancelled)
/// and nothing is retained.
Result<std::vector<Rational>> ShapleyAllViaCountSat(
    const CQ& q, const Database& db, const ParallelOptions& options = {},
    const CancelToken* cancel = nullptr);

}  // namespace shapcq

#endif  // SHAPCQ_CORE_SHAPLEY_H_
