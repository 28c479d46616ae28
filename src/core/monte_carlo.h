// Monte-Carlo approximation of the Shapley value (Section 5.1).
//
// Sampling random permutations of the endogenous facts and averaging the
// marginal contribution of f gives an unbiased estimate. The contribution of
// a single permutation lies in {-1, 0, 1}, so by Hoeffding's inequality
// O(log(1/δ)/ε²) samples give an *additive* ε-approximation with probability
// 1-δ — an additive FPRAS for every CQ¬/UCQ¬. Theorem 5.1 shows this can
// never be turned into a multiplicative FPRAS by sampling alone: with
// negation the true value may be 2^{-Θ(|D|)} yet nonzero.

#ifndef SHAPCQ_CORE_MONTE_CARLO_H_
#define SHAPCQ_CORE_MONTE_CARLO_H_

#include <cstddef>

#include "db/database.h"
#include "query/cq.h"
#include "query/ucq.h"
#include "util/random.h"

namespace shapcq {

/// Smallest m with 2·exp(−m·ε²/2) ≤ δ, i.e. m ≥ 2·ln(2/δ)/ε²
/// (Hoeffding for variables in [−1, 1]), saturating at SIZE_MAX when m
/// exceeds size_t's range.
size_t HoeffdingSampleCount(double epsilon, double delta);

/// Mean marginal contribution of f over `samples` random permutations.
double ShapleyMonteCarlo(const CQ& q, const Database& db, FactId f,
                         size_t samples, Rng* rng);
double ShapleyMonteCarlo(const UCQ& q, const Database& db, FactId f,
                         size_t samples, Rng* rng);

/// Additive (ε, δ)-approximation: ShapleyMonteCarlo with the Hoeffding
/// sample count.
double ShapleyAdditiveFpras(const CQ& q, const Database& db, FactId f,
                            double epsilon, double delta, Rng* rng);

/// Stratified estimator: Shapley(f) = (1/n) Σ_k E[Δ_k] with Δ_k the
/// marginal contribution after a uniformly random k-subset of Dn \ {f}.
/// Samples every stratum k the same number of times; unbiased like the
/// permutation sampler but with lower variance at equal evaluation budget
/// (each permutation sample draws from the highest-variance stratum mix).
double ShapleyStratifiedMonteCarlo(const CQ& q, const Database& db, FactId f,
                                   size_t samples_per_stratum, Rng* rng);

}  // namespace shapcq

#endif  // SHAPCQ_CORE_MONTE_CARLO_H_
