// Cached exact factorials and binomial coefficients.
//
// The Shapley-by-counting reduction weighs |Sat(D,q,k)| counts by
// k!(n-k-1)!/n!; these helpers provide the exact BigInt ingredients with
// memoization shared across a computation.

#ifndef SHAPCQ_UTIL_COMBINATORICS_H_
#define SHAPCQ_UTIL_COMBINATORICS_H_

#include <cstddef>
#include <shared_mutex>
#include <vector>

#include "util/bigint.h"

namespace shapcq {

/// Process-wide cache of factorials and binomial coefficients.
///
/// Thread safety: both caches are guarded by one process-wide
/// std::shared_mutex. Lookups that hit the cache take a shared (reader) lock
/// and copy the value out under it; growing the cache takes the exclusive
/// lock. Any number of threads may therefore call any of these functions
/// concurrently — this is the contract the parallel ShapleyEngine relies on.
/// To keep workers on the cheap reader path, call Prewarm(n) for the largest
/// n a computation can request before fanning out (the engine does this with
/// n = |Dn|); a cold cache is still correct, just serialized while it grows.
class Combinatorics {
 public:
  /// Widest memoized binomial row.
  static constexpr size_t kMaxCachedRow = 256;

  /// n! as an exact integer. Returned by value: the shared cache may be
  /// grown (and reallocated) by another caller at any time, so handing out
  /// references would dangle — the copy is made under the reader lock.
  static BigInt Factorial(size_t n);
  /// C(n, k); zero when k > n.
  static BigInt Binomial(size_t n, size_t k);
  /// The full row [C(n,0), ..., C(n,n)]. Rows up to kMaxCachedRow are
  /// memoized (lazy Pascal triangle, same pattern as the factorial cache):
  /// CountVector::All and ComplementAgainstAll request the same rows over
  /// and over inside the CntSat recursion, and building row n from row n-1
  /// is pure additions. The triangle holds O(n^2) BigInts, so wider rows
  /// are built per call from one-limb steps and never kept: the cache
  /// stays at ~33,000 cells (~1.5 MB) however many facts a session holds.
  /// Returned by value (see Factorial).
  static std::vector<BigInt> BinomialRow(size_t n);
  /// Grows both caches to cover Factorial(n) and BinomialRow(min(n,
  /// kMaxCachedRow)), so that subsequent lookups up to n are shared-lock
  /// reads (rows past the bound take no lock). Idempotent; safe to call
  /// concurrently.
  static void Prewarm(size_t n);

 private:
  struct Caches {
    std::shared_mutex mutex;
    std::vector<BigInt> factorials{BigInt(1)};             // factorials[n] = n!
    std::vector<std::vector<BigInt>> rows{{BigInt(1)}};    // rows[n][k] = C(n,k)
  };
  static Caches& GetCaches();
  // Growth helpers; the caller must hold the exclusive lock.
  static void GrowFactorialsLocked(Caches& caches, size_t n);
  static void GrowRowsLocked(Caches& caches, size_t n);
};

}  // namespace shapcq

#endif  // SHAPCQ_UTIL_COMBINATORICS_H_
