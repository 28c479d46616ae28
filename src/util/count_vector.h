// Count vectors: the working data structure of the CntSat algorithm.
//
// A CountVector over a universe of n elements stores, for each k in 0..n, how
// many k-subsets of the universe have some property (e.g. "joined with the
// exogenous facts, the subset satisfies q"). The CntSat recursion combines
// sub-results over *disjoint* universes:
//   * conjunction of independent properties  -> Convolve
//   * "all subsets"                          -> All
//   * negation of the property               -> ComplementAgainstAll
// Disjointness of the universes is what makes convolution count correctly.

#ifndef SHAPCQ_UTIL_COUNT_VECTOR_H_
#define SHAPCQ_UTIL_COUNT_VECTOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "util/bigint.h"

namespace shapcq {

/// Exact per-cardinality subset counts over a finite universe.
class CountVector {
 public:
  /// Empty-universe vector: counts [1] (the empty subset qualifies). Note this
  /// is the multiplicative identity of Convolve, not a zero.
  CountVector() : counts_(1, BigInt(1)) {}

  /// No subset of a universe of size n qualifies.
  static CountVector Zero(size_t universe_size);
  /// Every subset qualifies: counts[k] = C(n, k).
  static CountVector All(size_t universe_size);
  /// Takes explicit counts; counts.size() must be universe_size + 1.
  static CountVector FromCounts(std::vector<BigInt> counts);

  size_t universe_size() const { return counts_.size() - 1; }
  /// Number of qualifying k-subsets.
  const BigInt& at(size_t k) const { return counts_[k]; }
  /// Sum over all k (number of qualifying subsets of any size).
  BigInt Total() const;

  /// Approximate memory footprint in bytes (object plus owned BigInt cells).
  /// Feeds the byte-budgeted LRU accounting of the serving layer.
  size_t ApproxMemoryBytes() const;

  /// Counts of subsets of the combined (disjoint) universe whose restriction
  /// to each part qualifies in that part.
  CountVector Convolve(const CountVector& other) const;
  /// *this = *this ⊛ other. Convolution needs a fresh output buffer, but the
  /// assignment is a move — use this form in convolution cascades to make
  /// the intent (and the absence of a second copy) explicit.
  CountVector& ConvolveWith(const CountVector& other);
  /// Counts of subsets that do NOT qualify: All(n) - *this.
  CountVector ComplementAgainstAll() const;
  /// Pointwise sum; universes must have equal size.
  CountVector operator+(const CountVector& other) const;
  /// Pointwise difference; universes must have equal size.
  CountVector operator-(const CountVector& other) const;

  bool operator==(const CountVector& other) const {
    return counts_ == other.counts_;
  }

  /// "[c0, c1, ..., cn]" for debugging and test failure messages.
  std::string ToString() const;

 private:
  explicit CountVector(std::vector<BigInt> counts)
      : counts_(std::move(counts)) {}

  std::vector<BigInt> counts_;  // counts_[k] for k = 0..universe_size
};

}  // namespace shapcq

#endif  // SHAPCQ_UTIL_COUNT_VECTOR_H_
