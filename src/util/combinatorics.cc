#include "util/combinatorics.h"

#include <algorithm>
#include <mutex>

#include "util/check.h"

namespace shapcq {

Combinatorics::Caches& Combinatorics::GetCaches() {
  // Leaked singleton: immune to destruction-order issues at exit.
  static Caches* caches = new Caches();
  return *caches;
}

void Combinatorics::GrowFactorialsLocked(Caches& caches, size_t n) {
  std::vector<BigInt>& cache = caches.factorials;
  while (cache.size() <= n) {
    // Copy then scale in place: *= with a single-limb multiplier runs one
    // carry scan over the copy's limbs, no product temporary.
    BigInt next = cache.back();
    next *= BigInt(static_cast<int64_t>(cache.size()));
    cache.push_back(std::move(next));
  }
}

void Combinatorics::GrowRowsLocked(Caches& caches, size_t n) {
  std::vector<std::vector<BigInt>>& cache = caches.rows;
  while (cache.size() <= n) {
    // Pascal's rule from the previous row: additions only, no division.
    const std::vector<BigInt>& prev = cache.back();
    std::vector<BigInt> row;
    row.reserve(prev.size() + 1);
    row.push_back(BigInt(1));
    for (size_t k = 1; k < prev.size(); ++k) {
      row.push_back(prev[k - 1] + prev[k]);
    }
    row.push_back(BigInt(1));
    cache.push_back(std::move(row));
  }
}

BigInt Combinatorics::Factorial(size_t n) {
  Caches& caches = GetCaches();
  {
    std::shared_lock<std::shared_mutex> lock(caches.mutex);
    if (n < caches.factorials.size()) return caches.factorials[n];
  }
  std::unique_lock<std::shared_mutex> lock(caches.mutex);
  GrowFactorialsLocked(caches, n);
  return caches.factorials[n];
}

BigInt Combinatorics::Binomial(size_t n, size_t k) {
  if (k > n) return BigInt(0);
  {
    // Serve from the row cache when the row is already materialized (don't
    // build an O(n^2) cache for a point query, though).
    Caches& caches = GetCaches();
    std::shared_lock<std::shared_mutex> lock(caches.mutex);
    if (n < caches.rows.size()) return caches.rows[n][k];
  }
  // Use the smaller symmetric index and a running product; exact because the
  // intermediate product i steps in is divisible by i!.
  if (k > n - k) k = n - k;
  BigInt result(1);
  for (size_t i = 1; i <= k; ++i) {
    result *= BigInt(static_cast<int64_t>(n - k + i));
    result /= BigInt(static_cast<int64_t>(i));
  }
  return result;
}

std::vector<BigInt> Combinatorics::BinomialRow(size_t n) {
  if (n > kMaxCachedRow) {
    // C(n,k+1) = C(n,k)·(n−k)/(k+1): a one-limb product and an exact
    // one-limb division per cell, the left half mirrored onto the right.
    std::vector<BigInt> row(n + 1);
    row[0] = BigInt(1);
    for (size_t k = 0; k < n / 2; ++k) {
      row[k + 1] = row[k] * BigInt(static_cast<int64_t>(n - k)) /
                   BigInt(static_cast<int64_t>(k + 1));
    }
    for (size_t k = n / 2 + 1; k <= n; ++k) row[k] = row[n - k];
    return row;
  }
  Caches& caches = GetCaches();
  {
    std::shared_lock<std::shared_mutex> lock(caches.mutex);
    if (n < caches.rows.size()) return caches.rows[n];
  }
  std::unique_lock<std::shared_mutex> lock(caches.mutex);
  GrowRowsLocked(caches, n);
  return caches.rows[n];
}

void Combinatorics::Prewarm(size_t n) {
  Caches& caches = GetCaches();
  std::unique_lock<std::shared_mutex> lock(caches.mutex);
  GrowFactorialsLocked(caches, n);
  GrowRowsLocked(caches, std::min(n, kMaxCachedRow));
}

}  // namespace shapcq
