// The worker-pool utility and the thread-safety contract of the
// combinatorics caches: task accounting, ParallelFor coverage, pool reuse,
// and a many-threads hammer on Factorial/Binomial/BinomialRow that
// differential-checks every concurrently-served value against independently
// computed single-threaded references.

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <tuple>
#include <utility>
#include <vector>

#include "util/bigint.h"
#include "util/combinatorics.h"

namespace shapcq {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNothingSubmittedReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
}

TEST(ThreadPoolTest, ZeroThreadRequestStillGetsOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ParallelForVisitsEachIndexExactlyOnce) {
  ThreadPool pool(8);
  const size_t n = 10000;
  // One pre-assigned slot per index: exactly-once coverage shows up as every
  // slot incremented to 1, with no atomics needed in the body itself.
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesFewerItemsThanWorkers) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  pool.ParallelFor(3, [&counter](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
  pool.ParallelFor(0, [&counter](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, ReusableAcrossRounds) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    pool.ParallelFor(20, [&counter](size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(ThreadPool::ResolveThreadCount(1), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(7), 7u);
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1u);  // auto: hardware, >= 1
}

// ---------------------------------------------------------------------------
// Combinatorics cache concurrency.
// ---------------------------------------------------------------------------

// Independent references, no caches: n! by running product, C(n, k) row by
// Pascal's rule. Deliberately separate code from Combinatorics so the stress
// test below is a true differential.
BigInt ReferenceFactorial(size_t n) {
  BigInt result(1);
  for (size_t i = 2; i <= n; ++i) result *= BigInt(static_cast<int64_t>(i));
  return result;
}

std::vector<BigInt> ReferenceBinomialRow(size_t n) {
  std::vector<BigInt> row{BigInt(1)};
  for (size_t m = 1; m <= n; ++m) {
    std::vector<BigInt> next{BigInt(1)};
    for (size_t k = 1; k < row.size(); ++k) next.push_back(row[k - 1] + row[k]);
    next.push_back(BigInt(1));
    row = std::move(next);
  }
  return row;
}

TEST(CombinatoricsConcurrencyTest, ConcurrentGrowthServesExactValues) {
  // Past the range other tests touch, so workers race on cache GROWTH, not
  // only on warmed reads, and past the widest cached row, so they also race
  // on rows built per call. Each worker walks the n-range in a different
  // stride order and keeps copies of everything it was served; the copies
  // are differential-checked against the references afterwards.
  constexpr size_t kThreads = 8;
  constexpr size_t kMaxN = 300;
  struct Served {
    std::vector<std::pair<size_t, BigInt>> factorials;
    std::vector<std::pair<size_t, std::vector<BigInt>>> rows;
    std::vector<std::tuple<size_t, size_t, BigInt>> binomials;
  };
  std::vector<Served> served(kThreads);
  {
    ThreadPool pool(kThreads);
    pool.ParallelFor(kThreads, [&served](size_t t) {
      Served& mine = served[t];
      for (size_t step = 0; step <= kMaxN; ++step) {
        // Different visit orders per thread: some ascend, some descend.
        const size_t n = (t % 2 == 0) ? step : kMaxN - step;
        mine.factorials.emplace_back(n, Combinatorics::Factorial(n));
        if (n % (t + 2) == 0) {
          mine.rows.emplace_back(n, Combinatorics::BinomialRow(n));
        }
        mine.binomials.emplace_back(n, n / 2, Combinatorics::Binomial(n, n / 2));
      }
    });
  }
  // Reference values once, single-threaded.
  std::vector<BigInt> factorial_ref;
  std::vector<std::vector<BigInt>> row_ref;
  for (size_t n = 0; n <= kMaxN; ++n) {
    factorial_ref.push_back(ReferenceFactorial(n));
    row_ref.push_back(ReferenceBinomialRow(n));
  }
  for (size_t t = 0; t < kThreads; ++t) {
    for (const auto& [n, value] : served[t].factorials) {
      EXPECT_EQ(value, factorial_ref[n]) << "thread " << t << " n=" << n;
    }
    for (const auto& [n, row] : served[t].rows) {
      EXPECT_EQ(row, row_ref[n]) << "thread " << t << " n=" << n;
    }
    for (const auto& [n, k, value] : served[t].binomials) {
      EXPECT_EQ(value, row_ref[n][k]) << "thread " << t << " C(" << n << ","
                                      << k << ")";
    }
  }
}

TEST(CombinatoricsConcurrencyTest, PrewarmThenHammerReads) {
  constexpr size_t kMaxN = 200;
  Combinatorics::Prewarm(kMaxN);
  const std::vector<BigInt> expected_row = ReferenceBinomialRow(kMaxN);
  const BigInt expected_factorial = ReferenceFactorial(kMaxN);
  ThreadPool pool(8);
  std::atomic<int> mismatches{0};
  pool.ParallelFor(64, [&](size_t i) {
    const size_t n = kMaxN - (i % 5);  // a few distinct warmed rows
    if (Combinatorics::BinomialRow(kMaxN) != expected_row) mismatches++;
    if (Combinatorics::Factorial(kMaxN) != expected_factorial) mismatches++;
    if (Combinatorics::Binomial(n, 3) !=
        Combinatorics::BinomialRow(n)[3]) {
      mismatches++;
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(CombinatoricsConcurrencyTest, ConcurrentPrewarmIsIdempotent) {
  ThreadPool pool(6);
  pool.ParallelFor(6, [](size_t t) { Combinatorics::Prewarm(120 + t * 7); });
  EXPECT_EQ(Combinatorics::Factorial(5).ToInt64(), 120);
  EXPECT_EQ(Combinatorics::Binomial(120, 2).ToInt64(), 7140);
}

}  // namespace
}  // namespace shapcq
