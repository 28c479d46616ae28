// Factorials, binomials, count vectors, the rational linear solver, and the
// deterministic RNG.

#include <gtest/gtest.h>

#include "util/combinatorics.h"
#include "util/count_vector.h"
#include "util/gaussian.h"
#include "util/random.h"

namespace shapcq {
namespace {

TEST(CombinatoricsTest, FactorialValues) {
  EXPECT_EQ(Combinatorics::Factorial(0).ToInt64(), 1);
  EXPECT_EQ(Combinatorics::Factorial(1).ToInt64(), 1);
  EXPECT_EQ(Combinatorics::Factorial(5).ToInt64(), 120);
  EXPECT_EQ(Combinatorics::Factorial(12).ToInt64(), 479001600);
  EXPECT_EQ(Combinatorics::Factorial(20).ToString(), "2432902008176640000");
}

TEST(CombinatoricsTest, BinomialValues) {
  EXPECT_EQ(Combinatorics::Binomial(0, 0).ToInt64(), 1);
  EXPECT_EQ(Combinatorics::Binomial(5, 2).ToInt64(), 10);
  EXPECT_EQ(Combinatorics::Binomial(10, 0).ToInt64(), 1);
  EXPECT_EQ(Combinatorics::Binomial(10, 10).ToInt64(), 1);
  EXPECT_EQ(Combinatorics::Binomial(10, 11).ToInt64(), 0);
  EXPECT_EQ(Combinatorics::Binomial(52, 5).ToInt64(), 2598960);
}

TEST(CombinatoricsTest, BinomialRowMatchesPointwise) {
  // 256 is the widest cached row; 257 and up are built per call.
  for (size_t n : {0u, 1u, 5u, 17u, 256u, 257u, 300u, 600u}) {
    const auto row = Combinatorics::BinomialRow(n);
    ASSERT_EQ(row.size(), n + 1);
    for (size_t k = 0; k <= n; ++k) {
      EXPECT_EQ(row[k], Combinatorics::Binomial(n, k)) << n << " " << k;
    }
  }
}

TEST(CombinatoricsTest, PascalIdentity) {
  for (size_t n = 1; n < 20; ++n) {
    for (size_t k = 1; k <= n; ++k) {
      EXPECT_EQ(Combinatorics::Binomial(n, k),
                Combinatorics::Binomial(n - 1, k - 1) +
                    Combinatorics::Binomial(n - 1, k));
    }
  }
}

TEST(CountVectorTest, DefaultIsConvolutionIdentity) {
  CountVector identity;
  CountVector all = CountVector::All(3);
  EXPECT_EQ(identity.Convolve(all), all);
  EXPECT_EQ(all.Convolve(identity), all);
}

TEST(CountVectorTest, AllCountsBinomials) {
  CountVector all = CountVector::All(4);
  EXPECT_EQ(all.universe_size(), 4u);
  EXPECT_EQ(all.at(0).ToInt64(), 1);
  EXPECT_EQ(all.at(2).ToInt64(), 6);
  EXPECT_EQ(all.at(4).ToInt64(), 1);
  EXPECT_EQ(all.Total().ToInt64(), 16);
}

TEST(CountVectorTest, ZeroAndComplement) {
  CountVector zero = CountVector::Zero(3);
  EXPECT_EQ(zero.Total().ToInt64(), 0);
  EXPECT_EQ(zero.ComplementAgainstAll(), CountVector::All(3));
  EXPECT_EQ(CountVector::All(3).ComplementAgainstAll(), CountVector::Zero(3));
}

TEST(CountVectorTest, ConvolveIsVandermonde) {
  // All(a) ⊛ All(b) == All(a+b) — the Vandermonde identity.
  EXPECT_EQ(CountVector::All(3).Convolve(CountVector::All(5)),
            CountVector::All(8));
}

TEST(CountVectorTest, ConvolveCountsPairs) {
  // Universe {x} with property "contains x" ⊛ universe {y} with property
  // "contains y": only {x,y} qualifies.
  CountVector pick_x = CountVector::FromCounts({BigInt(0), BigInt(1)});
  CountVector pick_y = CountVector::FromCounts({BigInt(0), BigInt(1)});
  CountVector both = pick_x.Convolve(pick_y);
  EXPECT_EQ(both.at(0).ToInt64(), 0);
  EXPECT_EQ(both.at(1).ToInt64(), 0);
  EXPECT_EQ(both.at(2).ToInt64(), 1);
}

TEST(CountVectorTest, AddSubtract) {
  CountVector all = CountVector::All(2);
  EXPECT_EQ(all - all, CountVector::Zero(2));
  EXPECT_EQ((all - all) + all, all);
}

TEST(GaussianTest, SolvesDiagonal) {
  RationalMatrix matrix = {{Rational(2), Rational(0)},
                           {Rational(0), Rational(4)}};
  std::vector<Rational> rhs = {Rational(6), Rational(8)};
  std::vector<Rational> solution;
  ASSERT_TRUE(SolveLinearSystem(matrix, rhs, &solution));
  EXPECT_EQ(solution[0], Rational(3));
  EXPECT_EQ(solution[1], Rational(2));
}

TEST(GaussianTest, SolvesWithPivoting) {
  RationalMatrix matrix = {{Rational(0), Rational(1)},
                           {Rational(1), Rational(1)}};
  std::vector<Rational> rhs = {Rational(5), Rational(7)};
  std::vector<Rational> solution;
  ASSERT_TRUE(SolveLinearSystem(matrix, rhs, &solution));
  EXPECT_EQ(solution[0], Rational(2));
  EXPECT_EQ(solution[1], Rational(5));
}

TEST(GaussianTest, DetectsSingular) {
  RationalMatrix matrix = {{Rational(1), Rational(2)},
                           {Rational(2), Rational(4)}};
  std::vector<Rational> rhs = {Rational(1), Rational(2)};
  std::vector<Rational> solution;
  EXPECT_FALSE(SolveLinearSystem(matrix, rhs, &solution));
  EXPECT_EQ(Determinant(matrix), Rational(0));
}

TEST(GaussianTest, ExactFractions) {
  RationalMatrix matrix = {{Rational::Of(1, 3), Rational::Of(1, 7)},
                           {Rational::Of(1, 2), Rational::Of(1, 5)}};
  std::vector<Rational> rhs = {Rational(1), Rational(1)};
  std::vector<Rational> solution;
  ASSERT_TRUE(SolveLinearSystem(matrix, rhs, &solution));
  // Verify by substitution, exactly.
  EXPECT_EQ(matrix[0][0] * solution[0] + matrix[0][1] * solution[1],
            Rational(1));
  EXPECT_EQ(matrix[1][0] * solution[0] + matrix[1][1] * solution[1],
            Rational(1));
}

TEST(GaussianTest, DeterminantOfVandermondeLikeSystem) {
  // The Lemma B.3 coefficient matrix for N = 2 must be non-singular.
  const int N = 2;
  RationalMatrix matrix;
  for (int r = 1; r <= N + 1; ++r) {
    std::vector<Rational> row;
    for (int k = 0; k <= N; ++k) {
      row.push_back(
          Rational(Combinatorics::Factorial(static_cast<size_t>(k)) *
                   Combinatorics::Factorial(static_cast<size_t>(N - k + r))));
    }
    matrix.push_back(row);
  }
  EXPECT_NE(Determinant(matrix), Rational(0));
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformIntInBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(7), 7u);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(2);
  std::vector<int> hits(5, 0);
  for (int i = 0; i < 5000; ++i) ++hits[rng.UniformInt(5)];
  for (int count : hits) EXPECT_GT(count, 700);  // ~1000 expected each
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(3);
  auto perm = rng.Permutation(20);
  std::vector<bool> seen(20, false);
  for (size_t index : perm) {
    ASSERT_LT(index, 20u);
    EXPECT_FALSE(seen[index]);
    seen[index] = true;
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(4);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

}  // namespace
}  // namespace shapcq
