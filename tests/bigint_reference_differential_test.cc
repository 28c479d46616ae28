// Differential battery: the production BigInt (64-bit limbs, inline
// small-value storage, Karatsuba, Knuth-D division, binary gcd) against the
// retained seed implementation RefBigInt (32-bit limbs, schoolbook,
// shift-subtract, Euclid — tests/support/bigint_reference.h, kept verbatim
// for this purpose). Every kernel is exercised across magnitudes of 1..128 64-bit
// limbs, all sign patterns, and the Karatsuba threshold boundary; the bridge
// between the two classes is decimal strings, so agreement here is
// bit-identical value agreement.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/bigint.h"
#include "support/bigint_reference.h"
#include "util/random.h"

namespace shapcq {
namespace {

constexpr size_t kInline = BigInt::kInlineLimbs;
constexpr size_t kKara = BigInt::kKaratsubaThreshold;

// Both implementations expose ShiftLeft/+/unary minus; assembling from the
// same 32-bit chunks produces the same value in each.
template <typename T>
T FromChunks(const std::vector<uint64_t>& limbs, bool negative) {
  T result(0);
  for (size_t i = limbs.size(); i-- > 0;) {
    result = result.ShiftLeft(32) +
             T(static_cast<int64_t>(limbs[i] >> 32));
    result = result.ShiftLeft(32) +
             T(static_cast<int64_t>(limbs[i] & 0xffffffffu));
  }
  return negative ? -result : result;
}

// Random limb patterns that stress carries: dense uniform limbs, runs of
// all-ones, power-of-two-minus-one shapes, and sparse middles.
std::vector<uint64_t> RandomLimbs(Rng* rng, size_t count) {
  std::vector<uint64_t> limbs(count);
  const uint64_t shape = rng->UniformInt(4);
  for (size_t i = 0; i < count; ++i) {
    switch (shape) {
      case 0:
        limbs[i] = rng->Next();
        break;
      case 1:
        limbs[i] = ~uint64_t{0};
        break;
      case 2:
        limbs[i] = rng->Bernoulli(0.5) ? 0 : rng->Next();
        break;
      default:
        limbs[i] = uint64_t{1} << rng->UniformInt(64);
        break;
    }
  }
  if (limbs.back() == 0) limbs.back() = 1;  // keep the intended size
  return limbs;
}

struct Pair {
  BigInt fast;
  RefBigInt ref;
};

Pair RandomPair(Rng* rng, size_t max_limbs) {
  const size_t count = 1 + rng->UniformInt(max_limbs);
  const bool negative = rng->Bernoulli(0.5);
  const std::vector<uint64_t> limbs = RandomLimbs(rng, count);
  return Pair{FromChunks<BigInt>(limbs, negative),
              FromChunks<RefBigInt>(limbs, negative)};
}

Pair PairOfLimbCount(Rng* rng, size_t count, bool negative) {
  const std::vector<uint64_t> limbs = RandomLimbs(rng, count);
  return Pair{FromChunks<BigInt>(limbs, negative),
              FromChunks<RefBigInt>(limbs, negative)};
}

class BigIntReferenceDifferential : public ::testing::TestWithParam<int> {};

TEST_P(BigIntReferenceDifferential, AddSubMulAcrossLimbSizes) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0x9e3779b97f4a7c15ULL + 11);
  for (int i = 0; i < 120; ++i) {
    const Pair a = RandomPair(&rng, 128);
    const Pair b = RandomPair(&rng, 128);
    EXPECT_EQ((a.fast + b.fast).ToString(), (a.ref + b.ref).ToString());
    EXPECT_EQ((a.fast - b.fast).ToString(), (a.ref - b.ref).ToString());
    EXPECT_EQ((a.fast * b.fast).ToString(), (a.ref * b.ref).ToString());
    // Compound assignment forms reuse the left operand's storage; they must
    // agree with the value-returning forms.
    BigInt fast_acc = a.fast;
    RefBigInt ref_acc = a.ref;
    fast_acc += b.fast;
    ref_acc += b.ref;
    EXPECT_EQ(fast_acc.ToString(), ref_acc.ToString());
    fast_acc -= b.fast;
    ref_acc -= b.ref;
    EXPECT_EQ(fast_acc.ToString(), ref_acc.ToString());
    fast_acc *= b.fast;
    ref_acc *= b.ref;
    EXPECT_EQ(fast_acc.ToString(), ref_acc.ToString());
  }
}

TEST_P(BigIntReferenceDifferential, MulAroundKaratsubaThreshold) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0x2545f4914f6cdd1dULL + 13);
  // Sweep every operand size from just under to well past the threshold, in
  // both balanced and maximally unbalanced shapes (the unbalanced case takes
  // the chunked route through the dispatcher).
  for (size_t an = kKara - 2; an <= 2 * kKara + 2; an += 3) {
    for (size_t bn : {size_t{1}, size_t{2}, kKara - 1, kKara, an}) {
      const Pair a = PairOfLimbCount(&rng, an, rng.Bernoulli(0.5));
      const Pair b = PairOfLimbCount(&rng, bn, rng.Bernoulli(0.5));
      EXPECT_EQ((a.fast * b.fast).ToString(), (a.ref * b.ref).ToString())
          << "an=" << an << " bn=" << bn;
    }
  }
  // Heavily lopsided product: several divisor-sized chunks plus a ragged
  // tail, all above the threshold.
  const Pair wide = PairOfLimbCount(&rng, 5 * kKara + 7, false);
  const Pair narrow = PairOfLimbCount(&rng, kKara + 1, false);
  EXPECT_EQ((wide.fast * narrow.fast).ToString(),
            (wide.ref * narrow.ref).ToString());
}

TEST_P(BigIntReferenceDifferential, AddProductOfMatchesReference) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0xda942042e4dd58b5ULL + 17);
  for (int i = 0; i < 60; ++i) {
    // Cover both fused-accumulate routes: schoolbook (below threshold) and
    // the pooled Karatsuba product (at/above threshold).
    const size_t size = i % 2 == 0 ? 1 + rng.UniformInt(kKara - 1)
                                   : kKara + rng.UniformInt(kKara);
    Pair acc = RandomPair(&rng, 2 * size);
    if (acc.fast.IsNegative()) {
      acc.fast = acc.fast.Abs();
      acc.ref = acc.ref.Abs();
    }
    const Pair a = PairOfLimbCount(&rng, size, false);
    const Pair b = PairOfLimbCount(&rng, 1 + rng.UniformInt(size), false);
    acc.fast.AddProductOf(a.fast, b.fast);
    acc.ref.AddProductOf(a.ref, b.ref);
    EXPECT_EQ(acc.fast.ToString(), acc.ref.ToString()) << "size=" << size;
  }
}

TEST_P(BigIntReferenceDifferential, DivModAcrossLimbSizes) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0xd6e8feb86659fd93ULL + 19);
  for (int i = 0; i < 80; ++i) {
    const Pair dividend = RandomPair(&rng, 128);
    const Pair divisor = RandomPair(&rng, 1 + rng.UniformInt(64));
    if (divisor.fast.IsZero()) continue;
    BigInt fast_q, fast_r;
    RefBigInt ref_q, ref_r;
    BigInt::DivMod(dividend.fast, divisor.fast, &fast_q, &fast_r);
    RefBigInt::DivMod(dividend.ref, divisor.ref, &ref_q, &ref_r);
    EXPECT_EQ(fast_q.ToString(), ref_q.ToString());
    EXPECT_EQ(fast_r.ToString(), ref_r.ToString());
    // Independent of the reference: the division identity and the remainder
    // bound, which pin truncated-division semantics exactly.
    EXPECT_EQ((fast_q * divisor.fast + fast_r).ToString(),
              dividend.fast.ToString());
    EXPECT_TRUE(fast_r.Abs() < divisor.fast.Abs());
  }
}

TEST_P(BigIntReferenceDifferential, GcdMatchesEuclideanReference) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0xa0761d6478bd642fULL + 23);
  for (int i = 0; i < 40; ++i) {
    // Build operands with a guaranteed common factor so the gcd is
    // interesting, including size gaps that trigger the equalizing
    // Euclid step in the binary gcd.
    const Pair common = RandomPair(&rng, 12);
    const Pair x = RandomPair(&rng, 1 + rng.UniformInt(48));
    const Pair y = RandomPair(&rng, 1 + rng.UniformInt(6));
    const BigInt fast_gcd =
        BigInt::Gcd(common.fast * x.fast, common.fast * y.fast);
    const RefBigInt ref_gcd =
        RefBigInt::Gcd(common.ref * x.ref, common.ref * y.ref);
    EXPECT_EQ(fast_gcd.ToString(), ref_gcd.ToString());
  }
}

TEST_P(BigIntReferenceDifferential, StringRoundTripsAndShifts) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0xe7037ed1a0b428dbULL + 29);
  for (int i = 0; i < 60; ++i) {
    const Pair value = RandomPair(&rng, 96);
    const std::string text = value.ref.ToString();
    EXPECT_EQ(value.fast.ToString(), text);
    EXPECT_EQ(BigInt::FromString(text).ToString(), text);
    EXPECT_EQ(value.fast.BitLength(), value.ref.BitLength());
    const size_t bits = rng.UniformInt(200);
    EXPECT_EQ(value.fast.ShiftLeft(bits).ToString(),
              value.ref.ShiftLeft(bits).ToString());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntReferenceDifferential,
                         ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// Inline-storage (SBO) boundary: the transitions at kInlineLimbs are where
// ownership bugs would live — copies sharing buffers, moves leaking, stale
// capacities after shrink-through-zero.
// ---------------------------------------------------------------------------

BigInt ValueOfLimbCount(size_t count) {
  // 2^(64*(count-1)) + count: exactly `count` limbs, distinctive low limb.
  return BigInt(1).ShiftLeft(64 * (count - 1)) +
         BigInt(static_cast<int64_t>(count));
}

TEST(BigIntStorageTest, ApproxMemoryBytesInlineVsHeap) {
  for (size_t count = 1; count <= kInline; ++count) {
    EXPECT_EQ(ValueOfLimbCount(count).ApproxMemoryBytes(), sizeof(BigInt))
        << "inline value of " << count << " limbs must not report heap bytes";
  }
  const BigInt spilled = ValueOfLimbCount(kInline + 1);
  EXPECT_GE(spilled.ApproxMemoryBytes(),
            sizeof(BigInt) + (kInline + 1) * sizeof(uint64_t));
}

TEST(BigIntStorageTest, CopiesAreIndependentAcrossTheBoundary) {
  for (size_t count : {size_t{1}, kInline, kInline + 1, size_t{40}}) {
    BigInt original = ValueOfLimbCount(count);
    const std::string before = original.ToString();
    BigInt copy = original;
    copy += BigInt(1);
    EXPECT_EQ(original.ToString(), before) << count;
    EXPECT_NE(copy.ToString(), before) << count;
    original = copy;  // copy-assign back over a same-shape value
    EXPECT_EQ(original.ToString(), copy.ToString());
  }
}

TEST(BigIntStorageTest, MovesTransferValueAndLeaveSourceZero) {
  for (size_t count : {size_t{1}, kInline, kInline + 1, size_t{40}}) {
    BigInt original = ValueOfLimbCount(count);
    const std::string text = original.ToString();
    BigInt moved = std::move(original);
    EXPECT_EQ(moved.ToString(), text) << count;
    EXPECT_TRUE(original.IsZero()) << count;  // NOLINT(bugprone-use-after-move)
    BigInt target(7);
    target = std::move(moved);
    EXPECT_EQ(target.ToString(), text) << count;
  }
}

TEST(BigIntStorageTest, GrowAcrossInlineBoundaryInPlace) {
  // Repeated doubling walks the value from 1 limb through the inline
  // boundary into pooled heap storage via the in-place += path.
  BigInt value(1);
  RefBigInt ref(1);
  for (int i = 0; i < 70 * 64; i += 63) {
    value += value;
    RefBigInt ref_copy = ref;
    ref += ref_copy;
    ASSERT_EQ(value.ToString(), ref.ToString()) << i;
  }
}

TEST(BigIntStorageTest, AliasedCompoundOperations) {
  for (size_t count : {size_t{1}, kInline, kInline + 2, size_t{30}}) {
    BigInt value = ValueOfLimbCount(count);
    RefBigInt ref = RefBigInt::FromString(value.ToString());
    BigInt doubled = value;
    doubled += doubled;
    EXPECT_EQ(doubled.ToString(), (ref + ref).ToString());
    BigInt squared = value;
    squared *= squared;
    EXPECT_EQ(squared.ToString(), (ref * ref).ToString());
    BigInt fused = value;
    fused.AddProductOf(fused, value);  // aliased: must fall back safely
    EXPECT_EQ(fused.ToString(), (ref + ref * ref).ToString());
    BigInt cancelled = value;
    cancelled -= cancelled;
    EXPECT_TRUE(cancelled.IsZero());
  }
}

TEST(BigIntStorageTest, ThreeWayCompare) {
  const BigInt small = ValueOfLimbCount(2);
  const BigInt large = ValueOfLimbCount(kInline + 3);
  EXPECT_EQ(BigInt::Compare(small, large), -1);
  EXPECT_EQ(BigInt::Compare(large, small), 1);
  EXPECT_EQ(BigInt::Compare(large, large), 0);
  EXPECT_EQ(BigInt::Compare(-large, small), -1);
  EXPECT_EQ(BigInt::Compare(-small, -large), 1);
  EXPECT_EQ(BigInt::Compare(BigInt(0), BigInt(0)), 0);
  EXPECT_EQ(BigInt::Compare(BigInt(0), -large), 1);
}

}  // namespace
}  // namespace shapcq
