// Arbitrary-precision signed integers.
//
// Shapley values over databases are ratios of sums of factorials; with a few
// hundred endogenous facts those factorials have thousands of bits, so exact
// computation requires big integers. This is a self-contained sign-magnitude
// implementation tuned for the CntSat convolution cascades that dominate
// every engine in this library:
//
//   * 64-bit limbs with 128-bit intermediates (`unsigned __int128` where the
//     compiler provides it, a portable 32-bit-split fallback otherwise; the
//     primitives live in util/limb_arith.h, shared with the engine arena's
//     fixed-width kernels) — half the limb traffic of the seed 32-bit
//     kernel for the same values.
//   * Small-value inline storage: magnitudes of up to kInlineLimbs (3) limbs
//     — 192 bits, which covers the overwhelming majority of count-vector
//     cells early in every cascade — live inside the object with no heap
//     allocation at all.
//   * Heap spills draw limb buffers from a thread-local size-class pool
//     (see LimbPool in bigint.cc) instead of the global allocator, so
//     convolution inner loops stop churning malloc/free.
//   * Multiplication is schoolbook below kKaratsubaThreshold limbs and
//     Karatsuba above it (threshold tuned with bench/bench_arith.cc; see
//     DESIGN.md "Arithmetic backbone"). Division is Knuth Algorithm D with
//     a single-limb fast path; Gcd is binary (Stein) with one Euclid step
//     to equalize very unbalanced operands.
//
// Results are bit-identical to the retained seed implementation
// (tests/support/bigint_reference.h), which the differential test battery
// enforces.

#ifndef SHAPCQ_UTIL_BIGINT_H_
#define SHAPCQ_UTIL_BIGINT_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>

namespace shapcq {

/// Arbitrary-precision signed integer (sign-magnitude, 64-bit limbs, inline
/// small-value storage, pooled heap limbs).
class BigInt {
 public:
  /// One magnitude digit. Little-endian order throughout.
  using Limb = uint64_t;

  /// Magnitudes of at most this many limbs are stored inline (no heap).
  static constexpr uint32_t kInlineLimbs = 3;
  /// Operands with min(|a|, |b|) at or above this many limbs multiply via
  /// Karatsuba; below it, schoolbook wins (threshold methodology in
  /// DESIGN.md; re-tune with bench_arith's BM_BigIntMul sweep).
  static constexpr size_t kKaratsubaThreshold = 16;

  /// Zero.
  BigInt() : size_(0), sign_(0), capacity_(kInlineLimbs) {}
  /// From a machine integer.
  BigInt(int64_t value);  // NOLINT(google-explicit-constructor): numeric glue

  BigInt(const BigInt& other);
  BigInt(BigInt&& other) noexcept;
  BigInt& operator=(const BigInt& other);
  BigInt& operator=(BigInt&& other) noexcept;
  ~BigInt();

  /// Parses a decimal string with optional leading '-'. Aborts on bad input;
  /// use TryParse for untrusted input.
  static BigInt FromString(const std::string& text);
  /// Parses a decimal string; returns false (leaving *out untouched) on
  /// malformed input.
  static bool TryParse(const std::string& text, BigInt* out);

  /// -1, 0 or +1.
  int sign() const { return sign_; }
  bool IsZero() const { return sign_ == 0; }
  bool IsNegative() const { return sign_ < 0; }
  bool IsOne() const { return sign_ == 1 && size_ == 1 && limbs()[0] == 1; }

  /// Number of significant bits of the magnitude (0 for zero).
  size_t BitLength() const;

  /// A read-only view of the magnitude: `size` little-endian limbs with no
  /// leading zero limb (none for zero). Valid while the value is unchanged.
  struct Magnitude {
    const Limb* limbs;
    size_t size;
  };
  Magnitude magnitude() const { return {limbs(), size_}; }
  /// The non-negative value of `count` little-endian limbs (leading zero
  /// limbs allowed).
  static BigInt FromLimbs(const Limb* limbs, size_t count);

  /// Approximate memory footprint in bytes (object plus owned limb storage).
  /// Inline magnitudes cost exactly sizeof(BigInt) — the inline limbs are
  /// part of the object and must not be double-counted. A heap buffer is
  /// attributed to the BigInt that currently owns it; buffers parked in the
  /// thread-local free pool belong to no value and are not counted here.
  /// Feeds the byte-budgeted LRU accounting of the serving layer; an
  /// estimate, not an allocator audit.
  size_t ApproxMemoryBytes() const {
    return sizeof(BigInt) + (IsHeap() ? capacity_ * sizeof(Limb) : 0);
  }

  BigInt operator-() const;
  BigInt Abs() const;

  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;
  /// Truncated division (C++ semantics: quotient rounds toward zero).
  BigInt operator/(const BigInt& other) const;
  /// Remainder with the sign of the dividend (C++ semantics).
  BigInt operator%(const BigInt& other) const;

  /// True in-place accumulation: reuses this value's limb storage instead of
  /// allocating a temporary and copy-assigning it back. The hot loops of the
  /// CntSat convolutions run entirely on += / AddProductOf.
  BigInt& operator+=(const BigInt& other) { return AccumulateSigned(other, 1); }
  BigInt& operator-=(const BigInt& other) { return AccumulateSigned(other, -1); }
  BigInt& operator*=(const BigInt& other);
  BigInt& operator/=(const BigInt& other) { return *this = *this / other; }

  /// Fused multiply-accumulate: *this += a * b. When the product's sign
  /// cannot flip the accumulator's (the invariant throughout count-vector
  /// arithmetic, where everything is non-negative) and the operands are
  /// below the Karatsuba threshold, the schoolbook partial products are
  /// accumulated directly into this value's limbs — no temporary BigInt is
  /// materialized. Large operands route through the Karatsuba multiplier
  /// into a pooled scratch buffer and are added in one pass.
  BigInt& AddProductOf(const BigInt& a, const BigInt& b);

  /// Computes quotient and remainder in one pass. Aborts if divisor is zero.
  static void DivMod(const BigInt& dividend, const BigInt& divisor,
                     BigInt* quotient, BigInt* remainder);

  /// Greatest common divisor of |a| and |b| (non-negative).
  static BigInt Gcd(const BigInt& a, const BigInt& b);

  /// this * 2^bits.
  BigInt ShiftLeft(size_t bits) const;

  /// Three-way comparison: -1, 0, +1 for a <=> b.
  static int Compare(const BigInt& a, const BigInt& b);

  bool operator==(const BigInt& other) const;
  bool operator!=(const BigInt& other) const { return !(*this == other); }
  bool operator<(const BigInt& other) const {
    return Compare(*this, other) < 0;
  }
  bool operator<=(const BigInt& other) const { return !(other < *this); }
  bool operator>(const BigInt& other) const { return other < *this; }
  bool operator>=(const BigInt& other) const { return !(*this < other); }

  /// Decimal representation.
  std::string ToString() const;
  /// Nearest double (may overflow to +/-inf for huge values).
  double ToDouble() const;
  /// Value as int64 if it fits; aborts otherwise.
  int64_t ToInt64() const;
  /// True if the value fits in int64.
  bool FitsInt64() const;

 private:
  bool IsHeap() const { return capacity_ > kInlineLimbs; }
  const Limb* limbs() const {
    return IsHeap() ? storage_.heap : storage_.inline_limbs;
  }
  Limb* limbs() { return IsHeap() ? storage_.heap : storage_.inline_limbs; }

  // Storage management (implemented over the thread-local LimbPool).
  // EnsureCapacity preserves the first size_ limbs; ReserveDiscard does not.
  void EnsureCapacity(size_t limb_count);
  void ReserveDiscard(size_t limb_count);
  void ReleaseStorage();
  void SetZero();
  // Drops leading zero limbs and syncs sign_ with size_.
  void TrimAndSync(int sign_if_nonzero);

  // Magnitude helpers on this object's buffer.
  BigInt& AccumulateSigned(const BigInt& other, int sign_multiplier);
  void AssignMagnitude(const Limb* limbs, size_t count, int sign);

  uint32_t size_;      // significant limbs; 0 iff value is zero
  int32_t sign_;       // -1, 0, +1; 0 iff size_ == 0
  uint32_t capacity_;  // kInlineLimbs when inline, pool class size when heap
  union {
    Limb inline_limbs[kInlineLimbs];
    Limb* heap;
  } storage_;
};

std::ostream& operator<<(std::ostream& os, const BigInt& value);

}  // namespace shapcq

#endif  // SHAPCQ_UTIL_BIGINT_H_
