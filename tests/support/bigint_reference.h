// The retained seed implementation of BigInt: 32-bit limbs, schoolbook
// multiplication, shift-subtract division, Euclidean gcd.
//
// When the production BigInt moved to 64-bit limbs with inline small-value
// storage, Karatsuba multiplication and Knuth-D division, this copy of the
// original kernel was kept verbatim (modulo the class name) as the ground
// truth for two consumers:
//   * tests/bigint_reference_differential_test.cc pits every production
//     kernel against it across limb sizes, sign patterns and the Karatsuba
//     threshold boundary;
//   * bench/bench_arith.cc records its multiply/divide timings in the same
//     BENCH_arith.json as the production rows, so the arith gate of
//     tools/check_bench.py compares seed vs current on the same machine in
//     the same run.
// It is built as the shapcq_reference library for those two consumers and
// is not part of libshapcq. Do not optimize this class: its value is that it
// stays the seed.

#ifndef SHAPCQ_TESTS_SUPPORT_BIGINT_REFERENCE_H_
#define SHAPCQ_TESTS_SUPPORT_BIGINT_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace shapcq {

/// Seed-era arbitrary-precision signed integer (sign-magnitude, 32-bit
/// limbs, schoolbook kernels). Reference/baseline only — see file comment.
class RefBigInt {
 public:
  RefBigInt() : sign_(0) {}
  RefBigInt(int64_t value);  // NOLINT(google-explicit-constructor)
  static RefBigInt FromString(const std::string& text);
  static bool TryParse(const std::string& text, RefBigInt* out);

  int sign() const { return sign_; }
  bool IsZero() const { return sign_ == 0; }
  bool IsNegative() const { return sign_ < 0; }
  bool IsOne() const {
    return sign_ == 1 && limbs_.size() == 1 && limbs_[0] == 1;
  }

  size_t BitLength() const;

  RefBigInt operator-() const;
  RefBigInt Abs() const;

  RefBigInt operator+(const RefBigInt& other) const;
  RefBigInt operator-(const RefBigInt& other) const;
  RefBigInt operator*(const RefBigInt& other) const;
  RefBigInt operator/(const RefBigInt& other) const;
  RefBigInt operator%(const RefBigInt& other) const;

  RefBigInt& operator+=(const RefBigInt& other) {
    return AccumulateSigned(other, 1);
  }
  RefBigInt& operator-=(const RefBigInt& other) {
    return AccumulateSigned(other, -1);
  }
  RefBigInt& operator*=(const RefBigInt& other);
  RefBigInt& operator/=(const RefBigInt& other) {
    return *this = *this / other;
  }

  RefBigInt& AddProductOf(const RefBigInt& a, const RefBigInt& b);

  static void DivMod(const RefBigInt& dividend, const RefBigInt& divisor,
                     RefBigInt* quotient, RefBigInt* remainder);

  static RefBigInt Gcd(const RefBigInt& a, const RefBigInt& b);

  RefBigInt ShiftLeft(size_t bits) const;

  bool operator==(const RefBigInt& other) const;
  bool operator!=(const RefBigInt& other) const { return !(*this == other); }
  bool operator<(const RefBigInt& other) const;
  bool operator<=(const RefBigInt& other) const { return !(other < *this); }
  bool operator>(const RefBigInt& other) const { return other < *this; }
  bool operator>=(const RefBigInt& other) const { return !(*this < other); }

  std::string ToString() const;
  double ToDouble() const;
  int64_t ToInt64() const;
  bool FitsInt64() const;

 private:
  static int CompareMagnitude(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b);
  static std::vector<uint32_t> AddMagnitude(const std::vector<uint32_t>& a,
                                            const std::vector<uint32_t>& b);
  static std::vector<uint32_t> SubMagnitude(const std::vector<uint32_t>& a,
                                            const std::vector<uint32_t>& b);
  static std::vector<uint32_t> MulMagnitude(const std::vector<uint32_t>& a,
                                            const std::vector<uint32_t>& b);
  static uint32_t DivModSmallInPlace(std::vector<uint32_t>* limbs,
                                     uint32_t divisor);
  RefBigInt& AccumulateSigned(const RefBigInt& other, int sign_multiplier);
  void Normalize();

  int sign_;                     // -1, 0, +1
  std::vector<uint32_t> limbs_;  // little-endian magnitude; empty iff zero
};

}  // namespace shapcq

#endif  // SHAPCQ_TESTS_SUPPORT_BIGINT_REFERENCE_H_
