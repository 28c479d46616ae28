// One set of 64-bit limb primitives with 128-bit intermediates, shared by
// BigInt's magnitude kernels (util/bigint.cc) and the engine arena's
// fixed-width count-vector kernels (core/engine_arena.cc). Internal to the
// library: magnitudes are little-endian limb arrays, and nothing here knows
// about signs or allocation.
//
// 128-bit intermediates are `unsigned __int128` where the compiler provides
// it and a 32-bit-split portable fallback otherwise. Every kernel in both
// users is written against MulWide / Div2By1 and the row helpers below, so
// the two lowerings share one algorithm. Compile with
// -DSHAPCQ_BIGINT_FORCE_PORTABLE to exercise the fallback on an
// __int128-capable toolchain; the portable-fallback CI job runs the
// arithmetic battery and the arena's oracle battery that way.

#ifndef SHAPCQ_UTIL_LIMB_ARITH_H_
#define SHAPCQ_UTIL_LIMB_ARITH_H_

#include <cstddef>
#include <cstdint>

#if !defined(SHAPCQ_BIGINT_FORCE_PORTABLE) && defined(__SIZEOF_INT128__)
#define SHAPCQ_LIMB_HAS_INT128 1
#else
#define SHAPCQ_LIMB_HAS_INT128 0
#endif

namespace shapcq {
namespace limb {

using Limb = uint64_t;

inline int CountLeadingZeros(Limb x) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_clzll(x);
#else
  int n = 0;
  while (!(x >> 63)) {
    x <<= 1;
    ++n;
  }
  return n;
#endif
}

// hi:lo = a * b.
inline void MulWide(Limb a, Limb b, Limb* hi, Limb* lo) {
#if SHAPCQ_LIMB_HAS_INT128
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  *lo = static_cast<Limb>(product);
  *hi = static_cast<Limb>(product >> 64);
#else
  const Limb a_lo = a & 0xffffffffu, a_hi = a >> 32;
  const Limb b_lo = b & 0xffffffffu, b_hi = b >> 32;
  const Limb p0 = a_lo * b_lo;
  const Limb p1 = a_lo * b_hi;
  const Limb p2 = a_hi * b_lo;
  const Limb p3 = a_hi * b_hi;
  const Limb mid = (p0 >> 32) + (p1 & 0xffffffffu) + (p2 & 0xffffffffu);
  *lo = (mid << 32) | (p0 & 0xffffffffu);
  *hi = p3 + (p1 >> 32) + (p2 >> 32) + (mid >> 32);
#endif
}

// Divides u1:u0 by d (requires u1 < d); returns the quotient, stores the
// remainder. The portable branch is the classic base-2^32 two-digit long
// division (Hacker's Delight divlu2).
inline Limb Div2By1(Limb u1, Limb u0, Limb d, Limb* r) {
#if SHAPCQ_LIMB_HAS_INT128
  const unsigned __int128 n = (static_cast<unsigned __int128>(u1) << 64) | u0;
  *r = static_cast<Limb>(n % d);
  return static_cast<Limb>(n / d);
#else
  const Limb base = Limb{1} << 32;
  const int s = CountLeadingZeros(d);
  d <<= s;
  if (s != 0) {
    u1 = (u1 << s) | (u0 >> (64 - s));
    u0 <<= s;
  }
  const Limb dh = d >> 32, dl = d & 0xffffffffu;
  const Limb un1 = u0 >> 32, un0 = u0 & 0xffffffffu;
  Limb q1 = u1 / dh, rhat = u1 % dh;
  while (q1 >= base || q1 * dl > ((rhat << 32) | un1)) {
    --q1;
    rhat += dh;
    if (rhat >= base) break;
  }
  const Limb un21 = (u1 << 32) + un1 - q1 * d;
  Limb q0 = un21 / dh;
  rhat = un21 % dh;
  while (q0 >= base || q0 * dl > ((rhat << 32) | un0)) {
    --q0;
    rhat += dh;
    if (rhat >= base) break;
  }
  *r = ((un21 << 32) + un0 - q0 * d) >> s;
  return (q1 << 32) | q0;
#endif
}

// a + b + *carry with *carry in {0, 1}; leaves the carry out in *carry.
inline Limb AddCarry(Limb a, Limb b, Limb* carry) {
  const Limb sum1 = a + b;
  const Limb carry1 = static_cast<Limb>(sum1 < b);
  const Limb sum2 = sum1 + *carry;
  *carry = carry1 | static_cast<Limb>(sum2 < *carry);
  return sum2;
}

// a - b - *borrow with *borrow in {0, 1}; leaves the borrow out in *borrow.
inline Limb SubBorrow(Limb a, Limb b, Limb* borrow) {
  const Limb t = a - *borrow;
  const Limb borrow1 = static_cast<Limb>(t > a);
  const Limb result = t - b;
  *borrow = borrow1 | static_cast<Limb>(result > t);
  return result;
}

// a[0..n) += b[0..n); returns the carry limb.
inline Limb AddRow(Limb* a, const Limb* b, size_t n) {
  Limb carry = 0;
  for (size_t i = 0; i < n; ++i) a[i] = AddCarry(a[i], b[i], &carry);
  return carry;
}

// a[0..n) -= b[0..n); returns the borrow limb.
inline Limb SubRow(Limb* a, const Limb* b, size_t n) {
  Limb borrow = 0;
  for (size_t i = 0; i < n; ++i) a[i] = SubBorrow(a[i], b[i], &borrow);
  return borrow;
}

// a[0..n) += carry; returns the carry out of a[n − 1].
inline Limb PropagateCarry(Limb* a, size_t n, Limb carry) {
  for (size_t i = 0; carry != 0 && i < n; ++i) {
    a[i] += carry;
    carry = static_cast<Limb>(a[i] < carry);
  }
  return carry;
}

// out[0..n) = a[0..n) * m; returns the carry limb.
inline Limb MulRowTo(Limb* out, const Limb* a, size_t n, Limb m) {
#if SHAPCQ_LIMB_HAS_INT128
  unsigned __int128 carry = 0;
  for (size_t i = 0; i < n; ++i) {
    const unsigned __int128 cur =
        static_cast<unsigned __int128>(a[i]) * m + static_cast<Limb>(carry);
    out[i] = static_cast<Limb>(cur);
    carry = cur >> 64;
  }
  return static_cast<Limb>(carry);
#else
  Limb carry = 0;
  for (size_t i = 0; i < n; ++i) {
    Limb hi, lo;
    MulWide(a[i], m, &hi, &lo);
    const Limb sum = lo + carry;
    carry = hi + static_cast<Limb>(sum < lo);
    out[i] = sum;
  }
  return carry;
#endif
}

// acc[0..n) += a[0..n) * m; returns the carry limb.
inline Limb MulAddRow(Limb* acc, const Limb* a, size_t n, Limb m) {
#if SHAPCQ_LIMB_HAS_INT128
  unsigned __int128 carry = 0;
  for (size_t i = 0; i < n; ++i) {
    const unsigned __int128 cur = static_cast<unsigned __int128>(a[i]) * m +
                                  acc[i] + static_cast<Limb>(carry);
    acc[i] = static_cast<Limb>(cur);
    carry = cur >> 64;
  }
  return static_cast<Limb>(carry);
#else
  Limb carry = 0;
  for (size_t i = 0; i < n; ++i) {
    Limb hi, lo;
    MulWide(a[i], m, &hi, &lo);
    Limb sum = lo + carry;
    Limb carry_out = hi + static_cast<Limb>(sum < lo);
    const Limb with_acc = sum + acc[i];
    carry_out += static_cast<Limb>(with_acc < sum);
    acc[i] = with_acc;
    carry = carry_out;
  }
  return carry;
#endif
}

// acc[0..n) -= a[0..n) * m; returns the borrow limb.
inline Limb MulSubRow(Limb* acc, const Limb* a, size_t n, Limb m) {
  Limb borrow = 0;
  for (size_t i = 0; i < n; ++i) {
    Limb hi, lo;
    MulWide(m, a[i], &hi, &lo);
    lo += borrow;
    hi += static_cast<Limb>(lo < borrow);
    const Limb t = acc[i];
    acc[i] = t - lo;
    borrow = hi + static_cast<Limb>(t < lo);
  }
  return borrow;
}

// a[0..n) /= d in place, from the top limb down; returns the remainder.
inline Limb DivRowInPlace(Limb* a, size_t n, Limb d) {
  Limb r = 0;
  for (size_t i = n; i-- > 0;) a[i] = Div2By1(r, a[i], d, &r);
  return r;
}

// Limbs of a[0..n) below its leading zero limbs.
inline size_t SignificantLimbs(const Limb* a, size_t n) {
  while (n > 0 && a[n - 1] == 0) --n;
  return n;
}

}  // namespace limb
}  // namespace shapcq

#endif  // SHAPCQ_UTIL_LIMB_ARITH_H_
