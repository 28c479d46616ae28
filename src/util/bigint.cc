#include "util/bigint.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <limits>
#include <ostream>
#include <vector>

#include "util/check.h"
#include "util/limb_arith.h"

namespace shapcq {

namespace {

using Limb = BigInt::Limb;
using limb::CountLeadingZeros;
using limb::Div2By1;
using limb::MulAddRow;
using limb::MulRowTo;
using limb::MulSubRow;
using limb::MulWide;
using limb::SignificantLimbs;

inline int CountTrailingZeros(Limb x) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_ctzll(x);
#else
  int n = 0;
  while (!(x & 1)) {
    x >>= 1;
    ++n;
  }
  return n;
#endif
}

// ---------------------------------------------------------------------------
// LimbPool: thread-local size-class freelists for heap limb buffers.
//
// Every heap spill of a BigInt goes through Acquire/Release instead of the
// global allocator. Capacities are powers of two from kMinPoolCapacity up to
// kMinPoolCapacity << (kNumSizeClasses - 1); larger requests fall through to
// plain new[]/delete[]. The cache is strictly thread-local (no locks, no
// sharing — TSan-clean by construction); a buffer acquired on one thread may
// be released on another, in which case it simply parks in (or is freed
// from) the releasing thread's cache. After the cache's thread-exit
// destructor has run, Acquire/Release degrade to plain new[]/delete[] so
// static-duration BigInts destroyed late stay correct.
// ---------------------------------------------------------------------------

constexpr size_t kMinPoolCapacity = 4;   // > BigInt::kInlineLimbs by contract
constexpr size_t kNumSizeClasses = 13;   // up to 4 << 12 = 16384 limbs
// Parked memory is bounded two ways: at most kMaxFreePerClass buffers AND at
// most kMaxFreeLimbsPerClass limbs (128 KiB) per class — so a thread parks
// ≤ ~1.7 MiB total, instead of 64 of the largest buffers (~8 MiB in the top
// class alone). Parked bytes are invisible to ApproxMemoryBytes by design,
// so this bound is what keeps the registry's byte budget honest.
constexpr size_t kMaxFreePerClass = 64;
constexpr size_t kMaxFreeLimbsPerClass = 16384;

static_assert(kMinPoolCapacity > BigInt::kInlineLimbs,
              "heap capacities must exceed kInlineLimbs: capacity_ is the "
              "inline/heap discriminator");

inline size_t ClassCapacity(size_t size_class) {
  return kMinPoolCapacity << size_class;
}

// Smallest class whose capacity is >= limb_count; kNumSizeClasses if none.
inline size_t SizeClassFor(size_t limb_count) {
  size_t size_class = 0;
  size_t capacity = kMinPoolCapacity;
  while (size_class < kNumSizeClasses && capacity < limb_count) {
    capacity <<= 1;
    ++size_class;
  }
  return size_class;
}

struct LimbPoolCache;
thread_local LimbPoolCache* g_pool_cache = nullptr;
thread_local bool g_pool_cache_dead = false;

struct LimbPoolCache {
  std::vector<Limb*> free_lists[kNumSizeClasses];

  LimbPoolCache() { g_pool_cache = this; }
  ~LimbPoolCache() {
    for (std::vector<Limb*>& list : free_lists) {
      for (Limb* buffer : list) delete[] buffer;
    }
    g_pool_cache = nullptr;
    g_pool_cache_dead = true;
  }
};

inline LimbPoolCache* GetPoolCache() {
  if (g_pool_cache != nullptr) return g_pool_cache;
  if (g_pool_cache_dead) return nullptr;
  static thread_local LimbPoolCache cache;
  return g_pool_cache;
}

Limb* PoolAcquire(size_t min_limbs, uint32_t* capacity_out) {
  const size_t size_class = SizeClassFor(min_limbs);
  if (size_class >= kNumSizeClasses) {
    *capacity_out = static_cast<uint32_t>(min_limbs);
    return new Limb[min_limbs];
  }
  const size_t capacity = ClassCapacity(size_class);
  *capacity_out = static_cast<uint32_t>(capacity);
  LimbPoolCache* cache = GetPoolCache();
  if (cache != nullptr && !cache->free_lists[size_class].empty()) {
    Limb* buffer = cache->free_lists[size_class].back();
    cache->free_lists[size_class].pop_back();
    return buffer;
  }
  return new Limb[capacity];
}

void PoolRelease(Limb* buffer, size_t capacity) {
  const size_t size_class = SizeClassFor(capacity);
  if (size_class < kNumSizeClasses && ClassCapacity(size_class) == capacity) {
    const size_t max_parked = std::min(
        kMaxFreePerClass, std::max<size_t>(1, kMaxFreeLimbsPerClass / capacity));
    LimbPoolCache* cache = GetPoolCache();
    if (cache != nullptr &&
        cache->free_lists[size_class].size() < max_parked) {
      cache->free_lists[size_class].push_back(buffer);
      return;
    }
  }
  delete[] buffer;
}

// RAII scratch buffer drawn from the pool (Karatsuba temporaries, division
// work areas, large fused-accumulate products).
class PooledScratch {
 public:
  explicit PooledScratch(size_t limb_count) {
    data_ = PoolAcquire(limb_count, &capacity_);
  }
  ~PooledScratch() { PoolRelease(data_, capacity_); }
  PooledScratch(const PooledScratch&) = delete;
  PooledScratch& operator=(const PooledScratch&) = delete;

  Limb* data() { return data_; }

 private:
  Limb* data_;
  uint32_t capacity_;
};

// ---------------------------------------------------------------------------
// Raw magnitude kernels (little-endian limb arrays, no sign handling).
// ---------------------------------------------------------------------------

// -1, 0, +1 for a[0..an) vs b[0..bn); operands need not be trimmed.
int CompareLimbs(const Limb* a, size_t an, const Limb* b, size_t bn) {
  while (an > 0 && a[an - 1] == 0) --an;
  while (bn > 0 && b[bn - 1] == 0) --bn;
  if (an != bn) return an < bn ? -1 : 1;
  for (size_t i = an; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

// a[0..an) -= b[0..bn) in place; requires |a| >= |b| (final borrow is zero).
void SubLimbsInPlace(Limb* a, size_t an, const Limb* b, size_t bn) {
  Limb borrow = limb::SubRow(a, b, bn);
  for (size_t i = bn; borrow != 0 && i < an; ++i) {
    const Limb t = a[i] - borrow;
    borrow = static_cast<Limb>(t > a[i]);
    a[i] = t;
  }
  SHAPCQ_CHECK_MSG(borrow == 0, "magnitude subtraction underflow");
}

// res[off..) += add[0..n), propagating the carry; the sum must fit below
// res + res_len.
void AddLimbsAt(Limb* res, size_t res_len, size_t off, const Limb* add,
                size_t n) {
  const Limb carry = limb::PropagateCarry(res + off + n, res_len - off - n,
                                          limb::AddRow(res + off, add, n));
  SHAPCQ_CHECK_MSG(carry == 0, "magnitude addition overflow");
}

void MulMagnitudeTo(const Limb* a, size_t an, const Limb* b, size_t bn,
                    Limb* res);

// Schoolbook product into res[0..an+bn) (fully overwritten). Requires
// an >= bn >= 1.
void SchoolbookMulTo(const Limb* a, size_t an, const Limb* b, size_t bn,
                     Limb* res) {
  std::memset(res, 0, (an + bn) * sizeof(Limb));
  for (size_t i = 0; i < an; ++i) {
    // Row i writes res[i..i+bn); position i+bn has never been written by an
    // earlier row (max earlier index is i-1+bn), so the carry is a store.
    res[i + bn] = MulAddRow(res + i, b, bn, a[i]);
  }
}

// Karatsuba product into res[0..an+bn) (fully overwritten). Requires
// an >= bn > an/2 and bn >= BigInt::kKaratsubaThreshold.
void KaratsubaMulTo(const Limb* a, size_t an, const Limb* b, size_t bn,
                    Limb* res) {
  const size_t h = an >> 1;  // split point; bn > h by the balance precondition
  const Limb* a0 = a;
  const size_t a0n = h;
  const Limb* a1 = a + h;
  const size_t a1n = an - h;
  const Limb* b0 = b;
  const size_t b0n = h;
  const Limb* b1 = b + h;
  const size_t b1n = bn - h;

  // z0 = a0*b0 and z2 = a1*b1 land directly in their final positions: they
  // occupy disjoint halves res[0..2h) and res[2h..an+bn).
  MulMagnitudeTo(a0, a0n, b0, b0n, res);
  MulMagnitudeTo(a1, a1n, b1, b1n, res + 2 * h);

  // z1 = (a0+a1)(b0+b1) - z0 - z2, computed in pooled scratch.
  const size_t sa_len = std::max(a0n, a1n) + 1;
  const size_t sb_len = std::max(b0n, b1n) + 1;
  const size_t z1_len = sa_len + sb_len;
  PooledScratch scratch(sa_len + sb_len + z1_len);
  Limb* sum_a = scratch.data();
  Limb* sum_b = sum_a + sa_len;
  Limb* z1 = sum_b + sb_len;

  std::memcpy(sum_a, a1, a1n * sizeof(Limb));
  sum_a[sa_len - 1] = 0;
  AddLimbsAt(sum_a, sa_len, 0, a0, a0n);
  std::memcpy(sum_b, b1, b1n * sizeof(Limb));
  if (b1n < sb_len) {
    std::memset(sum_b + b1n, 0, (sb_len - b1n) * sizeof(Limb));
  }
  AddLimbsAt(sum_b, sb_len, 0, b0, b0n);

  MulMagnitudeTo(sum_a, sa_len, sum_b, sb_len, z1);
  SubLimbsInPlace(z1, z1_len, res, SignificantLimbs(res, 2 * h));
  SubLimbsInPlace(z1, z1_len, res + 2 * h,
                  SignificantLimbs(res + 2 * h, an + bn - 2 * h));
  AddLimbsAt(res, an + bn, h, z1, SignificantLimbs(z1, z1_len));
}

// Full product dispatcher into res[0..an+bn) (fully overwritten). Requires
// an, bn >= 1. Balanced large operands go to Karatsuba; a very lopsided pair
// is cut into divisor-sized chunks so the recursion stays balanced.
void MulMagnitudeTo(const Limb* a, size_t an, const Limb* b, size_t bn,
                    Limb* res) {
  if (an < bn) {
    std::swap(a, b);
    std::swap(an, bn);
  }
  if (bn == 1) {
    res[an] = MulRowTo(res, a, an, b[0]);
    return;
  }
  if (bn < BigInt::kKaratsubaThreshold) {
    SchoolbookMulTo(a, an, b, bn, res);
    return;
  }
  if (bn * 2 <= an) {
    std::memset(res, 0, (an + bn) * sizeof(Limb));
    PooledScratch scratch(2 * bn);
    for (size_t off = 0; off < an; off += bn) {
      const size_t chunk = std::min(bn, an - off);
      MulMagnitudeTo(a + off, chunk, b, bn, scratch.data());
      AddLimbsAt(res, an + bn, off, scratch.data(),
                 SignificantLimbs(scratch.data(), chunk + bn));
    }
    return;
  }
  KaratsubaMulTo(a, an, b, bn, res);
}

// In-place right shift of a[0..*n) by the given bit count; trims *n.
void ShiftRightInPlace(Limb* a, size_t* n, size_t bits) {
  const size_t limb_shift = bits / 64;
  const size_t bit_shift = bits % 64;
  if (limb_shift >= *n) {
    *n = 0;
    return;
  }
  const size_t new_n = *n - limb_shift;
  if (bit_shift == 0) {
    std::memmove(a, a + limb_shift, new_n * sizeof(Limb));
  } else {
    for (size_t i = 0; i < new_n; ++i) {
      const Limb lo = a[i + limb_shift] >> bit_shift;
      const Limb hi = (i + limb_shift + 1 < *n)
                          ? a[i + limb_shift + 1] << (64 - bit_shift)
                          : 0;
      a[i] = lo | hi;
    }
  }
  *n = SignificantLimbs(a, new_n);
}

size_t TrailingZeroBits(const Limb* a, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != 0) return i * 64 + CountTrailingZeros(a[i]);
  }
  return n * 64;
}

}  // namespace

// ---------------------------------------------------------------------------
// Storage management.
// ---------------------------------------------------------------------------

BigInt::~BigInt() { ReleaseStorage(); }

void BigInt::ReleaseStorage() {
  if (IsHeap()) {
    PoolRelease(storage_.heap, capacity_);
    capacity_ = kInlineLimbs;
  }
}

void BigInt::SetZero() {
  size_ = 0;
  sign_ = 0;
}

void BigInt::EnsureCapacity(size_t limb_count) {
  if (limb_count <= capacity_) return;
  uint32_t new_capacity = 0;
  Limb* buffer = PoolAcquire(limb_count, &new_capacity);
  if (size_ > 0) std::memcpy(buffer, limbs(), size_ * sizeof(Limb));
  ReleaseStorage();
  storage_.heap = buffer;
  capacity_ = new_capacity;
}

void BigInt::ReserveDiscard(size_t limb_count) {
  if (limb_count <= capacity_) return;
  uint32_t new_capacity = 0;
  Limb* buffer = PoolAcquire(limb_count, &new_capacity);
  ReleaseStorage();
  storage_.heap = buffer;
  capacity_ = new_capacity;
}

void BigInt::TrimAndSync(int sign_if_nonzero) {
  while (size_ > 0 && limbs()[size_ - 1] == 0) --size_;
  sign_ = size_ == 0 ? 0 : sign_if_nonzero;
}

void BigInt::AssignMagnitude(const Limb* source, size_t count, int sign) {
  ReserveDiscard(count);
  if (count > 0) std::memcpy(limbs(), source, count * sizeof(Limb));
  size_ = static_cast<uint32_t>(count);
  TrimAndSync(sign);
}

BigInt::BigInt(const BigInt& other)
    : size_(0), sign_(0), capacity_(kInlineLimbs) {
  AssignMagnitude(other.limbs(), other.size_, other.sign_);
}

BigInt::BigInt(BigInt&& other) noexcept
    : size_(other.size_), sign_(other.sign_), capacity_(other.capacity_) {
  if (other.IsHeap()) {
    storage_.heap = other.storage_.heap;
    other.capacity_ = kInlineLimbs;
  } else {
    std::memcpy(storage_.inline_limbs, other.storage_.inline_limbs,
                sizeof(storage_.inline_limbs));
  }
  other.SetZero();
}

BigInt& BigInt::operator=(const BigInt& other) {
  if (this != &other) AssignMagnitude(other.limbs(), other.size_, other.sign_);
  return *this;
}

BigInt& BigInt::operator=(BigInt&& other) noexcept {
  if (this == &other) return *this;
  ReleaseStorage();
  size_ = other.size_;
  sign_ = other.sign_;
  capacity_ = other.capacity_;
  if (other.IsHeap()) {
    storage_.heap = other.storage_.heap;
    other.capacity_ = kInlineLimbs;
  } else {
    std::memcpy(storage_.inline_limbs, other.storage_.inline_limbs,
                sizeof(storage_.inline_limbs));
  }
  other.SetZero();
  return *this;
}

// ---------------------------------------------------------------------------
// Construction and parsing.
// ---------------------------------------------------------------------------

BigInt::BigInt(int64_t value) : size_(0), sign_(0), capacity_(kInlineLimbs) {
  if (value == 0) return;
  sign_ = value > 0 ? 1 : -1;
  // Avoid overflow on INT64_MIN by negating in unsigned space.
  storage_.inline_limbs[0] = value > 0
                                 ? static_cast<uint64_t>(value)
                                 : ~static_cast<uint64_t>(value) + 1;
  size_ = 1;
}

bool BigInt::TryParse(const std::string& text, BigInt* out) {
  size_t pos = 0;
  bool negative = false;
  if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) {
    negative = text[pos] == '-';
    ++pos;
  }
  if (pos >= text.size()) return false;
  for (size_t i = pos; i < text.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(text[i]))) return false;
  }
  // Fold 18 decimal digits at a time: one single-limb multiply and one
  // single-limb add per chunk instead of per digit.
  BigInt result;
  constexpr size_t kChunkDigits = 18;
  constexpr int64_t kChunkScale = 1000000000000000000;  // 10^18
  while (pos < text.size()) {
    const size_t take = std::min(kChunkDigits, text.size() - pos);
    int64_t chunk = 0;
    int64_t scale = 1;
    for (size_t i = 0; i < take; ++i) {
      chunk = chunk * 10 + (text[pos + i] - '0');
      scale *= 10;
    }
    result *= take == kChunkDigits ? BigInt(kChunkScale) : BigInt(scale);
    result += BigInt(chunk);
    pos += take;
  }
  if (negative && !result.IsZero()) result.sign_ = -1;
  *out = std::move(result);
  return true;
}

BigInt BigInt::FromLimbs(const Limb* limbs, size_t count) {
  BigInt result;
  result.AssignMagnitude(limbs, count, 1);
  return result;
}

BigInt BigInt::FromString(const std::string& text) {
  BigInt result;
  SHAPCQ_CHECK_MSG(TryParse(text, &result), "malformed decimal BigInt literal");
  return result;
}

size_t BigInt::BitLength() const {
  if (size_ == 0) return 0;
  return size_ * 64 - CountLeadingZeros(limbs()[size_ - 1]);
}

// ---------------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------------

int BigInt::Compare(const BigInt& a, const BigInt& b) {
  if (a.sign_ != b.sign_) return a.sign_ < b.sign_ ? -1 : 1;
  if (a.sign_ == 0) return 0;
  const int magnitude_cmp = CompareLimbs(a.limbs(), a.size_, b.limbs(), b.size_);
  return a.sign_ > 0 ? magnitude_cmp : -magnitude_cmp;
}

bool BigInt::operator==(const BigInt& other) const {
  return sign_ == other.sign_ && size_ == other.size_ &&
         std::memcmp(limbs(), other.limbs(), size_ * sizeof(Limb)) == 0;
}

// ---------------------------------------------------------------------------
// Addition and subtraction.
// ---------------------------------------------------------------------------

BigInt BigInt::operator-() const {
  BigInt result = *this;
  result.sign_ = -result.sign_;
  return result;
}

BigInt BigInt::Abs() const {
  BigInt result = *this;
  if (result.sign_ < 0) result.sign_ = 1;
  return result;
}

BigInt BigInt::operator+(const BigInt& other) const {
  BigInt result = *this;
  result.AccumulateSigned(other, 1);
  return result;
}

BigInt BigInt::operator-(const BigInt& other) const {
  BigInt result = *this;
  result.AccumulateSigned(other, -1);
  return result;
}

BigInt& BigInt::AccumulateSigned(const BigInt& other, int sign_multiplier) {
  const int other_sign = other.sign_ * sign_multiplier;
  if (other_sign == 0) return *this;
  if (this == &other) {
    // Aliased: either doubling (+=) or cancellation (-=).
    if (sign_multiplier < 0) {
      SetZero();
      return *this;
    }
    Limb carry = 0;
    Limb* mine = limbs();
    for (size_t i = 0; i < size_; ++i) {
      const Limb limb = mine[i];
      mine[i] = (limb << 1) | carry;
      carry = limb >> 63;
    }
    if (carry != 0) {
      EnsureCapacity(size_ + 1);
      limbs()[size_++] = carry;
    }
    return *this;
  }
  if (sign_ == 0) {
    AssignMagnitude(other.limbs(), other.size_, other_sign);
    return *this;
  }
  if (sign_ == other_sign) {
    // Magnitude addition in place.
    if (size_ < other.size_) {
      EnsureCapacity(other.size_);
      std::memset(limbs() + size_, 0, (other.size_ - size_) * sizeof(Limb));
      size_ = other.size_;
    }
    Limb* mine = limbs();
    const Limb* theirs = other.limbs();
    Limb carry = limb::AddRow(mine, theirs, other.size_);
    carry = limb::PropagateCarry(mine + other.size_, size_ - other.size_,
                                 carry);
    if (carry != 0) {
      EnsureCapacity(size_ + 1);
      limbs()[size_++] = carry;
    }
    return *this;
  }
  const int cmp = CompareLimbs(limbs(), size_, other.limbs(), other.size_);
  if (cmp == 0) {
    SetZero();
    return *this;
  }
  if (cmp > 0) {
    SubLimbsInPlace(limbs(), size_, other.limbs(), other.size_);
    TrimAndSync(sign_);
  } else {
    // *this = |other| - |*this| with other's sign; computed in place, each
    // position is read before it is written.
    EnsureCapacity(other.size_);
    Limb* mine = limbs();
    const Limb* theirs = other.limbs();
    Limb borrow = 0;
    for (size_t i = 0; i < other.size_; ++i) {
      mine[i] = limb::SubBorrow(theirs[i], i < size_ ? mine[i] : 0, &borrow);
    }
    SHAPCQ_CHECK_MSG(borrow == 0, "magnitude subtraction underflow");
    size_ = other.size_;
    TrimAndSync(other_sign);
  }
  return *this;
}

// ---------------------------------------------------------------------------
// Multiplication.
// ---------------------------------------------------------------------------

BigInt BigInt::operator*(const BigInt& other) const {
  if (sign_ == 0 || other.sign_ == 0) return BigInt();
  BigInt result;
  if (size_ == 1 && other.size_ == 1) {
    // Single-limb fast path: one hardware multiply, at most two limbs out.
    Limb hi, lo;
    MulWide(limbs()[0], other.limbs()[0], &hi, &lo);
    result.storage_.inline_limbs[0] = lo;
    result.storage_.inline_limbs[1] = hi;
    result.size_ = hi != 0 ? 2 : 1;
    result.sign_ = sign_ * other.sign_;
    return result;
  }
  result.ReserveDiscard(size_ + other.size_);
  MulMagnitudeTo(limbs(), size_, other.limbs(), other.size_, result.limbs());
  result.size_ = size_ + other.size_;
  result.TrimAndSync(sign_ * other.sign_);
  return result;
}

BigInt& BigInt::operator*=(const BigInt& other) {
  if (sign_ == 0) return *this;
  if (other.sign_ == 0) {
    SetZero();
    return *this;
  }
  if (other.size_ == 1) {
    // In-place scan with carry; covers the aliased x *= x only when x is
    // itself single-limb, where the multiplier limb is read up front.
    const Limb multiplier = other.limbs()[0];
    const int result_sign = sign_ * other.sign_;
    const Limb carry = MulRowTo(limbs(), limbs(), size_, multiplier);
    if (carry != 0) {
      EnsureCapacity(size_ + 1);
      limbs()[size_++] = carry;
    }
    sign_ = result_sign;
    return *this;
  }
  return *this = *this * other;
}

BigInt& BigInt::AddProductOf(const BigInt& a, const BigInt& b) {
  if (a.sign_ == 0 || b.sign_ == 0) return *this;
  const int product_sign = a.sign_ * b.sign_;
  if (this == &a || this == &b || (sign_ != 0 && sign_ != product_sign)) {
    // Aliased or sign-flipping accumulation: take the allocating route.
    return *this += a * b;
  }
  const size_t an = a.size_;
  const size_t bn = b.size_;
  if (std::min(an, bn) >= kKaratsubaThreshold) {
    // Large operands: Karatsuba into pooled scratch, then one addition pass.
    PooledScratch product(an + bn);
    MulMagnitudeTo(a.limbs(), an, b.limbs(), bn, product.data());
    const size_t product_size = SignificantLimbs(product.data(), an + bn);
    if (size_ < product_size) {
      EnsureCapacity(product_size);
      std::memset(limbs() + size_, 0, (product_size - size_) * sizeof(Limb));
      size_ = static_cast<uint32_t>(product_size);
    }
    EnsureCapacity(size_ + 1);
    limbs()[size_] = 0;
    AddLimbsAt(limbs(), size_ + 1, 0, product.data(), product_size);
    if (limbs()[size_] != 0) ++size_;
    TrimAndSync(product_sign);
    return *this;
  }
  // Schoolbook partial products accumulated straight into this value's
  // limbs — no temporary BigInt, no scratch.
  if (size_ < an + bn) {
    EnsureCapacity(an + bn);
    std::memset(limbs() + size_, 0, (an + bn - size_) * sizeof(Limb));
    size_ = static_cast<uint32_t>(an + bn);
  }
  const Limb* al = a.limbs();
  const Limb* bl = b.limbs();
  for (size_t i = 0; i < an; ++i) {
    Limb carry = MulAddRow(limbs() + i, bl, bn, al[i]);
    for (size_t k = i + bn; carry != 0; ++k) {
      if (k == size_) {
        EnsureCapacity(size_ + 1);
        limbs()[size_++] = carry;
        break;
      }
      const Limb sum = limbs()[k] + carry;
      carry = static_cast<Limb>(sum < carry);
      limbs()[k] = sum;
    }
  }
  TrimAndSync(product_sign);
  return *this;
}

// ---------------------------------------------------------------------------
// Shifts.
// ---------------------------------------------------------------------------

BigInt BigInt::ShiftLeft(size_t bits) const {
  if (sign_ == 0 || bits == 0) return *this;
  const size_t limb_shift = bits / 64;
  const size_t bit_shift = bits % 64;
  BigInt result;
  result.ReserveDiscard(size_ + limb_shift + 1);
  Limb* out = result.limbs();
  std::memset(out, 0, limb_shift * sizeof(Limb));
  const Limb* in = limbs();
  if (bit_shift == 0) {
    std::memcpy(out + limb_shift, in, size_ * sizeof(Limb));
    result.size_ = static_cast<uint32_t>(size_ + limb_shift);
  } else {
    Limb carry = 0;
    for (size_t i = 0; i < size_; ++i) {
      out[limb_shift + i] = (in[i] << bit_shift) | carry;
      carry = in[i] >> (64 - bit_shift);
    }
    out[limb_shift + size_] = carry;
    result.size_ = static_cast<uint32_t>(size_ + limb_shift + 1);
  }
  result.TrimAndSync(sign_);
  return result;
}

// ---------------------------------------------------------------------------
// Division (Knuth Algorithm D with a single-limb fast path).
// ---------------------------------------------------------------------------

void BigInt::DivMod(const BigInt& dividend, const BigInt& divisor,
                    BigInt* quotient, BigInt* remainder) {
  SHAPCQ_CHECK_MSG(divisor.sign_ != 0, "division by zero");
  const int cmp =
      CompareLimbs(dividend.limbs(), dividend.size_, divisor.limbs(),
                   divisor.size_);
  if (cmp < 0) {
    // |dividend| < |divisor|: computed via locals so the out-params may
    // alias the inputs.
    BigInt rem = dividend;
    *quotient = BigInt();
    *remainder = std::move(rem);
    return;
  }
  const size_t an = dividend.size_;
  const size_t bn = divisor.size_;
  BigInt quot, rem;
  if (bn == 1) {
    // Single-limb divisor: one Div2By1 per dividend limb.
    const Limb d = divisor.limbs()[0];
    quot.ReserveDiscard(an);
    const Limb* u = dividend.limbs();
    Limb* q = quot.limbs();
    Limb r = 0;
    for (size_t i = an; i-- > 0;) {
      q[i] = Div2By1(r, u[i], d, &r);
    }
    quot.size_ = static_cast<uint32_t>(an);
    if (r != 0) {
      rem.storage_.inline_limbs[0] = r;
      rem.size_ = 1;
      rem.sign_ = 1;
    }
  } else {
    // Knuth Algorithm D. Normalize so the divisor's top bit is set, run the
    // quotient-digit loop with a two-limb qhat estimate, then denormalize
    // the remainder.
    const size_t m = an - bn;
    const int shift = CountLeadingZeros(divisor.limbs()[bn - 1]);
    PooledScratch work(an + 1 + bn);
    Limb* u = work.data();       // an + 1 limbs
    Limb* v = u + (an + 1);      // bn limbs
    {
      const Limb* src = divisor.limbs();
      if (shift == 0) {
        std::memcpy(v, src, bn * sizeof(Limb));
      } else {
        Limb carry = 0;
        for (size_t i = 0; i < bn; ++i) {
          v[i] = (src[i] << shift) | carry;
          carry = src[i] >> (64 - shift);
        }
      }
      const Limb* usrc = dividend.limbs();
      if (shift == 0) {
        std::memcpy(u, usrc, an * sizeof(Limb));
        u[an] = 0;
      } else {
        Limb carry = 0;
        for (size_t i = 0; i < an; ++i) {
          u[i] = (usrc[i] << shift) | carry;
          carry = usrc[i] >> (64 - shift);
        }
        u[an] = carry;
      }
    }
    quot.ReserveDiscard(m + 1);
    Limb* q = quot.limbs();
    const Limb v_top = v[bn - 1];
    const Limb v_next = v[bn - 2];
    for (size_t j = m + 1; j-- > 0;) {
      Limb qhat, rhat;
      bool rhat_overflow = false;
      if (u[j + bn] >= v_top) {
        // u[j+bn] == v_top after normalization (it cannot exceed it);
        // clamp the digit to base-1.
        qhat = std::numeric_limits<Limb>::max();
        rhat = u[j + bn - 1] + v_top;
        rhat_overflow = rhat < v_top;
      } else {
        qhat = Div2By1(u[j + bn], u[j + bn - 1], v_top, &rhat);
      }
      while (!rhat_overflow) {
        // Refine qhat with the next divisor limb: at most two decrements.
        Limb p_hi, p_lo;
        MulWide(qhat, v_next, &p_hi, &p_lo);
        if (p_hi < rhat || (p_hi == rhat && p_lo <= u[j + bn - 2])) break;
        --qhat;
        rhat += v_top;
        rhat_overflow = rhat < v_top;
      }
      const Limb borrow = MulSubRow(u + j, v, bn, qhat);
      const Limb top = u[j + bn];
      u[j + bn] = top - borrow;
      if (top < borrow) {
        // qhat was one too large: add the divisor back.
        --qhat;
        u[j + bn] += limb::AddRow(u + j, v, bn);
      }
      q[j] = qhat;
    }
    quot.size_ = static_cast<uint32_t>(m + 1);
    size_t rem_size = bn;
    ShiftRightInPlace(u, &rem_size, static_cast<size_t>(shift));
    rem.AssignMagnitude(u, rem_size, 1);
  }
  quot.TrimAndSync(1);
  rem.TrimAndSync(1);
  // Truncated division signs: quotient sign is product of operand signs,
  // remainder takes the dividend's sign.
  if (!quot.IsZero()) quot.sign_ = dividend.sign_ * divisor.sign_;
  if (!rem.IsZero()) rem.sign_ = dividend.sign_;
  *quotient = std::move(quot);
  *remainder = std::move(rem);
}

BigInt BigInt::operator/(const BigInt& other) const {
  BigInt quotient, remainder;
  DivMod(*this, other, &quotient, &remainder);
  return quotient;
}

BigInt BigInt::operator%(const BigInt& other) const {
  BigInt quotient, remainder;
  DivMod(*this, other, &quotient, &remainder);
  return remainder;
}

// ---------------------------------------------------------------------------
// Gcd (binary / Stein, with one Euclid step to equalize lopsided operands).
// ---------------------------------------------------------------------------

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a.Abs();
  BigInt y = b.Abs();
  if (x.IsZero()) return y;
  if (y.IsZero()) return x;
  if (x.size_ + 2 <= y.size_ || y.size_ + 2 <= x.size_) {
    // Very different magnitudes: one fast Knuth-D reduction brings them
    // within range, then the binary loop's subtract cadence is efficient.
    if (x.size_ < y.size_) std::swap(x, y);
    BigInt quotient, remainder;
    DivMod(x, y, &quotient, &remainder);
    x = std::move(y);
    y = std::move(remainder);
    if (y.IsZero()) return x;
  }
  const size_t x_twos = TrailingZeroBits(x.limbs(), x.size_);
  const size_t y_twos = TrailingZeroBits(y.limbs(), y.size_);
  const size_t common_twos = std::min(x_twos, y_twos);
  size_t xn = x.size_;
  ShiftRightInPlace(x.limbs(), &xn, x_twos);
  x.size_ = static_cast<uint32_t>(xn);
  size_t yn = y.size_;
  ShiftRightInPlace(y.limbs(), &yn, y_twos);
  y.size_ = static_cast<uint32_t>(yn);
  // Both odd from here on; classic Stein: strip twos, subtract, repeat.
  while (true) {
    const int cmp = CompareLimbs(x.limbs(), x.size_, y.limbs(), y.size_);
    if (cmp == 0) break;
    if (cmp < 0) std::swap(x, y);
    SubLimbsInPlace(x.limbs(), x.size_, y.limbs(), y.size_);
    size_t n = SignificantLimbs(x.limbs(), x.size_);
    ShiftRightInPlace(x.limbs(), &n, TrailingZeroBits(x.limbs(), n));
    x.size_ = static_cast<uint32_t>(n);
  }
  x.TrimAndSync(1);
  return common_twos == 0 ? x : x.ShiftLeft(common_twos);
}

// ---------------------------------------------------------------------------
// Conversions.
// ---------------------------------------------------------------------------

std::string BigInt::ToString() const {
  if (sign_ == 0) return "0";
  // Peel 19 decimal digits per pass with one Div2By1 per limb.
  constexpr Limb kChunkScale = 10000000000000000000ull;  // 10^19
  constexpr size_t kChunkDigits = 19;
  PooledScratch scratch(size_);
  Limb* work = scratch.data();
  std::memcpy(work, limbs(), size_ * sizeof(Limb));
  size_t n = size_;
  std::string digits;
  while (n > 0) {
    Limb chunk = 0;
    for (size_t i = n; i-- > 0;) {
      work[i] = Div2By1(chunk, work[i], kChunkScale, &chunk);
    }
    n = SignificantLimbs(work, n);
    if (n == 0) {
      // Most significant chunk: no zero padding.
      digits = std::to_string(chunk) + digits;
    } else {
      std::string part = std::to_string(chunk);
      digits = std::string(kChunkDigits - part.size(), '0') + part + digits;
    }
  }
  return sign_ < 0 ? "-" + digits : digits;
}

double BigInt::ToDouble() const {
  // Accumulate 32 bits at a time, exactly reproducing the rounding sequence
  // of the seed 32-bit implementation: downstream reports format doubles,
  // and bit-identical tables across the limb-width change require the same
  // last-ulp behavior, not just the same mathematical value.
  double result = 0.0;
  for (size_t i = size_; i-- > 0;) {
    const Limb limb = limbs()[i];
    result = result * 4294967296.0 + static_cast<double>(limb >> 32);
    result = result * 4294967296.0 + static_cast<double>(limb & 0xffffffffu);
  }
  return sign_ < 0 ? -result : result;
}

bool BigInt::FitsInt64() const {
  if (size_ > 1) return false;
  if (size_ == 0) return true;
  const uint64_t magnitude = limbs()[0];
  if (sign_ > 0) {
    return magnitude <=
           static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
  }
  return magnitude <=
         static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) + 1;
}

int64_t BigInt::ToInt64() const {
  SHAPCQ_CHECK_MSG(FitsInt64(), "BigInt does not fit in int64");
  if (sign_ == 0) return 0;
  const uint64_t magnitude = limbs()[0];
  return sign_ > 0 ? static_cast<int64_t>(magnitude)
                   : -static_cast<int64_t>(magnitude - 1) - 1;
}

std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.ToString();
}

}  // namespace shapcq
