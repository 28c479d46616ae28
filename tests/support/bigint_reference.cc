#include "support/bigint_reference.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace shapcq {

namespace {

constexpr uint64_t kBase = uint64_t{1} << 32;

// a += b on little-endian magnitudes. b must not alias a.
void AddLimbsInPlace(std::vector<uint32_t>* a, const std::vector<uint32_t>& b) {
  if (a->size() < b.size()) a->resize(b.size(), 0);
  uint64_t carry = 0;
  size_t i = 0;
  for (; i < b.size(); ++i) {
    const uint64_t sum = carry + (*a)[i] + b[i];
    (*a)[i] = static_cast<uint32_t>(sum & 0xffffffffu);
    carry = sum >> 32;
  }
  for (; carry != 0 && i < a->size(); ++i) {
    const uint64_t sum = carry + (*a)[i];
    (*a)[i] = static_cast<uint32_t>(sum & 0xffffffffu);
    carry = sum >> 32;
  }
  if (carry != 0) a->push_back(static_cast<uint32_t>(carry));
}

// a -= b on little-endian magnitudes; requires |a| >= |b|. b must not alias a.
void SubLimbsInPlace(std::vector<uint32_t>* a, const std::vector<uint32_t>& b) {
  int64_t borrow = 0;
  for (size_t i = 0; i < a->size() && (borrow != 0 || i < b.size()); ++i) {
    int64_t diff = static_cast<int64_t>((*a)[i]) - borrow -
                   (i < b.size() ? static_cast<int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    (*a)[i] = static_cast<uint32_t>(diff);
  }
}

}  // namespace

RefBigInt::RefBigInt(int64_t value) {
  if (value == 0) {
    sign_ = 0;
    return;
  }
  sign_ = value > 0 ? 1 : -1;
  // Avoid overflow on INT64_MIN by negating in unsigned space.
  uint64_t magnitude =
      value > 0 ? static_cast<uint64_t>(value)
                : ~static_cast<uint64_t>(value) + 1;
  limbs_.push_back(static_cast<uint32_t>(magnitude & 0xffffffffu));
  if (magnitude >> 32) limbs_.push_back(static_cast<uint32_t>(magnitude >> 32));
}

bool RefBigInt::TryParse(const std::string& text, RefBigInt* out) {
  size_t pos = 0;
  bool negative = false;
  if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) {
    negative = text[pos] == '-';
    ++pos;
  }
  if (pos >= text.size()) return false;
  RefBigInt result;
  const RefBigInt ten(10);
  for (; pos < text.size(); ++pos) {
    if (!std::isdigit(static_cast<unsigned char>(text[pos]))) return false;
    result = result * ten + RefBigInt(text[pos] - '0');
  }
  if (negative && !result.IsZero()) result.sign_ = -1;
  *out = std::move(result);
  return true;
}

RefBigInt RefBigInt::FromString(const std::string& text) {
  RefBigInt result;
  SHAPCQ_CHECK_MSG(TryParse(text, &result), "malformed decimal RefBigInt literal");
  return result;
}

void RefBigInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) sign_ = 0;
}

size_t RefBigInt::BitLength() const {
  if (sign_ == 0) return 0;
  uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

int RefBigInt::CompareMagnitude(const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::vector<uint32_t> RefBigInt::AddMagnitude(const std::vector<uint32_t>& a,
                                           const std::vector<uint32_t>& b) {
  const std::vector<uint32_t>& longer = a.size() >= b.size() ? a : b;
  const std::vector<uint32_t>& shorter = a.size() >= b.size() ? b : a;
  std::vector<uint32_t> result;
  result.reserve(longer.size() + 1);
  uint64_t carry = 0;
  for (size_t i = 0; i < longer.size(); ++i) {
    uint64_t sum = carry + longer[i] + (i < shorter.size() ? shorter[i] : 0u);
    result.push_back(static_cast<uint32_t>(sum & 0xffffffffu));
    carry = sum >> 32;
  }
  if (carry) result.push_back(static_cast<uint32_t>(carry));
  return result;
}

std::vector<uint32_t> RefBigInt::SubMagnitude(const std::vector<uint32_t>& a,
                                           const std::vector<uint32_t>& b) {
  SHAPCQ_CHECK(CompareMagnitude(a, b) >= 0);
  std::vector<uint32_t> result;
  result.reserve(a.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a[i]) - borrow -
                   (i < b.size() ? static_cast<int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    result.push_back(static_cast<uint32_t>(diff));
  }
  return result;
}

std::vector<uint32_t> RefBigInt::MulMagnitude(const std::vector<uint32_t>& a,
                                           const std::vector<uint32_t>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<uint32_t> result(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a[i];
    for (size_t j = 0; j < b.size(); ++j) {
      uint64_t cur = result[i + j] + ai * b[j] + carry;
      result[i + j] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    size_t k = i + b.size();
    while (carry) {
      uint64_t cur = result[k] + carry;
      result[k] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  return result;
}

RefBigInt RefBigInt::operator-() const {
  RefBigInt result = *this;
  result.sign_ = -result.sign_;
  return result;
}

RefBigInt RefBigInt::Abs() const {
  RefBigInt result = *this;
  if (result.sign_ < 0) result.sign_ = 1;
  return result;
}

RefBigInt RefBigInt::operator+(const RefBigInt& other) const {
  if (sign_ == 0) return other;
  if (other.sign_ == 0) return *this;
  if (limbs_.size() == 1 && other.limbs_.size() == 1) {
    // Single-limb fast path: both magnitudes are < 2^32, so the signed sum
    // fits comfortably in an int64 and the int64 constructor does the rest.
    return RefBigInt(sign_ * static_cast<int64_t>(limbs_[0]) +
                  other.sign_ * static_cast<int64_t>(other.limbs_[0]));
  }
  RefBigInt result;
  if (sign_ == other.sign_) {
    result.limbs_ = AddMagnitude(limbs_, other.limbs_);
    result.sign_ = sign_;
  } else {
    int cmp = CompareMagnitude(limbs_, other.limbs_);
    if (cmp == 0) return RefBigInt();
    if (cmp > 0) {
      result.limbs_ = SubMagnitude(limbs_, other.limbs_);
      result.sign_ = sign_;
    } else {
      result.limbs_ = SubMagnitude(other.limbs_, limbs_);
      result.sign_ = other.sign_;
    }
  }
  result.Normalize();
  return result;
}

RefBigInt RefBigInt::operator-(const RefBigInt& other) const { return *this + (-other); }

RefBigInt RefBigInt::operator*(const RefBigInt& other) const {
  if (sign_ == 0 || other.sign_ == 0) return RefBigInt();
  RefBigInt result;
  result.sign_ = sign_ * other.sign_;
  if (limbs_.size() == 1 && other.limbs_.size() == 1) {
    // Single-limb fast path: one hardware multiply, at most two limbs out.
    const uint64_t product =
        static_cast<uint64_t>(limbs_[0]) * other.limbs_[0];
    result.limbs_.push_back(static_cast<uint32_t>(product & 0xffffffffu));
    if (product >> 32) {
      result.limbs_.push_back(static_cast<uint32_t>(product >> 32));
    }
    return result;
  }
  result.limbs_ = MulMagnitude(limbs_, other.limbs_);
  result.Normalize();
  return result;
}

RefBigInt& RefBigInt::AccumulateSigned(const RefBigInt& other, int sign_multiplier) {
  const int other_sign = other.sign_ * sign_multiplier;
  if (other_sign == 0) return *this;
  if (this == &other) {
    // Aliased: either doubling (+=) or cancellation (-=).
    if (sign_multiplier < 0) {
      sign_ = 0;
      limbs_.clear();
    } else {
      AddLimbsInPlace(&limbs_, std::vector<uint32_t>(limbs_));
    }
    return *this;
  }
  if (sign_ == 0) {
    limbs_ = other.limbs_;
    sign_ = other_sign;
    return *this;
  }
  if (sign_ == other_sign) {
    AddLimbsInPlace(&limbs_, other.limbs_);
    return *this;
  }
  const int cmp = CompareMagnitude(limbs_, other.limbs_);
  if (cmp == 0) {
    sign_ = 0;
    limbs_.clear();
    return *this;
  }
  if (cmp > 0) {
    SubLimbsInPlace(&limbs_, other.limbs_);
  } else {
    limbs_ = SubMagnitude(other.limbs_, limbs_);
    sign_ = other_sign;
  }
  Normalize();
  return *this;
}

RefBigInt& RefBigInt::operator*=(const RefBigInt& other) {
  if (sign_ == 0) return *this;
  if (other.sign_ == 0) {
    sign_ = 0;
    limbs_.clear();
    return *this;
  }
  if (other.limbs_.size() == 1) {
    // In-place scan with carry; covers the aliased x *= x only when x is
    // itself single-limb, where the multiplier is copied out first.
    const uint64_t multiplier = other.limbs_[0];
    const int result_sign = sign_ * other.sign_;
    uint64_t carry = 0;
    for (uint32_t& limb : limbs_) {
      const uint64_t cur = static_cast<uint64_t>(limb) * multiplier + carry;
      limb = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    if (carry != 0) limbs_.push_back(static_cast<uint32_t>(carry));
    sign_ = result_sign;
    return *this;
  }
  // MulMagnitude reads both operands before the assignment lands, so the
  // aliased case is safe here too.
  limbs_ = MulMagnitude(limbs_, other.limbs_);
  sign_ *= other.sign_;
  Normalize();
  return *this;
}

RefBigInt& RefBigInt::AddProductOf(const RefBigInt& a, const RefBigInt& b) {
  if (a.sign_ == 0 || b.sign_ == 0) return *this;
  const int product_sign = a.sign_ * b.sign_;
  if (this == &a || this == &b || (sign_ != 0 && sign_ != product_sign)) {
    // Aliased or sign-flipping accumulation: take the allocating route.
    return *this += a * b;
  }
  const std::vector<uint32_t>& al = a.limbs_;
  const std::vector<uint32_t>& bl = b.limbs_;
  if (limbs_.size() < al.size() + bl.size()) {
    limbs_.resize(al.size() + bl.size(), 0);
  }
  for (size_t i = 0; i < al.size(); ++i) {
    const uint64_t ai = al[i];
    uint64_t carry = 0;
    for (size_t j = 0; j < bl.size(); ++j) {
      const uint64_t cur =
          static_cast<uint64_t>(limbs_[i + j]) + ai * bl[j] + carry;
      limbs_[i + j] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    for (size_t k = i + bl.size(); carry != 0; ++k) {
      if (k == limbs_.size()) {
        limbs_.push_back(static_cast<uint32_t>(carry));
        break;
      }
      const uint64_t cur = static_cast<uint64_t>(limbs_[k]) + carry;
      limbs_[k] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
  }
  sign_ = product_sign;
  Normalize();
  return *this;
}

RefBigInt RefBigInt::ShiftLeft(size_t bits) const {
  if (sign_ == 0 || bits == 0) return *this;
  RefBigInt result;
  result.sign_ = sign_;
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  result.limbs_.assign(limb_shift, 0);
  if (bit_shift == 0) {
    result.limbs_.insert(result.limbs_.end(), limbs_.begin(), limbs_.end());
  } else {
    uint32_t carry = 0;
    for (uint32_t limb : limbs_) {
      result.limbs_.push_back((limb << bit_shift) | carry);
      carry = static_cast<uint32_t>(static_cast<uint64_t>(limb) >>
                                    (32 - bit_shift));
    }
    if (carry) result.limbs_.push_back(carry);
  }
  result.Normalize();
  return result;
}

void RefBigInt::DivMod(const RefBigInt& dividend, const RefBigInt& divisor,
                    RefBigInt* quotient, RefBigInt* remainder) {
  SHAPCQ_CHECK_MSG(divisor.sign_ != 0, "division by zero");
  int mag_cmp = CompareMagnitude(dividend.limbs_, divisor.limbs_);
  if (mag_cmp < 0) {
    *quotient = RefBigInt();
    *remainder = dividend;
    return;
  }
  // Shift-subtract long division on magnitudes, one bit at a time.
  size_t shift = dividend.BitLength() - divisor.BitLength();
  RefBigInt rem = dividend.Abs();
  RefBigInt shifted = divisor.Abs().ShiftLeft(shift);
  std::vector<uint32_t> quot_limbs(shift / 32 + 1, 0);
  for (size_t i = shift + 1; i-- > 0;) {
    if (CompareMagnitude(rem.limbs_, shifted.limbs_) >= 0) {
      rem.limbs_ = SubMagnitude(rem.limbs_, shifted.limbs_);
      rem.Normalize();
      quot_limbs[i / 32] |= uint32_t{1} << (i % 32);
    }
    if (i > 0) {
      // shifted >>= 1.
      uint32_t carry = 0;
      for (size_t j = shifted.limbs_.size(); j-- > 0;) {
        uint32_t limb = shifted.limbs_[j];
        shifted.limbs_[j] = (limb >> 1) | (carry << 31);
        carry = limb & 1u;
      }
      shifted.Normalize();
    }
  }
  RefBigInt quot;
  quot.limbs_ = std::move(quot_limbs);
  quot.sign_ = 1;
  quot.Normalize();
  // Truncated division signs: quotient sign is product of operand signs,
  // remainder takes the dividend's sign.
  if (!quot.IsZero()) quot.sign_ = dividend.sign_ * divisor.sign_;
  if (!rem.IsZero()) rem.sign_ = dividend.sign_;
  *quotient = std::move(quot);
  *remainder = std::move(rem);
}

RefBigInt RefBigInt::operator/(const RefBigInt& other) const {
  RefBigInt quotient, remainder;
  DivMod(*this, other, &quotient, &remainder);
  return quotient;
}

RefBigInt RefBigInt::operator%(const RefBigInt& other) const {
  RefBigInt quotient, remainder;
  DivMod(*this, other, &quotient, &remainder);
  return remainder;
}

RefBigInt RefBigInt::Gcd(const RefBigInt& a, const RefBigInt& b) {
  RefBigInt x = a.Abs();
  RefBigInt y = b.Abs();
  while (!y.IsZero()) {
    RefBigInt quotient, remainder;
    DivMod(x, y, &quotient, &remainder);
    x = std::move(y);
    y = std::move(remainder);
  }
  return x;
}

bool RefBigInt::operator==(const RefBigInt& other) const {
  return sign_ == other.sign_ && limbs_ == other.limbs_;
}

bool RefBigInt::operator<(const RefBigInt& other) const {
  if (sign_ != other.sign_) return sign_ < other.sign_;
  int cmp = CompareMagnitude(limbs_, other.limbs_);
  return sign_ >= 0 ? cmp < 0 : cmp > 0;
}

uint32_t RefBigInt::DivModSmallInPlace(std::vector<uint32_t>* limbs,
                                    uint32_t divisor) {
  uint64_t remainder = 0;
  for (size_t i = limbs->size(); i-- > 0;) {
    uint64_t cur = (remainder << 32) | (*limbs)[i];
    (*limbs)[i] = static_cast<uint32_t>(cur / divisor);
    remainder = cur % divisor;
  }
  while (!limbs->empty() && limbs->back() == 0) limbs->pop_back();
  return static_cast<uint32_t>(remainder);
}

std::string RefBigInt::ToString() const {
  if (sign_ == 0) return "0";
  std::vector<uint32_t> scratch = limbs_;
  std::string digits;
  while (!scratch.empty()) {
    uint32_t chunk = DivModSmallInPlace(&scratch, 1000000000u);
    if (scratch.empty()) {
      // Most significant chunk: no zero padding.
      digits = std::to_string(chunk) + digits;
    } else {
      std::string part = std::to_string(chunk);
      digits = std::string(9 - part.size(), '0') + part + digits;
    }
  }
  return sign_ < 0 ? "-" + digits : digits;
}

double RefBigInt::ToDouble() const {
  double result = 0.0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    result = result * 4294967296.0 + static_cast<double>(limbs_[i]);
  }
  return sign_ < 0 ? -result : result;
}

bool RefBigInt::FitsInt64() const {
  if (limbs_.size() > 2) return false;
  if (limbs_.size() < 2) return true;
  uint64_t magnitude = (static_cast<uint64_t>(limbs_[1]) << 32) | limbs_[0];
  if (sign_ > 0) return magnitude <= static_cast<uint64_t>(
                            std::numeric_limits<int64_t>::max());
  return magnitude <= static_cast<uint64_t>(
                          std::numeric_limits<int64_t>::max()) + 1;
}

int64_t RefBigInt::ToInt64() const {
  SHAPCQ_CHECK_MSG(FitsInt64(), "RefBigInt does not fit in int64");
  if (sign_ == 0) return 0;
  uint64_t magnitude = limbs_[0];
  if (limbs_.size() == 2) magnitude |= static_cast<uint64_t>(limbs_[1]) << 32;
  return sign_ > 0 ? static_cast<int64_t>(magnitude)
                   : -static_cast<int64_t>(magnitude - 1) - 1;
}

}  // namespace shapcq
