#include "util/count_vector.h"

#include <utility>

#include "util/check.h"
#include "util/combinatorics.h"

namespace shapcq {

CountVector CountVector::Zero(size_t universe_size) {
  return CountVector(std::vector<BigInt>(universe_size + 1, BigInt(0)));
}

CountVector CountVector::All(size_t universe_size) {
  return CountVector(Combinatorics::BinomialRow(universe_size));
}

CountVector CountVector::FromCounts(std::vector<BigInt> counts) {
  SHAPCQ_CHECK_MSG(!counts.empty(), "count vector must cover k = 0");
  return CountVector(std::move(counts));
}

BigInt CountVector::Total() const {
  BigInt total(0);
  for (const BigInt& count : counts_) total += count;
  return total;
}

size_t CountVector::ApproxMemoryBytes() const {
  // Each cell reports sizeof(BigInt) (its slot in counts_) plus any heap
  // limb buffer it owns; inline magnitudes therefore cost exactly the slot,
  // with no double-counting, and buffers parked in the thread-local limb
  // pool are attributed to no cell. Unused vector capacity is slots too.
  size_t bytes = sizeof(CountVector);
  for (const BigInt& count : counts_) bytes += count.ApproxMemoryBytes();
  bytes += (counts_.capacity() - counts_.size()) * sizeof(BigInt);
  return bytes;
}

void ConvolveCounts(const BigInt* a, size_t a_len, const BigInt* b,
                    size_t b_len, BigInt* out) {
  SHAPCQ_CHECK(a_len > 0 && b_len > 0);
  for (size_t k = 0; k + 1 < a_len + b_len; ++k) out[k] = BigInt();
  for (size_t i = 0; i < a_len; ++i) {
    if (a[i].IsZero()) continue;
    for (size_t j = 0; j < b_len; ++j) {
      if (b[j].IsZero()) continue;
      out[i + j].AddProductOf(a[i], b[j]);
    }
  }
}

std::vector<BigInt> ComplementCounts(const BigInt* a, size_t a_len) {
  std::vector<BigInt> row = Combinatorics::BinomialRow(a_len - 1);
  for (size_t k = 0; k < a_len; ++k) row[k] -= a[k];
  return row;
}

CountVector CountVector::Convolve(const CountVector& other) const {
  std::vector<BigInt> result(counts_.size() + other.counts_.size() - 1);
  ConvolveCounts(counts_.data(), counts_.size(), other.counts_.data(),
                 other.counts_.size(), result.data());
  return CountVector(std::move(result));
}

CountVector& CountVector::ConvolveWith(const CountVector& other) {
  *this = Convolve(other);
  return *this;
}

CountVector CountVector::ComplementAgainstAll() const {
  return CountVector(ComplementCounts(counts_.data(), counts_.size()));
}

CountVector CountVector::operator+(const CountVector& other) const {
  SHAPCQ_CHECK(counts_.size() == other.counts_.size());
  std::vector<BigInt> result = counts_;
  for (size_t k = 0; k < result.size(); ++k) result[k] += other.counts_[k];
  return CountVector(std::move(result));
}

CountVector CountVector::operator-(const CountVector& other) const {
  SHAPCQ_CHECK(counts_.size() == other.counts_.size());
  std::vector<BigInt> result = counts_;
  for (size_t k = 0; k < result.size(); ++k) result[k] -= other.counts_[k];
  return CountVector(std::move(result));
}

std::string CountVector::ToString() const {
  std::string result = "[";
  for (size_t k = 0; k < counts_.size(); ++k) {
    if (k > 0) result += ", ";
    result += counts_[k].ToString();
  }
  result += "]";
  return result;
}

}  // namespace shapcq
