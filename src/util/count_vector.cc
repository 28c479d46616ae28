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

CountVector CountVector::Convolve(const CountVector& other) const {
  // Skip-zero outer and inner loops, partial products accumulated in place,
  // so no temporary BigInt is allocated per (i, j) pair.
  std::vector<BigInt> result(counts_.size() + other.counts_.size() - 1);
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i].IsZero()) continue;
    for (size_t j = 0; j < other.counts_.size(); ++j) {
      if (other.counts_[j].IsZero()) continue;
      result[i + j].AddProductOf(counts_[i], other.counts_[j]);
    }
  }
  return CountVector(std::move(result));
}

CountVector& CountVector::ConvolveWith(const CountVector& other) {
  *this = Convolve(other);
  return *this;
}

CountVector CountVector::ComplementAgainstAll() const {
  std::vector<BigInt> row = Combinatorics::BinomialRow(universe_size());
  for (size_t k = 0; k < row.size(); ++k) row[k] -= counts_[k];
  return CountVector(std::move(row));
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
