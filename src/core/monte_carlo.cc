#include "core/monte_carlo.h"

#include <cmath>
#include <limits>

#include "eval/homomorphism.h"
#include "util/check.h"

namespace shapcq {

size_t HoeffdingSampleCount(double epsilon, double delta) {
  SHAPCQ_CHECK(epsilon > 0 && epsilon < 1 && delta > 0 && delta < 1);
  const double count =
      std::ceil(2.0 * std::log(2.0 / delta) / (epsilon * epsilon));
  // Converting a double past size_t's range is undefined: saturate instead.
  constexpr size_t kMax = std::numeric_limits<size_t>::max();
  if (count >= static_cast<double>(kMax)) return kMax;
  return static_cast<size_t>(count);
}

namespace {

template <typename Query>
double ShapleyMonteCarloImpl(const Query& q, const Database& db, FactId f,
                             size_t samples, Rng* rng) {
  SHAPCQ_CHECK(db.is_endogenous(f));
  SHAPCQ_CHECK(samples > 0);
  const size_t n = db.endogenous_count();
  const size_t f_index = db.endo_index(f);
  int64_t total = 0;
  std::vector<size_t> order(n);
  for (size_t s = 0; s < samples; ++s) {
    for (size_t i = 0; i < n; ++i) order[i] = i;
    rng->Shuffle(&order);
    World world(n, false);
    for (size_t pos = 0; pos < n; ++pos) {
      if (order[pos] == f_index) break;
      world[order[pos]] = true;
    }
    const bool before = EvalBoolean(q, db, world);
    world[f_index] = true;
    const bool after = EvalBoolean(q, db, world);
    total += (after ? 1 : 0) - (before ? 1 : 0);
  }
  return static_cast<double>(total) / static_cast<double>(samples);
}

}  // namespace

double ShapleyMonteCarlo(const CQ& q, const Database& db, FactId f,
                         size_t samples, Rng* rng) {
  return ShapleyMonteCarloImpl(q, db, f, samples, rng);
}

double ShapleyMonteCarlo(const UCQ& q, const Database& db, FactId f,
                         size_t samples, Rng* rng) {
  return ShapleyMonteCarloImpl(q, db, f, samples, rng);
}

double ShapleyAdditiveFpras(const CQ& q, const Database& db, FactId f,
                            double epsilon, double delta, Rng* rng) {
  return ShapleyMonteCarlo(q, db, f, HoeffdingSampleCount(epsilon, delta),
                           rng);
}

double ShapleyStratifiedMonteCarlo(const CQ& q, const Database& db, FactId f,
                                   size_t samples_per_stratum, Rng* rng) {
  SHAPCQ_CHECK(db.is_endogenous(f));
  SHAPCQ_CHECK(samples_per_stratum > 0);
  const size_t n = db.endogenous_count();
  const size_t f_index = db.endo_index(f);
  // Other players, by endo index.
  std::vector<size_t> others;
  others.reserve(n - 1);
  for (size_t i = 0; i < n; ++i) {
    if (i != f_index) others.push_back(i);
  }
  double stratum_mean_sum = 0.0;
  for (size_t k = 0; k < n; ++k) {
    int64_t total = 0;
    for (size_t s = 0; s < samples_per_stratum; ++s) {
      // Uniform k-subset via a partial Fisher-Yates of `others`.
      for (size_t i = 0; i < k; ++i) {
        const size_t j =
            i + static_cast<size_t>(rng->UniformInt(others.size() - i));
        std::swap(others[i], others[j]);
      }
      World world(n, false);
      for (size_t i = 0; i < k; ++i) world[others[i]] = true;
      const bool before = EvalBoolean(q, db, world);
      world[f_index] = true;
      const bool after = EvalBoolean(q, db, world);
      total += (after ? 1 : 0) - (before ? 1 : 0);
    }
    stratum_mean_sum +=
        static_cast<double>(total) / static_cast<double>(samples_per_stratum);
  }
  return stratum_mean_sum / static_cast<double>(n);
}

}  // namespace shapcq
