// Approximation tier: a permutation-sampling additive FPRAS for the
// intractable side of the dichotomy (Section 5.1 of the paper).
//
// The exact engines cover the hierarchical fragment; everything else is
// FP^#P-hard and used to fall back to exponential brute force. Sampling the
// marginal contribution of a fact over random permutations gives an unbiased
// estimate whose per-sample value lies in {-1, 0, 1}, so Hoeffding's
// inequality makes m >= 2 ln(2/δ)/ε² samples an additive (ε, δ)-guarantee for
// ANY query the evaluator can decide — including the non-hierarchical and
// negated queries the exact engines reject. Theorem 5.1 shows this can never
// be sharpened to a multiplicative FPRAS.
//
// What makes this engine production-shaped rather than the seed's scalar
// estimator (core/monte_carlo):
//
//  * Orbit stratification. Facts related by a database automorphism that
//    fixes the query are symmetric players with EQUAL Shapley values, so one
//    estimate per orbit representative serves every member. On hierarchical
//    queries the exact engine's orbits are injected; otherwise a sound
//    signature partition is computed here (facts whose tuples agree after
//    masking values that occur exactly once in the database and nowhere in
//    the query). Confidence is Bonferroni-split across sampled orbits, so
//    ALL reported intervals hold simultaneously with probability >= 1 - δ.
//
//  * A coalition memo sized by the instance. Coalitions repeat only when
//    2^n is small, so at n <= kMaxMemoPlayers endogenous facts the engine
//    keeps one byte of query truth per coalition, indexed by the
//    coalition's bitmask over endo indices (1 MiB at n = 20), and every
//    sampling thread answers from it: a coalition costs one evaluation per
//    engine, or one per thread when threads race on it and store the same
//    value.
//    Above the bound there is no memo and each sample evaluates q twice.
//
//  * Deterministic parallel fan-out. The sample budget is cut into chunks
//    of 128 samples; chunk (orbit, index) always draws from its own
//    Rng(mix(seed, orbit representative, index)) stream and writes into its
//    own slot, and the reduction is a serial fixed-order sum of integer
//    accumulators. Results are bit-identical at ANY thread count. The chunk
//    size defines the streams, so it is a constant, not a knob.
//
// Interval radii are the minimum of the Hoeffding radius and an empirical
// Bernstein (Maurer–Pontil) radius, each at half the orbit's confidence
// share — sharp when the observed variance is small, never worse than
// Hoeffding by more than the split.

#ifndef SHAPCQ_CORE_APPROX_ENGINE_H_
#define SHAPCQ_CORE_APPROX_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "query/cq.h"
#include "util/rational.h"
#include "util/result.h"

namespace shapcq {

class CancelToken;  // util/cancel.h

/// An (ε, δ) approximation request: the sampling parameters a report caller
/// provides. Carried inside ReportOptions and in the serving layer's report
/// cache keys.
struct ApproxSpec {
  double epsilon = 0.0;     ///< additive error bound; 0 = approximation off
  double delta = 0.05;      ///< total failure probability across all rows
  uint64_t seed = 0;        ///< base RNG seed (results are pure in the seed)
  size_t max_samples = 0;   ///< per-orbit cap on the Hoeffding count (0 =
                            ///< uncapped); capping widens the reported CIs
                            ///< instead of breaking them
  bool force = false;       ///< sample even when an exact engine applies

  bool enabled() const { return epsilon > 0.0; }

  /// Ok iff the spec is usable: 0 < epsilon < 1 and 0 < delta < 1.
  Result<bool> Validate() const;

  /// Canonical "eps,delta,seed,max_samples,force" string: the report-cache
  /// key of the serving layer. Two specs with equal keys produce
  /// bit-identical reports on the same database state.
  std::string CacheKey() const;
};

/// One orbit representative's estimate, shared by every orbit member.
struct ApproxRow {
  Rational estimate;        ///< exact mean contribution: sum / samples
  double ci_radius = 0.0;   ///< half-width of the confidence interval
  size_t samples = 0;       ///< samples drawn for this row's orbit (0 for
                            ///< facts provably irrelevant to the query)
  size_t orbit = 0;         ///< dense orbit id, first-seen endo order
};

/// Counters and provenance of one EstimateAll run.
struct ApproxRunInfo {
  size_t orbit_count = 0;      ///< orbits over the endogenous facts
  size_t sampled_orbits = 0;   ///< orbits that actually drew samples
  size_t samples_per_orbit = 0;
  size_t samples_total = 0;
  bool budget_capped = false;  ///< max_samples cut the Hoeffding count
  size_t eval_calls = 0;       ///< evaluator invocations (memo misses)
  size_t cache_hits = 0;       ///< coalitions answered from the memo
  std::string orbit_source;    ///< "engine" (exact-engine orbits injected)
                               ///< or "signature" (computed here)
};

/// Sound symmetry partition of the endogenous facts for an arbitrary CQ¬:
/// two facts share an orbit iff they agree on relation, endogenous kind, and
/// tuple after masking "free" positions — values that occur exactly once
/// across the database's live facts and never as a query constant. Swapping
/// the free values of two such facts is a database automorphism fixing the
/// query, so orbit members have equal Shapley values. Returns one dense id
/// per endogenous fact, endo-index order, first-seen numbering.
std::vector<size_t> ApproxSymmetryOrbits(const CQ& q, const Database& db);

/// The sampling engine: built once per (query, database) pair, then
/// EstimateAll per (spec, thread count). Holds the orbit partition and the
/// coalition memo across calls.
class ApproxEngine {
 public:
  /// Ceiling on the samples one EstimateAll run draws: samples per orbit
  /// (after max_samples) times sampled orbits. 2^26 samples keep the
  /// per-chunk accumulators at 8 MB; a spec past it fails with an error
  /// that names the count.
  static constexpr size_t kMaxSamplesPerRun = size_t{1} << 26;

  /// Largest endogenous count with a coalition memo: 2^20 one-byte cells.
  static constexpr size_t kMaxMemoPlayers = 20;

  struct Options {
    /// Orbit ids to stratify by (endo-index order, dense), typically
    /// ShapleyEngine::OrbitIds() on hierarchical queries. nullptr =
    /// compute ApproxSymmetryOrbits here.
    const std::vector<size_t>* orbit_ids = nullptr;
  };

  /// `q` and `db` must outlive the engine and must not mutate while it is
  /// used (rebuild after a delta, exactly like the report path does).
  static Result<ApproxEngine> Create(const CQ& q, const Database& db,
                                     const Options& options);
  ~ApproxEngine();
  ApproxEngine(ApproxEngine&&) noexcept;
  ApproxEngine& operator=(ApproxEngine&&) noexcept;

  /// Estimates every endogenous fact's Shapley value (endo-index order).
  /// `num_threads`: 1 = serial, 0 = hardware concurrency; bit-identical
  /// output at every setting. `spec` must validate, and its sample count
  /// must stay within kMaxSamplesPerRun. A non-null `cancel`
  /// token is polled at chunk boundaries (each chunk is one deterministic
  /// RNG stream); on expiry EstimateAll returns the cancellation error.
  /// The coalition memo keeps whatever a cancelled run warmed — its
  /// content never affects values, only speed.
  Result<std::vector<ApproxRow>> EstimateAll(const ApproxSpec& spec,
                                             size_t num_threads,
                                             const CancelToken* cancel =
                                                 nullptr);

  /// Counters of the most recent EstimateAll run.
  const ApproxRunInfo& info() const;

  /// Empty engine (Result<T> plumbing); use Create().
  ApproxEngine();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace shapcq

#endif  // SHAPCQ_CORE_APPROX_ENGINE_H_
