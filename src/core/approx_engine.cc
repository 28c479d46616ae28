#include "core/approx_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <list>
#include <map>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/monte_carlo.h"
#include "eval/homomorphism.h"
#include "util/cancel.h"
#include "util/check.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace shapcq {

namespace {

// splitmix64 finalizer over (seed, a, b): the per-stream seed derivation.
// Streams are identified by (orbit representative, chunk index), NOT by
// worker id — which worker runs a chunk is scheduling noise, the stream it
// draws from is not. That is the whole determinism contract.
uint64_t MixStreamSeed(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (a + 1) +
               0xbf58476d1ce4e5b9ull * (b + 1);
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ull;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z;
}

uint64_t HashWords(const std::vector<uint64_t>& words) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (uint64_t w : words) {
    h ^= w;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
  }
  return h;
}

}  // namespace

// ----------------------------------------------------------------------------
// ApproxSpec

Result<bool> ApproxSpec::Validate() const {
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    return Result<bool>::Error(
        "approx epsilon must be in (0,1), got " + std::to_string(epsilon));
  }
  if (!(delta > 0.0 && delta < 1.0)) {
    return Result<bool>::Error(
        "approx delta must be in (0,1), got " + std::to_string(delta));
  }
  return Result<bool>::Ok(true);
}

std::string ApproxSpec::CacheKey() const {
  // %.17g round-trips every double, so distinct specs cannot collide on a
  // key and equal specs always share one.
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "%.17g,%.17g,%llu,%zu,%d", epsilon,
                delta, static_cast<unsigned long long>(seed), max_samples,
                force ? 1 : 0);
  return buffer;
}

// ----------------------------------------------------------------------------
// CoalitionCache

struct CoalitionCache::Impl {
  // Entries hold their key alongside the value so the LRU list alone can
  // drive map erasure on eviction.
  struct Entry {
    std::vector<uint64_t> words;
    bool value;
  };
  struct WordsHash {
    size_t operator()(const std::vector<uint64_t>& words) const {
      return static_cast<size_t>(HashWords(words));
    }
  };
  struct Stripe {
    std::mutex mutex;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::vector<uint64_t>, std::list<Entry>::iterator,
                       WordsHash>
        index;
  };

  static constexpr size_t kStripes = 16;

  Stripe stripes[kStripes];
  size_t per_stripe_cap = 0;  // 0 = memoization disabled
  std::atomic<size_t> hits{0};
  std::atomic<size_t> misses{0};
  std::atomic<size_t> evictions{0};
  std::atomic<size_t> entries{0};

  Stripe& StripeFor(uint64_t hash) {
    // The low bits pick the map bucket inside the stripe; use high bits for
    // the stripe so the two choices stay independent.
    return stripes[(hash >> 58) % kStripes];
  }
};

CoalitionCache::CoalitionCache(size_t max_entries)
    : impl_(std::make_unique<Impl>()) {
  impl_->per_stripe_cap =
      max_entries == 0
          ? 0
          : (max_entries + Impl::kStripes - 1) / Impl::kStripes;
}
CoalitionCache::~CoalitionCache() = default;
CoalitionCache::CoalitionCache(CoalitionCache&&) noexcept = default;
CoalitionCache& CoalitionCache::operator=(CoalitionCache&&) noexcept = default;

int CoalitionCache::Lookup(const std::vector<uint64_t>& words) {
  if (impl_->per_stripe_cap == 0) {
    impl_->misses.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  Impl::Stripe& stripe = impl_->StripeFor(HashWords(words));
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.index.find(words);
  if (it == stripe.index.end()) {
    impl_->misses.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second);
  impl_->hits.fetch_add(1, std::memory_order_relaxed);
  return it->second->value ? 1 : 0;
}

void CoalitionCache::Insert(const std::vector<uint64_t>& words, bool value) {
  if (impl_->per_stripe_cap == 0) return;
  Impl::Stripe& stripe = impl_->StripeFor(HashWords(words));
  std::lock_guard<std::mutex> lock(stripe.mutex);
  if (stripe.index.count(words) > 0) return;  // raced with another sampler
  stripe.lru.push_front(Impl::Entry{words, value});
  stripe.index.emplace(words, stripe.lru.begin());
  impl_->entries.fetch_add(1, std::memory_order_relaxed);
  if (stripe.lru.size() > impl_->per_stripe_cap) {
    stripe.index.erase(stripe.lru.back().words);
    stripe.lru.pop_back();
    impl_->evictions.fetch_add(1, std::memory_order_relaxed);
    impl_->entries.fetch_sub(1, std::memory_order_relaxed);
  }
}

size_t CoalitionCache::hits() const {
  return impl_->hits.load(std::memory_order_relaxed);
}
size_t CoalitionCache::misses() const {
  return impl_->misses.load(std::memory_order_relaxed);
}
size_t CoalitionCache::evictions() const {
  return impl_->evictions.load(std::memory_order_relaxed);
}
size_t CoalitionCache::entries() const {
  return impl_->entries.load(std::memory_order_relaxed);
}

// ----------------------------------------------------------------------------
// Symmetry orbits

std::vector<size_t> ApproxSymmetryOrbits(const CQ& q, const Database& db) {
  // A database value is "free" if it occurs exactly once across all live
  // facts (counting multiplicity within a tuple) and never as a query
  // constant: transposing two free values is then a database automorphism
  // that fixes the query, so facts agreeing everywhere except on free
  // positions are symmetric players.
  std::unordered_map<int32_t, size_t> occurrences;
  for (FactId f = 0; f < static_cast<FactId>(db.fact_slot_count()); ++f) {
    if (db.is_removed(f)) continue;
    for (const Value& v : db.tuple_of(f)) ++occurrences[v.id];
  }
  std::unordered_set<int32_t> query_constants;
  for (const Atom& atom : q.atoms()) {
    for (const Term& term : atom.terms) {
      if (term.IsConst()) query_constants.insert(term.constant.id);
    }
  }
  // Signature: relation id, then the tuple with free positions masked. An
  // ordered map keeps this O(n log n) without a vector hash.
  std::map<std::vector<int64_t>, size_t> orbit_of_signature;
  std::vector<size_t> orbits;
  orbits.reserve(db.endogenous_count());
  for (FactId f : db.endogenous_facts()) {
    std::vector<int64_t> signature;
    const Tuple& tuple = db.tuple_of(f);
    signature.reserve(tuple.size() + 1);
    signature.push_back(db.relation_of(f));
    for (const Value& v : tuple) {
      const bool free =
          occurrences[v.id] == 1 && query_constants.count(v.id) == 0;
      signature.push_back(free ? -1 : static_cast<int64_t>(v.id));
    }
    const size_t next = orbit_of_signature.size();
    orbits.push_back(orbit_of_signature.emplace(std::move(signature), next)
                         .first->second);
  }
  return orbits;
}

// ----------------------------------------------------------------------------
// ApproxEngine

struct ApproxEngine::Impl {
  const CQ* q = nullptr;
  const Database* db = nullptr;
  Options options;
  std::vector<size_t> orbits;  // per endo index, dense
  std::string orbit_source;
  CoalitionCache cache{0};
  std::atomic<size_t> eval_calls{0};
  ApproxRunInfo info;

  // Answers q(Dx ∪ world) through the execution cache, keyed by `words`:
  // `world` packed one bit per player.
  bool EvalThroughCache(const World& world,
                        const std::vector<uint64_t>& words) {
    const int cached = cache.Lookup(words);
    if (cached >= 0) return cached == 1;
    const bool value = EvalBoolean(*q, *db, world);
    eval_calls.fetch_add(1, std::memory_order_relaxed);
    cache.Insert(words, value);
    return value;
  }

  // Per-stream integer accumulators: exact, order-independent within the
  // chunk, summed in fixed chunk order by the reduction.
  struct ChunkAccum {
    int64_t sum = 0;      // Σ contribution, contribution ∈ {-1, 0, 1}
    int64_t nonzero = 0;  // Σ contribution² (the variance ingredient)
  };

  // Draws `count` permutation samples for the orbit representative at endo
  // index `rep` from the (rep, chunk) RNG stream. Sampling a uniform
  // position k for the representative and then a uniform k-subset of the
  // other players is distributed exactly like a uniform permutation prefix.
  void RunChunk(size_t rep, uint64_t chunk, size_t count, uint64_t seed,
                ChunkAccum* accum) {
    const size_t n = db->endogenous_count();
    Rng rng(MixStreamSeed(seed, rep, chunk));
    std::vector<size_t> others;
    others.reserve(n - 1);
    for (size_t i = 0; i < n; ++i) {
      if (i != rep) others.push_back(i);
    }
    World world(n, false);
    std::vector<uint64_t> words((n + 63) / 64, 0);
    for (size_t s = 0; s < count; ++s) {
      const size_t k = n == 1 ? 0 : static_cast<size_t>(rng.UniformInt(n));
      // Partial Fisher-Yates: others[0..k) becomes a uniform k-subset. The
      // vector stays permuted across samples — a uniform shuffle of any
      // fixed starting order is still uniform, and the evolution is a pure
      // function of the stream.
      for (size_t i = 0; i < k; ++i) {
        const size_t j =
            i + static_cast<size_t>(rng.UniformInt(others.size() - i));
        std::swap(others[i], others[j]);
      }
      std::fill(world.begin(), world.end(), false);
      std::fill(words.begin(), words.end(), 0);
      for (size_t i = 0; i < k; ++i) {
        world[others[i]] = true;
        words[others[i] >> 6] |= uint64_t{1} << (others[i] & 63);
      }
      const bool before = EvalThroughCache(world, words);
      world[rep] = true;
      words[rep >> 6] |= uint64_t{1} << (rep & 63);
      const bool after = EvalThroughCache(world, words);
      const int64_t contribution = (after ? 1 : 0) - (before ? 1 : 0);
      accum->sum += contribution;
      accum->nonzero += contribution != 0;
    }
  }
};

ApproxEngine::ApproxEngine() : impl_(std::make_unique<Impl>()) {}
ApproxEngine::~ApproxEngine() = default;
ApproxEngine::ApproxEngine(ApproxEngine&&) noexcept = default;
ApproxEngine& ApproxEngine::operator=(ApproxEngine&&) noexcept = default;

Result<ApproxEngine> ApproxEngine::Create(const CQ& q, const Database& db,
                                          const Options& options) {
  ApproxEngine engine;
  engine.impl_->q = &q;
  engine.impl_->db = &db;
  engine.impl_->options = options;
  engine.impl_->cache = CoalitionCache(options.cache_entries);
  if (options.orbit_ids != nullptr) {
    if (options.orbit_ids->size() != db.endogenous_count()) {
      return Result<ApproxEngine>::Error(
          "orbit_ids size " + std::to_string(options.orbit_ids->size()) +
          " does not match endogenous count " +
          std::to_string(db.endogenous_count()));
    }
    engine.impl_->orbits = *options.orbit_ids;
    engine.impl_->orbit_source = "engine";
  } else {
    engine.impl_->orbits = ApproxSymmetryOrbits(q, db);
    engine.impl_->orbit_source = "signature";
  }
  return Result<ApproxEngine>::Ok(std::move(engine));
}

Result<std::vector<ApproxRow>> ApproxEngine::EstimateAll(
    const ApproxSpec& spec, size_t num_threads, const CancelToken* cancel) {
  using R = Result<std::vector<ApproxRow>>;
  auto valid = spec.Validate();
  if (!valid.ok()) return R::Error(valid.error());
  if (cancel != nullptr && !cancel->Enabled()) cancel = nullptr;
  if (cancel != nullptr && cancel->Expired()) {
    return R::Error(CancelToken::kCancelledMessage);
  }

  Impl& impl = *impl_;
  const Database& db = *impl.db;
  const size_t n = db.endogenous_count();
  impl.info = ApproxRunInfo{};
  impl.info.orbit_source = impl.orbit_source;
  impl.eval_calls.store(0, std::memory_order_relaxed);
  const size_t cache_hits_before = impl.cache.hits();
  const size_t cache_evictions_before = impl.cache.evictions();

  std::vector<ApproxRow> rows(n);
  if (n == 0) return R::Ok(std::move(rows));

  // Orbit representatives: the first member in endo order (dense first-seen
  // ids make that the member with the smallest endo index).
  const size_t orbit_count =
      1 + *std::max_element(impl.orbits.begin(), impl.orbits.end());
  std::vector<size_t> representative(orbit_count, n);
  for (size_t i = 0; i < n; ++i) {
    rows[i].orbit = impl.orbits[i];
    if (representative[impl.orbits[i]] == n) representative[impl.orbits[i]] = i;
  }
  impl.info.orbit_count = orbit_count;

  // Facts of relations the query never mentions cannot change its truth:
  // their whole orbit is exactly zero (orbit members share one value), so
  // skip sampling it — and keep it out of the confidence split.
  std::unordered_set<std::string> referenced;
  for (const Atom& atom : impl.q->atoms()) referenced.insert(atom.relation);
  std::vector<size_t> sampled;  // orbit ids, ascending (= rep endo order)
  sampled.reserve(orbit_count);
  for (size_t orbit = 0; orbit < orbit_count; ++orbit) {
    const FactId rep_fact = db.endogenous_facts()[representative[orbit]];
    if (referenced.count(db.schema().name(db.relation_of(rep_fact))) > 0) {
      sampled.push_back(orbit);
    }
  }
  impl.info.sampled_orbits = sampled.size();
  if (sampled.empty()) return R::Ok(std::move(rows));

  // Bonferroni split: every sampled orbit gets delta' = delta / #sampled, so
  // all intervals hold simultaneously with probability >= 1 - delta.
  const double orbit_delta = spec.delta / static_cast<double>(sampled.size());
  size_t samples = HoeffdingSampleCount(spec.epsilon, orbit_delta);
  if (spec.max_samples > 0 && spec.max_samples < samples) {
    samples = spec.max_samples;
    impl.info.budget_capped = true;
  }
  if (samples > ApproxEngine::kMaxSamplesPerRun / sampled.size()) {
    return R::Error("approx needs " + std::to_string(samples) +
                    " samples per orbit over " +
                    std::to_string(sampled.size()) +
                    " sampled orbits, past the ceiling of " +
                    std::to_string(ApproxEngine::kMaxSamplesPerRun) +
                    " samples per run; cap them with max_samples=");
  }
  impl.info.samples_per_orbit = samples;
  impl.info.samples_total = samples * sampled.size();

  const size_t chunk = impl.options.chunk_samples > 0
                           ? impl.options.chunk_samples
                           : samples;
  const size_t chunks = (samples + chunk - 1) / chunk;
  std::vector<Impl::ChunkAccum> slots(sampled.size() * chunks);
  // Cancellation polls sit at chunk boundaries: a chunk is one
  // deterministic RNG stream, so skipping whole chunks never perturbs the
  // streams an uncancelled retry replays. Once the token expires every
  // remaining task is skipped, and the run then fails as a whole below
  // (partial sums are discarded — only the coalition cache, which cannot
  // affect values, keeps its warmth).
  auto run_task = [&](size_t task) {
    if (cancel != nullptr && cancel->Expired()) return;
    const size_t ordinal = task / chunks;
    const uint64_t chunk_index = task % chunks;
    const size_t rep = representative[sampled[ordinal]];
    const size_t count = chunk_index + 1 == chunks
                             ? samples - static_cast<size_t>(chunk_index) * chunk
                             : chunk;
    impl.RunChunk(rep, chunk_index, count, spec.seed, &slots[task]);
  };
  const size_t threads = ThreadPool::ResolveThreadCount(num_threads);
  if (threads <= 1 || slots.size() <= 1) {
    for (size_t task = 0; task < slots.size(); ++task) run_task(task);
  } else {
    ThreadPool pool(threads);
    pool.ParallelFor(slots.size(), run_task);
  }
  if (cancel != nullptr && cancel->Expired()) {
    return R::Error(CancelToken::kCancelledMessage);
  }

  // Serial fixed-order reduction: per-orbit integer totals, then the exact
  // Rational mean and the double CI radius — all pure functions of the
  // streams, independent of how tasks were scheduled.
  for (size_t ordinal = 0; ordinal < sampled.size(); ++ordinal) {
    int64_t total = 0;
    int64_t nonzero = 0;
    for (size_t c = 0; c < chunks; ++c) {
      total += slots[ordinal * chunks + c].sum;
      nonzero += slots[ordinal * chunks + c].nonzero;
    }
    const double m = static_cast<double>(samples);
    // Both radii at half the orbit's confidence share, so min(·,·) is valid
    // at delta' by the union bound.
    const double log_term = std::log(4.0 / orbit_delta);
    const double hoeffding = std::sqrt(2.0 * log_term / m);
    double radius = hoeffding;
    if (samples > 1) {
      // Empirical Bernstein (Maurer–Pontil) for range [-1, 1]: sharp when
      // the observed variance is far below the worst case, which is the
      // common shape (most permutations leave the query's truth unchanged).
      const double mean = static_cast<double>(total) / m;
      const double variance =
          (static_cast<double>(nonzero) - m * mean * mean) / (m - 1.0);
      const double bernstein =
          std::sqrt(2.0 * std::max(variance, 0.0) * log_term / m) +
          14.0 * log_term / (3.0 * (m - 1.0));
      radius = std::min(hoeffding, bernstein);
    }
    ApproxRow row;
    row.estimate = Rational::Of(total, static_cast<int64_t>(samples));
    row.ci_radius = radius;
    row.samples = samples;
    row.orbit = sampled[ordinal];
    // Share the representative's estimate across every orbit member.
    for (size_t i = 0; i < n; ++i) {
      if (impl.orbits[i] == sampled[ordinal]) rows[i] = row;
    }
  }

  impl.info.eval_calls = impl.eval_calls.load(std::memory_order_relaxed);
  impl.info.cache_hits = impl.cache.hits() - cache_hits_before;
  impl.info.cache_evictions =
      impl.cache.evictions() - cache_evictions_before;
  return R::Ok(std::move(rows));
}

const ApproxRunInfo& ApproxEngine::info() const { return impl_->info; }

}  // namespace shapcq
