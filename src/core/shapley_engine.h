// Single-pass exact Shapley values for ALL endogenous facts.
//
// The per-fact reduction (shapley.h) runs the full CntSat recursion twice per
// fact — an O(|Dn|) blow-up over what the recursion structure requires,
// because forcing one fact exogenous (or removing it) only perturbs the
// recursion along the root-to-leaf path that contains the fact. This engine
// exploits that:
//
//  1. Shared index. The matched-fact index (every fact matched against every
//     atom pattern) and the root-variable slicing of the CntSat recursion
//     are built ONCE, by instantiating the query's safe plan (plan.h),
//     itself compiled once per Build. Recursion slices are vectors of
//     32-bit FactIds into the database, never copied Tuples.
//  2. One numeric core. Every recursion node goes into the flat EngineArena
//     (engine_arena.h) the moment Build creates it: its |Sat| count vector
//     sits in one shared cell buffer next to, for inner nodes, the product
//     of its children's combine vectors, and all-facts evaluation is one
//     arena call: a top-down difference-propagation sweep that divides each
//     ancestor's product by one child's vector to get that child's sibling
//     context, shared by every leaf below it, in state that lives only for
//     the call. The engine itself keeps only routing metadata (each node's
//     plan step, leaf state and slice map) and the per-orbit values.
//  3. Orbits. Facts whose leaf-to-root paths traverse structurally identical
//     children are symmetric players of the game; one Shapley value is
//     computed per orbit. The first query after a change signs every node
//     once, children before parents, with integer codes local to that pass
//     and keys each fact by the codes along its path. Facts matching no atom
//     pattern (a relation the query does not mention, a wrong constant,
//     unequal values at a variable's repeated positions) are null players
//     with value 0, no computation at all.
//  4. Mutations. InsertFact/DeleteFact walk a fact from the root to its
//     leaf by the plan steps and fill or empty that leaf (an insert for an
//     unseen root value splices in a new slice instead), then re-derive
//     the memoized |Sat| vectors only along the dirtied root-to-leaf path,
//     dividing each child's old combine vector out of its parent's product
//     and multiplying the new one in; they mark the orbits stale and the
//     next query re-signs. The engine therefore tracks a changing database
//     without rebuilds — see "Incremental maintenance" in DESIGN.md.
//
// Values equal the per-fact path's (ShapleyViaCountSat) exactly, and after
// any mutation sequence they equal a fresh Build() on the mutated database;
// tests/engine_arena_test.cc checks both against the per-fact oracle.

#ifndef SHAPCQ_CORE_SHAPLEY_ENGINE_H_
#define SHAPCQ_CORE_SHAPLEY_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "query/cq.h"
#include "util/count_vector.h"
#include "util/rational.h"
#include "util/result.h"

namespace shapcq {

class CancelToken;  // util/cancel.h

/// Execution options for the all-facts entry points. Every thread count runs
/// the same level-by-level arena sweep: one thread fills each level inline,
/// num_threads > 1 hands each level to a worker pool. Results are
/// bit-identical at every thread count: representatives are chosen in fixed
/// endo-index order, every swept vector is a pure function of the built
/// index written into a pre-assigned span, and the values are assembled
/// serially (see "Threading contract" in DESIGN.md).
struct ParallelOptions {
  /// Worker threads for all-facts queries. 1 = inline on the caller (no
  /// pool, no locks on the hot path); 0 = auto
  /// (std::thread::hardware_concurrency).
  size_t num_threads = 1;
};

/// All-facts exact Shapley computation over a shared CntSat index.
/// Build() once per (query, database); value queries are then cheap.
class ShapleyEngine {
 public:
  /// Build/query statistics, for tests and benchmarks.
  struct Stats {
    size_t node_count = 0;         ///< recursion nodes
    size_t null_player_count = 0;  ///< endogenous facts with Shapley ≡ 0
    size_t orbit_count = 0;        ///< distinct orbits among endogenous facts
  };

  /// Empty engine; the only way to get a usable one is Build().
  ShapleyEngine();
  ~ShapleyEngine();
  ShapleyEngine(ShapleyEngine&&) noexcept;
  ShapleyEngine& operator=(ShapleyEngine&&) noexcept;

  /// Builds the shared index and runs the CntSat recursion once, writing
  /// every node's counts straight into the arena. Requires q safe,
  /// self-join-free and hierarchical (returns an error otherwise, mirroring
  /// CountSat). The database is captured by reference metadata only; it must
  /// outlive the engine. A non-null `cancel` token is polled at every
  /// recursion step; on expiry Build unwinds promptly and returns the
  /// cancellation error (CancelToken::IsCancelled) — the partially built
  /// engine is discarded and the database is untouched, so a retry without
  /// a deadline is bit-identical to an uncancelled build.
  static Result<ShapleyEngine> Build(const CQ& q, const Database& db,
                                     const CancelToken* cancel = nullptr);

  /// |Sat(D,q,k)| for all k of the current database — identical to
  /// CountSat(q, db). Computed on demand from the root's memoized counts.
  CountVector BaselineSat() const;

  /// q(D) − q(Dx) ∈ {−1, 0, 1}: |Sat_n| − |Sat_0|, the efficiency total the
  /// values of every endogenous fact sum to (Livshits et al.). O(1): read
  /// off the root's memoized counts, no vector copy.
  int EfficiencyTotal() const;

  /// Shapley(D,q,f). Aborts if f is exogenous.
  Rational Value(FactId f);

  /// Shapley values of every endogenous fact, endo-index order. Computes one
  /// value per orbit — S over D = n!/G, where G is the common factor of the
  /// weights k!(n−1−k)! (see WeightRow), reduced by one gcd against D —
  /// memoizes it with its numerator G·S over n! = |Dn|!, and shares the
  /// reduced value across the orbit's members.
  std::vector<Rational> AllValues();

  /// As AllValues(), with options.num_threads workers filling each level of
  /// the arena sweep over the orbit representatives' paths. Output is
  /// bit-identical for every thread count. Concurrent calls into one engine
  /// are NOT supported — the engine parallelizes internally, it is not
  /// re-entrant.
  std::vector<Rational> AllValues(const ParallelOptions& options);

  /// Cancellable all-facts query: as AllValues(options), polling `cancel`
  /// before the arena sweep, between its levels (at every thread count) and
  /// before each orbit's assembly. On expiry it returns the cancellation
  /// error and memoizes nothing, so a later (undeadlined) AllValues
  /// re-sweeps and returns values bit-identical to a fresh engine's. A
  /// nullptr or disabled token never expires, so the call then always
  /// succeeds.
  Result<std::vector<Rational>> AllValues(const ParallelOptions& options,
                                          const CancelToken* cancel);

  /// The same values as integers over their shared denominator n! = |Dn|!:
  /// n!·Shapley of every endogenous fact, endo-index order — the numerators
  /// the paper's counting formula sums before it divides, from the same
  /// per-orbit memo as AllValues (whichever call values an orbit first, the
  /// other only copies). Report assembly ranks and totals on these with
  /// integer compares and additions. Threads, cancellation, bit-identity
  /// and stats().orbit_count exactly as AllValues(options, cancel).
  Result<std::vector<BigInt>> AllNumerators(
      const ParallelOptions& options, const CancelToken* cancel = nullptr);

  /// Orbit id of every endogenous fact, endo-index order. Ids are dense,
  /// first-seen order; all null players share one orbit. Facts with equal
  /// orbit ids are symmetric players (equal Shapley values by construction).
  std::vector<size_t> OrbitIds();

  // -------------------------------------------------------------------------
  // Incremental maintenance. Both mutators take the SAME database the
  // engine was built on (passed mutably so the call site owns the write;
  // aborts on a different database). They update the database and patch the
  // memoized counts along the single dirtied root-to-leaf path, so subsequent
  // queries are bit-identical to a fresh Build() on the mutated database.
  // Mutations are NOT thread-safe: mutate serially, between (possibly
  // parallel) query calls — see "Threading contract" in DESIGN.md.
  // -------------------------------------------------------------------------

  /// Adds the fact to the database and splices it into the index: into an
  /// existing empty leaf, a freshly built subtree for an unseen root value,
  /// or the global free-fact counter for a fact no atom pattern matches.
  /// Returns the new FactId, or CheckInsert's error (the database is
  /// untouched on error).
  Result<FactId> InsertFact(Database& db, const std::string& relation,
                            Tuple tuple, bool endogenous);

  /// The checks InsertFact runs before it writes: the relation's schema
  /// arity, the arity of q's atoms over the relation (which may be absent
  /// from the schema until its first fact) and duplicates. Callers that
  /// insert into db while no engine is built run the same checks, so a
  /// failed insert reads the same either way.
  static Result<bool> CheckInsert(const CQ& q, const Database& db,
                                  const std::string& relation,
                                  const Tuple& tuple);

  /// Removes a live fact (tombstoning its id) and patches its leaf or free
  /// counter out of the index. Returns the removed id, or an error if the
  /// fact id is invalid or already removed (the database is untouched).
  Result<FactId> DeleteFact(Database& db, FactId fact);

  /// Statistics of the built engine. orbit_count is populated by AllValues /
  /// AllNumerators / OrbitIds (0 before the first all-facts query).
  Stats stats() const;

  /// Approximate heap footprint of the engine's index in bytes: the arena
  /// (memoized count vectors and per-node products; the sweep's r-vectors
  /// die with each valuation), routing maps, orbit ids and the per-orbit
  /// value memo (orbit signatures die with each refresh). An estimate for
  /// the serving layer's byte-budgeted LRU eviction — monotone in index
  /// size, not an allocator audit. Excludes the Database itself (owned by
  /// the caller, retained across evictions).
  size_t ApproxMemoryBytes() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace shapcq

#endif  // SHAPCQ_CORE_SHAPLEY_ENGINE_H_
