// Multi-session engine registry: the state layer of the attribution server.
//
// A session is one (query, database-stream) pair: the query is fixed at OPEN,
// the database starts empty and evolves through a stream of fact mutations.
// The registry owns each session's Database (heap-allocated, address-stable —
// the incremental ShapleyEngine captures it by pointer) and, while resident,
// the session's incremental engine.
//
// Engines are the expensive, evictable part. They are built lazily on the
// first report, maintained incrementally by InsertFact/DeleteFact while
// resident, and evicted least-recently-used when the byte budget (or the
// resident-engine cap) is exceeded. An evicted session stays open: its
// database keeps absorbing mutations directly, and the next report rebuilds
// the engine from the retained database ("rebuild-on-readmission"). Reports
// are bit-identical either way — the incremental engine is bit-identical to
// a fresh Build() on the mutated database (PR 3's contract).
//
// Threading: sessions are hashed across `RegistryOptions::num_stripes`
// lock stripes. Every public method takes its session's stripe mutex, so
// commands on sessions in DIFFERENT stripes proceed in parallel while
// commands on the same session (or stripe neighbors) serialize — the
// engine's single-writer/parallel-reader contract composes with one writer
// per stripe. Registry-wide counters are atomics; the LRU clock, the byte
// accounting and the eviction policy are all per stripe (each stripe gets
// an even ceil-share of the byte budget and the resident cap, so
// num_stripes = 1 reproduces the PR 4 single-writer semantics exactly).
// Backpressure: with `max_stripe_queue` set, a mutation or report that
// would be queued behind more than that many commands on its stripe fails
// fast with a structured "[E_OVERLOAD]" error instead of blocking.

#ifndef SHAPCQ_SERVICE_ENGINE_REGISTRY_H_
#define SHAPCQ_SERVICE_ENGINE_REGISTRY_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/report.h"
#include "core/shapley_engine.h"
#include "db/database.h"
#include "db/textio.h"
#include "query/cq.h"
#include "util/result.h"

namespace shapcq {

/// Eviction and concurrency knobs. The byte/count limits apply to resident
/// engines only — open sessions and their databases are never evicted, only
/// their engines.
struct RegistryOptions {
  /// Total ShapleyEngine::ApproxMemoryBytes() allowed across resident
  /// engines; 0 = unlimited. Split evenly across stripes (ceil-share per
  /// stripe); a single engine larger than its stripe's whole share is
  /// evicted at the end of its own request, so the budget holds between
  /// requests (every report on such a session is a rebuild).
  size_t engine_byte_budget = 0;
  /// Maximum number of resident engines; 0 = unlimited. Deterministic across
  /// platforms (byte estimates are not), so CI golden transcripts use this.
  /// Split evenly across stripes like the byte budget.
  size_t max_resident_engines = 0;
  /// Lock stripes sessions are hashed over. 1 (the default) serializes the
  /// whole registry — the script/stdin server and the golden transcripts.
  /// The socket server raises this so distinct sessions mutate and report
  /// in parallel.
  size_t num_stripes = 1;
  /// Admission bound on commands queued behind a stripe's lock: a mutation
  /// or report finding more than this many commands already waiting fails
  /// with "[E_OVERLOAD] ..." instead of blocking (0 = block forever).
  size_t max_stripe_queue = 0;
  /// Refresh a resident engine's byte estimate (and enforce the byte
  /// budget) every this-many deltas on the mutation path, so a delta burst
  /// cannot grow resident_bytes arbitrarily far past the budget between
  /// reports and STATS stays at most this stale (0 = refresh only at
  /// reports). The walk is O(index), hence amortized instead of per delta.
  size_t refresh_every_deltas = 8;
  /// Reject inserts that would grow a session past this many live facts
  /// with "[E_FACT_CAP] ..." (0 = unlimited). Enforced under the stripe
  /// lock, so the cap is race-free under concurrent clients.
  size_t max_session_facts = 0;
  /// Per-session bound on cached approx report tables (one per distinct
  /// ApproxSpec cache key; least-recently-served evicted beyond the bound;
  /// 0 = approx reports are never cached). The exact table cache is
  /// separate — it rides with the resident engine, as before.
  size_t max_approx_cached_reports = 4;
};

/// Registry-wide counters, reported by the STATS command.
struct RegistryStats {
  size_t open_sessions = 0;
  size_t resident_engines = 0;
  size_t resident_bytes = 0;  ///< sum of resident engines' last estimates
                              ///< (at most refresh_every_deltas stale)
  size_t report_hits = 0;     ///< reports served by an already-resident engine
  size_t report_cache_hits = 0;  ///< hits served straight from a report
                                 ///< cache entry, exact or approx (no delta
                                 ///< since that entry was ranked)
  size_t report_misses = 0;   ///< reports that had to (re)build the engine
  size_t evictions = 0;       ///< engines dropped by budget/cap pressure
  size_t engine_builds = 0;   ///< total Build() calls (first builds + rebuilds)
  size_t overloads = 0;       ///< commands rejected by the stripe queue bound
  size_t approx_reports = 0;  ///< reports served by the sampling tier
  size_t deadline_exceeded = 0;   ///< reports whose deadline (or caller
                                  ///< token) expired, degraded or not
  size_t degraded_to_approx = 0;  ///< deadline expiries answered by the
                                  ///< sampling tier (on_deadline=approx)
  size_t inflight = 0;        ///< gauge: reports executing right now (0 in
                              ///< any serial transcript — goldenable)
  size_t cached_exact_tables = 0;   ///< gauge: resident exact report caches
  size_t cached_approx_tables = 0;  ///< gauge: resident approx report caches
                                    ///< (both summed across sessions, so
                                    ///< eviction behavior is observable
                                    ///< per tier)
};

/// Per-session counters and state, reported by "STATS <session>".
struct SessionStats {
  size_t fact_count = 0;
  size_t endo_count = 0;
  size_t deltas_applied = 0;
  size_t reports_served = 0;
  size_t engine_builds = 0;  ///< builds for this session, rebuilds included
  bool engine_resident = false;
  size_t engine_bytes = 0;  ///< last estimate (refreshed at builds, computed
                            ///< reports, and every refresh_every_deltas
                            ///< mutations); 0 while not resident
  bool exact_capable = true;  ///< false = approx-only session (safe,
                              ///< self-join-free, but non-hierarchical)
  size_t cached_exact_tables = 0;   ///< 0 or 1
  size_t cached_approx_tables = 0;  ///< bounded by max_approx_cached_reports
  size_t deadline_exceeded = 0;     ///< this session's expired reports
};

/// What a mutation did, captured under the stripe lock so callers can print
/// a consistent acknowledgment without re-reading the session.
struct MutationOutcome {
  FactId fact = kNoFact;
  size_t fact_count = 0;
  size_t endo_count = 0;
};

/// A report rendered to protocol text under the stripe lock (the socket
/// path: the session may mutate again the instant the lock drops).
struct RenderedReport {
  size_t rows = 0;
  size_t endo_count = 0;
  std::string text;  ///< RenderReport() of the served table
};

/// Session store with striped locking and per-stripe LRU engine eviction.
class EngineRegistry {
 public:
  explicit EngineRegistry(const RegistryOptions& options);
  EngineRegistry();
  ~EngineRegistry();
  EngineRegistry(EngineRegistry&&) noexcept;
  EngineRegistry& operator=(EngineRegistry&&) noexcept;

  /// Opens a session with an empty database. Fails on a duplicate id or a
  /// query the evaluator cannot serve at all (unsafe negation, self-join).
  /// Safe self-join-free queries OUTSIDE the hierarchical fragment are
  /// accepted as approx-only sessions: mutations work as usual, and reports
  /// must carry an ApproxSpec (the sampling tier) — an exact report request
  /// fails with the classification reason. Returns whether the session is
  /// exact-capable (true = hierarchical, the incremental engine applies).
  Result<bool> Open(const std::string& session_id, const CQ& query);

  /// True if the session is open.
  bool Has(const std::string& session_id) const;

  /// Applies one mutation to the session's database: through the resident
  /// engine when there is one, directly otherwise. Error surfaces are
  /// identical either way (duplicate insert, arity mismatch against schema
  /// or query atom, delete of an absent fact). Returns the inserted or
  /// removed FactId.
  Result<FactId> ApplyMutation(const std::string& session_id,
                               const MutationSpec& mutation);

  /// ApplyMutation with the session's stripe lock held across two extra
  /// steps: `write_ahead` (nullable) runs after the session and fact-cap
  /// checks but before the mutation applies — a failure aborts the command
  /// with its error tagged "[E_LOG_IO]" (the WAL append point: the record
  /// is durable before the apply, and apply-time failures replay as
  /// identical no-ops). `post_apply` (nullable) runs after a successful
  /// apply with the mutated database (the auto-compaction point). Both
  /// callbacks execute under the stripe lock, so log order == apply order
  /// per session even with concurrent clients.
  Result<MutationOutcome> Mutate(
      const std::string& session_id, const MutationSpec& mutation,
      const std::function<Result<bool>()>* write_ahead,
      const std::function<void(const Database&)>* post_apply);

  /// Ranked attribution table of the session's current database. Ensures the
  /// engine is resident (building it on a miss), marks the session most
  /// recently used, then enforces the eviction policy. While the engine is
  /// resident, the full ranked table is cached per mutation epoch: repeated
  /// reports with no intervening delta are served from the cache (the
  /// steady-state polling path), with options.top_k applied per serve. The
  /// cache is dropped with the engine on eviction. Reports are bit-identical
  /// whether served from the cache, a warm engine, a fresh build, or a
  /// rebuild after an eviction.
  ///
  /// With options.approx enabled the sampling tier serves instead whenever
  /// the session is approx-only or approx.force is set (exact-capable
  /// sessions otherwise keep their exact path — auto-dispatch). Approx
  /// tables are cached per (ApproxSpec key, mutation epoch) beside the
  /// exact entry, bounded by max_approx_cached_reports with
  /// least-recently-served eviction; they need no resident engine and
  /// survive engine eviction. Fixed (spec, database) pairs reproduce
  /// bit-identically, cached or recomputed, at any thread count.
  ///
  /// A table that is not a current cache entry comes from one
  /// BuildAttributionReport call, given the session's engine slot on the
  /// exact tier; that call decides the deadline outcome.
  ///
  /// Deadlines: options.deadline_ms (or a caller-owned options.cancel
  /// token) bounds that call, so the budget starts after the cache lookup
  /// and a current cached table is served without consulting it. Expiry
  /// yields the structured [E_DEADLINE] error — or, with
  /// options.on_deadline = kApprox on an exact-capable session, a prompt
  /// work-bounded sampling answer (never cached: it is a deadline
  /// artifact, not a requested spec). Either way the session is left fully
  /// consistent — a cancelled build or sweep keeps no partial values, the
  /// stripe byte accounting is re-enforced, and the next undeadlined report
  /// is bit-identical to a fresh engine's.
  Result<AttributionReport> Report(const std::string& session_id,
                                   const ReportOptions& options);

  /// Report() plus RenderReport(), all under the stripe lock — the socket
  /// path, where the database must not mutate between ranking and
  /// rendering.
  Result<RenderedReport> ReportRendered(const std::string& session_id,
                                        const ReportOptions& options);

  /// Closes the session, dropping its database and engine. A close is not an
  /// eviction (the stream ended; nothing will be readmitted).
  Result<bool> Close(const std::string& session_id);

  /// Runs `fn` on the session's database under the stripe lock (the
  /// SNAPSHOT path: compaction must see a frozen fact table). Errors if the
  /// session is not open.
  Result<bool> VisitDatabase(
      const std::string& session_id,
      const std::function<void(const Database&)>& fn) const;

  /// The session's database (for rendering reports); nullptr if not open.
  /// Single-writer callers only (tests, benches): the pointer is read
  /// outside any lock, so it must not race concurrent Close/Open.
  const Database* FindDatabase(const std::string& session_id) const;

  Result<SessionStats> Stats(const std::string& session_id) const;
  RegistryStats stats() const;

  /// Open session ids, in OPEN order.
  std::vector<std::string> SessionIds() const;

 private:
  struct Session;
  struct Stripe;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace shapcq

#endif  // SHAPCQ_SERVICE_ENGINE_REGISTRY_H_
