// Attribution reports: the user-facing summary layer over the Shapley
// engines. Computes values for all endogenous facts with the best
// applicable algorithm, ranks them, and renders a fixed-width table.

#ifndef SHAPCQ_CORE_REPORT_H_
#define SHAPCQ_CORE_REPORT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/approx_engine.h"
#include "core/shapley_engine.h"
#include "db/database.h"
#include "query/analysis.h"
#include "query/cq.h"
#include "util/rational.h"
#include "util/result.h"

namespace shapcq {

class CancelToken;  // util/cancel.h

/// What an expired deadline on an exact report turns into: a structured
/// [E_DEADLINE] error (kError, the default), or a degradation to the
/// sampling tier (kApprox) — the caller still gets an answer, CI-annotated
/// with the usual "approx:" provenance line. Degraded runs are work-bounded
/// (a default per-orbit sample cap), not re-deadlined: the deadline budget
/// applies to the exact attempt.
enum class OnDeadline { kError, kApprox };

/// The canonical [E_DEADLINE] error payload. `deadline_ms` = 0 means the
/// expiry came from a caller-supplied token rather than a millisecond
/// budget. Deterministic (no timing content), so transcripts stay golden.
std::string DeadlineExceededMessage(size_t deadline_ms);

/// One fact's attribution. The confidence fields are meaningful only on
/// approximate reports (AttributionReport::approximate): the true Shapley
/// value lies within ci_radius of `value`, jointly over all rows, with
/// probability at least 1 - delta.
struct Attribution {
  FactId fact = kNoFact;
  Rational value;
  double ci_radius = 0.0;  // 0 on exact reports
  size_t samples = 0;      // 0 on exact reports and provably-zero rows
};

/// Provenance of an approximate report (AttributionReport::approx).
struct ApproxReportInfo {
  double epsilon = 0.0;
  double delta = 0.0;
  uint64_t seed = 0;
  size_t samples_per_orbit = 0;
  size_t samples_total = 0;
  size_t orbit_count = 0;      ///< symmetry orbits over the endo facts
  size_t sampled_orbits = 0;   ///< orbits that drew samples (rest are
                               ///< provably zero)
  bool budget_capped = false;  ///< max_samples cut the Hoeffding count
                               ///< (intervals widen accordingly)
  std::string orbit_source;    ///< "engine" or "signature"
  std::string dispatch_reason; ///< classifier verdict that routed here
};

/// A full attribution of a query answer to the endogenous facts.
struct AttributionReport {
  std::vector<Attribution> rows;  // sorted by descending value
  std::string engine;             // "CntSat", "ExoShap", "approx-fpras" or
                                  // "brute-force"
  Rational total;                 // = q(D) − q(Dx) by efficiency (for
                                  // approx: the sum of the estimates)
  bool approximate = false;       // rows carry (ci_radius, samples)
  ApproxReportInfo approx;        // populated iff `approximate`
};

/// Options for BuildAttributionReport.
struct ReportOptions {
  ExoRelations exo;               // all-exogenous relations, if known
  bool allow_brute_force = false; // permit the exponential fallback
  size_t brute_force_limit = 20;  // max |Dn| for the fallback
  size_t num_threads = 1;         // worker threads for the all-facts engines
                                  // (1 = serial, 0 = hardware concurrency);
                                  // values are identical at any setting
  size_t top_k = 0;               // keep only the k highest-ranked rows
                                  // (0 = all); `total` stays the full
                                  // efficiency total either way
  ApproxSpec approx;              // sampling tier: disabled unless
                                  // approx.enabled(); with approx.force the
                                  // sampler runs even on tractable queries
  size_t deadline_ms = 0;         // wall-clock budget for the report
                                  // (0 = none). Covers the CntSat build +
                                  // sweep and the sampling tier; expiry
                                  // yields [E_DEADLINE] or, per
                                  // on_deadline, an approx degradation
  OnDeadline on_deadline =        // policy when the deadline expires on an
      OnDeadline::kError;         // exact report (see OnDeadline)
  const CancelToken* cancel =     // caller-owned token; non-null overrides
      nullptr;                    // deadline_ms. Tests use it to cancel at a
                                  // chosen poll; the service layer sets only
                                  // deadline_ms
};

/// Computes Shapley values for every endogenous fact, choosing CntSat for
/// hierarchical queries, ExoShap when `options.exo` removes all
/// non-hierarchical paths, the sampling tier when `options.approx` is
/// enabled (the only engine for FP^#P-hard queries beyond the brute-force
/// limit; with approx.force it preempts the exact engines too), and (only
/// if allowed) brute force otherwise. Returns an error when no permitted
/// engine applies.
///
/// The one place a report's deadline is decided: options.cancel, else a
/// token armed for options.deadline_ms, is polled once on entry (before any
/// build or sampling) and then by the CntSat build and sweep and by the
/// sampler. Expiry on an exact tier returns the [E_DEADLINE] payload or,
/// with on_deadline = kApprox, a work-bounded sampled report; expiry on the
/// sampling tier is always the error.
///
/// `engine` (nullable) is a resident-engine slot for the CntSat tier: the
/// report is served from *engine, which is built into when empty, and is
/// labelled "CntSat (incremental)". The engine must have been built on
/// `db` and kept in step with it (InsertFact/DeleteFact). A cancelled
/// build leaves the slot empty; a cancelled sweep leaves it engaged with
/// no value memoized, so a later undeadlined report re-sweeps and is
/// bit-identical to a fresh engine's. Other tiers never touch the slot.
Result<AttributionReport> BuildAttributionReport(
    const CQ& q, const Database& db, const ReportOptions& options,
    std::optional<ShapleyEngine>* engine = nullptr);

/// The exact table of a live engine, uncancellable: what
/// BuildAttributionReport serves from an engaged slot without a deadline.
/// Like every exact report, it is assembled on the values' numerators over
/// n! = |Dn|! (ranked by integer compare) and checks that they sum to n!
/// times the total q(D) − q(Dx).
AttributionReport BuildAttributionReportFromEngine(
    ShapleyEngine& engine, const Database& db, const ReportOptions& options);

/// Fixed-width text rendering of a report (fact, exact value, decimal).
/// Approximate reports add an "approx:" provenance line and per-row
/// confidence columns; exact reports render byte-identically to before the
/// sampling tier existed.
std::string RenderReport(const AttributionReport& report, const Database& db);

}  // namespace shapcq

#endif  // SHAPCQ_CORE_REPORT_H_
