#include "core/report.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <numeric>

#include "core/brute_force.h"
#include "core/exoshap.h"
#include "query/classify.h"
#include "util/cancel.h"
#include "util/check.h"
#include "util/combinatorics.h"

namespace shapcq {

std::string DeadlineExceededMessage(size_t deadline_ms) {
  if (deadline_ms == 0) return "[E_DEADLINE] cancelled";
  return "[E_DEADLINE] deadline_ms=" + std::to_string(deadline_ms) +
         " exceeded";
}

namespace {

// Appends one printf-formatted line of any length. Exact values run to
// hundreds of digits at a few hundred endogenous facts, so rows are
// formatted straight into the string's tail: one pass when the line fits
// the initial guess, a second with the exact length otherwise.
void AppendFormatted(std::string* out, const char* format, ...) {
  constexpr size_t kGuess = 256;
  const size_t at = out->size();
  va_list args;
  va_start(args, format);
  va_list retry;
  va_copy(retry, args);
  out->resize(at + kGuess);
  const int len = std::vsnprintf(&(*out)[at], kGuess, format, args);
  va_end(args);
  SHAPCQ_CHECK(len >= 0);
  const size_t size = static_cast<size_t>(len);
  if (size >= kGuess) {
    out->resize(at + size + 1);
    std::vsnprintf(&(*out)[at], size + 1, format, retry);
  }
  va_end(retry);
  out->resize(at + size);
}

// Descending by value via the division-free three-way compare: the sign
// fast path settles most pairs (reports mix positive, zero and negative
// attributions) without touching BigInt arithmetic, and ties never build
// a normalized difference Rational. The approx tier's ranking: its
// estimates share no denominator.
void RankRows(AttributionReport* report, size_t top_k) {
  std::stable_sort(report->rows.begin(), report->rows.end(),
                   [](const Attribution& a, const Attribution& b) {
                     return Rational::Compare(b.value, a.value) < 0;
                   });
  if (top_k > 0 && report->rows.size() > top_k) {
    report->rows.resize(top_k);
  }
}

// Shared epilogue of every exact report builder. numerators[e] is n!·Shapley
// of the e-th endogenous fact (n = |Dn|) and values[e] the same value in
// lowest terms. Every value shares the denominator n!, so ranking
// descending is a BigInt compare of numerators (the sign decides first; no
// cross products), and the stable sort keeps ties in endo-index order. Keeps
// the top_k rows (0 = all), moving in their values, and returns the sum of
// all the numerators: n! times the efficiency total.
BigInt FillAndRankRows(AttributionReport* report, const Database& db,
                       std::vector<Rational> values,
                       const std::vector<BigInt>& numerators, size_t top_k) {
  const std::vector<FactId>& facts = db.endogenous_facts();
  SHAPCQ_CHECK(values.size() == facts.size() &&
               numerators.size() == facts.size());
  std::vector<size_t> order(facts.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return BigInt::Compare(numerators[b], numerators[a]) < 0;
  });
  if (top_k > 0 && order.size() > top_k) order.resize(top_k);
  report->rows.reserve(order.size());
  for (size_t e : order) {
    Attribution row;
    row.fact = facts[e];
    row.value = std::move(values[e]);
    report->rows.push_back(std::move(row));
  }
  BigInt sum(0);
  for (const BigInt& numerator : numerators) sum += numerator;
  return sum;
}

// The exact report of a built CntSat engine. The total is q(D) − q(Dx), off
// the root's counts in O(1); the numerators must sum to n! times it — the
// efficiency axiom, checked on every report with integer additions only.
// A cancelled sweep returns CancelToken's error.
Result<AttributionReport> EngineReport(const char* label,
                                       ShapleyEngine& engine,
                                       const Database& db,
                                       const ReportOptions& options,
                                       const CancelToken* cancel) {
  ParallelOptions parallel;
  parallel.num_threads = options.num_threads;
  auto numerators = engine.AllNumerators(parallel, cancel);
  if (!numerators.ok()) {
    return Result<AttributionReport>::Error(numerators.error());
  }
  AttributionReport report;
  report.engine = label;
  const BigInt sum = FillAndRankRows(&report, db, engine.AllValues(),
                                     numerators.value(), options.top_k);
  const int total = engine.EfficiencyTotal();
  SHAPCQ_CHECK_MSG(
      sum == Combinatorics::Factorial(db.endogenous_count()) * BigInt(total),
      "exact values violate the efficiency axiom");
  report.total = Rational(total);
  return Result<AttributionReport>::Ok(std::move(report));
}

// The exact rows and total from reduced values (ExoShap, brute force):
// each value's denominator must divide n!, which scales it to its
// numerator, and the numerators must sum to a multiple of n!, the total.
void FillFromValues(AttributionReport* report, const Database& db,
                    std::vector<Rational> values, size_t top_k) {
  const BigInt factorial = Combinatorics::Factorial(db.endogenous_count());
  std::vector<BigInt> numerators;
  numerators.reserve(values.size());
  BigInt scale, rest;
  for (const Rational& value : values) {
    BigInt::DivMod(factorial, value.denominator(), &scale, &rest);
    SHAPCQ_CHECK_MSG(rest.IsZero(), "exact value not over a divisor of n!");
    numerators.push_back(value.numerator() * scale);
  }
  const BigInt sum =
      FillAndRankRows(report, db, std::move(values), numerators, top_k);
  BigInt total;
  BigInt::DivMod(sum, factorial, &total, &rest);
  SHAPCQ_CHECK_MSG(rest.IsZero(), "exact values sum to a non-integer total");
  report->total = Rational(std::move(total));
}

// The sampling tier: estimates every endogenous fact with the additive
// FPRAS, stratified by the exact engine's orbits when the query is
// hierarchical (the forced-approx path) and by the signature partition
// otherwise.
Result<AttributionReport> BuildApproxReport(const CQ& q, const Database& db,
                                            const ReportOptions& options,
                                            bool hierarchical,
                                            const CancelToken* cancel) {
  AttributionReport report;
  report.engine = "approx-fpras";
  report.approximate = true;
  report.approx.epsilon = options.approx.epsilon;
  report.approx.delta = options.approx.delta;
  report.approx.seed = options.approx.seed;
  auto verdict = ClassifyExactShapley(q);
  report.approx.dispatch_reason =
      verdict.ok() ? verdict.value().reason : verdict.error();

  ApproxEngine::Options approx_options;
  std::vector<size_t> engine_orbits;
  if (hierarchical) {
    // The exact engine's orbit partition is at least as coarse as the
    // signature one (it groups by value, not just by automorphism), so
    // forced sampling on tractable queries borrows it for stratification.
    auto built = ShapleyEngine::Build(q, db, cancel);
    if (built.ok()) {
      ShapleyEngine engine = std::move(built).value();
      engine_orbits = engine.OrbitIds();
      approx_options.orbit_ids = &engine_orbits;
    } else if (CancelToken::IsCancelled(built.error())) {
      // Build failures are otherwise tolerated (the signature partition
      // serves), but a deadline expiry must surface, not silently coarsen
      // the stratification.
      return Result<AttributionReport>::Error(built.error());
    }
  }
  auto created = ApproxEngine::Create(q, db, approx_options);
  if (!created.ok()) return Result<AttributionReport>::Error(created.error());
  ApproxEngine engine = std::move(created).value();
  auto rows = engine.EstimateAll(options.approx, options.num_threads, cancel);
  if (!rows.ok()) return Result<AttributionReport>::Error(rows.error());

  const ApproxRunInfo& info = engine.info();
  report.approx.samples_per_orbit = info.samples_per_orbit;
  report.approx.samples_total = info.samples_total;
  report.approx.orbit_count = info.orbit_count;
  report.approx.sampled_orbits = info.sampled_orbits;
  report.approx.budget_capped = info.budget_capped;
  report.approx.orbit_source = info.orbit_source;

  const std::vector<ApproxRow>& estimates = rows.value();
  for (FactId f : db.endogenous_facts()) {
    const ApproxRow& estimate = estimates[db.endo_index(f)];
    report.total += estimate.estimate;
    Attribution row;
    row.fact = f;
    row.value = estimate.estimate;
    row.ci_radius = estimate.ci_radius;
    row.samples = estimate.samples;
    report.rows.push_back(std::move(row));
  }
  RankRows(&report, options.top_k);
  return Result<AttributionReport>::Ok(std::move(report));
}

// The deadline-degradation answer: a prompt, work-bounded sampling report
// for a query whose exact report just blew its deadline.
Result<AttributionReport> BuildDegradedApproxReport(
    const CQ& q, const Database& db, const ReportOptions& options) {
  // Work-bounded, never re-deadlined, never rebuilding the exact index
  // (signature-stratified orbits): the deadline already expired once, so
  // the degraded answer should cost as little as a useful answer can. A
  // caller-provided approx spec is honored; otherwise a deliberately
  // coarse default — wide CIs are the point of a degraded answer, and the
  // per-sample cost still scales with the database, so the sample budget
  // is the only lever this side of a time-budgeted sampler.
  ReportOptions degraded = options;
  degraded.deadline_ms = 0;
  degraded.cancel = nullptr;
  if (!degraded.approx.enabled()) {
    degraded.approx.epsilon = 0.25;
    degraded.approx.delta = 0.1;
    degraded.approx.max_samples = 512;
  }
  degraded.approx.force = true;
  return BuildApproxReport(q, db, degraded, /*hierarchical=*/false,
                           /*cancel=*/nullptr);
}

}  // namespace

Result<AttributionReport> BuildAttributionReport(
    const CQ& q, const Database& db, const ReportOptions& options,
    std::optional<ShapleyEngine>* engine) {
  AttributionReport report;
  const bool approx_requested = options.approx.enabled();
  if (approx_requested) {
    auto valid = options.approx.Validate();
    if (!valid.ok()) return Result<AttributionReport>::Error(valid.error());
  }
  const bool hierarchical = IsSafe(q) && IsSelfJoinFree(q) && IsHierarchical(q);
  const bool exoshap_applies =
      !hierarchical && IsSafe(q) && IsSelfJoinFree(q) && !options.exo.empty() &&
      !FindNonHierarchicalPath(q, options.exo).has_value();
  const bool force_approx = approx_requested && options.approx.force;
  const bool cntsat = hierarchical && !force_approx;

  // One token per report: a caller-owned token wins, else a deadline_ms
  // budget arms a local one. nullptr = uncancellable (the default), and the
  // whole deadline machinery stays off the path.
  CancelToken deadline_token;
  if (options.cancel == nullptr && options.deadline_ms > 0) {
    deadline_token.ArmDeadlineMillis(options.deadline_ms);
  }
  const CancelToken* cancel = options.cancel != nullptr
                                  ? options.cancel
                                  : (deadline_token.Enabled()
                                         ? &deadline_token
                                         : nullptr);

  if (cntsat) {
    report.engine = engine != nullptr ? "CntSat (incremental)" : "CntSat";
  } else if (exoshap_applies && !force_approx) {
    report.engine = "ExoShap";
  } else if (approx_requested) {
    // The sampling tier works for ANY query the evaluator can decide —
    // exactly the fallback the dichotomy's hard side needs.
    report.engine = "approx-fpras";
  } else if (options.allow_brute_force &&
             db.endogenous_count() <= options.brute_force_limit) {
    report.engine = "brute-force";
  } else {
    return Result<AttributionReport>::Error(
        "no polynomial engine applies to " + q.ToString() +
        " (FP^#P-hard per the dichotomies) and brute force is not allowed; "
        "the sampling tier (approx=eps,delta) serves such queries");
  }
  const bool sampling = report.engine == "approx-fpras";

  // An exact tier's expiry degrades to sampling when the caller asks; the
  // sampling tier's is terminal, there being no tier left below it.
  auto expired = [&]() -> Result<AttributionReport> {
    if (!sampling && options.on_deadline == OnDeadline::kApprox) {
      return BuildDegradedApproxReport(q, db, options);
    }
    return Result<AttributionReport>::Error(
        DeadlineExceededMessage(options.deadline_ms));
  };
  // The one entry poll: an already-expired token starts no build and no
  // sampling.
  if (cancel != nullptr && cancel->Expired()) return expired();

  if (sampling) {
    auto sampled = BuildApproxReport(q, db, options, hierarchical, cancel);
    if (!sampled.ok() && CancelToken::IsCancelled(sampled.error())) {
      return expired();
    }
    return sampled;
  }
  // All-facts attribution is served by the single-pass engines: one shared
  // CntSat recursion (and, for ExoShap, one transformation) for the whole
  // table instead of a from-scratch computation per fact.
  if (cntsat) {
    // Only a finished build enters the slot, so a cancelled one leaves it
    // empty; a cancelled sweep memoizes no value.
    std::optional<ShapleyEngine> one_shot;
    std::optional<ShapleyEngine>& slot = engine != nullptr ? *engine : one_shot;
    if (!slot.has_value()) {
      auto built = ShapleyEngine::Build(q, db, cancel);
      if (!built.ok()) {
        if (CancelToken::IsCancelled(built.error())) return expired();
        return Result<AttributionReport>::Error(built.error());
      }
      slot.emplace(std::move(built).value());
    }
    auto exact =
        EngineReport(report.engine.c_str(), *slot, db, options, cancel);
    if (exact.ok() || !CancelToken::IsCancelled(exact.error())) return exact;
    return expired();
  }
  std::vector<Rational> values;
  if (report.engine == "ExoShap") {
    ParallelOptions parallel;
    parallel.num_threads = options.num_threads;
    auto result = ExoShapShapleyAll(q, db, options.exo, parallel);
    if (!result.ok()) return Result<AttributionReport>::Error(result.error());
    values = std::move(result).value();
  } else {
    values.reserve(db.endogenous_count());
    for (FactId f : db.endogenous_facts()) {
      values.push_back(ShapleyBruteForce(q, db, f));
    }
  }
  FillFromValues(&report, db, std::move(values), options.top_k);
  return Result<AttributionReport>::Ok(std::move(report));
}

AttributionReport BuildAttributionReportFromEngine(
    ShapleyEngine& engine, const Database& db, const ReportOptions& options) {
  return EngineReport("CntSat (incremental)", engine, db, options, nullptr)
      .value();
}

std::string RenderReport(const AttributionReport& report, const Database& db) {
  std::string out = "engine: " + report.engine + "\n";
  // Rows are ranked by value, so equal values (an orbit's members) sit
  // together: a value's text and decimal are formatted once per run.
  const Rational* shown = nullptr;
  std::string text;
  double decimal = 0;
  auto format = [&](const Rational& value) {
    if (shown == nullptr || *shown != value) {
      text = value.ToString();
      decimal = value.ToDouble();
    }
    shown = &value;
  };
  if (report.approximate) {
    // Provenance first: the parameters that make the table reproducible
    // (seed-pure) and interpretable (joint coverage at 1 - delta).
    AppendFormatted(&out,
                    "approx: eps=%g delta=%g seed=%" PRIu64
                    " samples_per_orbit=%zu orbits=%zu/%zu source=%s "
                    "capped=%s\n",
                    report.approx.epsilon, report.approx.delta,
                    report.approx.seed, report.approx.samples_per_orbit,
                    report.approx.sampled_orbits, report.approx.orbit_count,
                    report.approx.orbit_source.c_str(),
                    report.approx.budget_capped ? "yes" : "no");
    AppendFormatted(&out, "%-30s %14s %10s %10s %9s\n", "fact", "estimate",
                    "~decimal", "+-ci", "samples");
    for (const Attribution& row : report.rows) {
      format(row.value);
      AppendFormatted(&out, "%-30s %14s %10.4f %10.4f %9zu\n",
                      db.FactToString(row.fact).c_str(), text.c_str(),
                      decimal, row.ci_radius, row.samples);
    }
  } else {
    AppendFormatted(&out, "%-30s %14s %10s\n", "fact", "Shapley", "~decimal");
    for (const Attribution& row : report.rows) {
      format(row.value);
      AppendFormatted(&out, "%-30s %14s %10.4f\n",
                      db.FactToString(row.fact).c_str(), text.c_str(),
                      decimal);
    }
  }
  AppendFormatted(&out, "%-30s %14s\n", "total",
                  report.total.ToString().c_str());
  return out;
}

}  // namespace shapcq
