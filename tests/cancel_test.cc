// Cancellation-safety battery: the CancelToken primitive, the deadline keys
// of the unified ReportRequest grammar, and — the core contract — that a
// cancelled Build / value sweep / sampling run leaves every
// structure in a state from which the next UNdeadlined query is
// bit-identical to a fresh-engine oracle. Cancellation points are chosen
// deterministically with CancelToken::AtCheck (no timing), swept over a
// fuzz-style set of ordinals and over {1,2,4,8} worker threads; the suite
// names carry "Cancel"/"Deadline" so the TSan CI job picks them up.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/approx_engine.h"
#include "core/report.h"
#include "core/shapley_engine.h"
#include "db/textio.h"
#include "query/parser.h"
#include "service/engine_registry.h"
#include "service/report_request.h"
#include "util/cancel.h"
#include "util/rational.h"

namespace shapcq {
namespace {

// ---------------------------------------------------------------------------
// CancelToken unit tests.
// ---------------------------------------------------------------------------

TEST(CancelTokenTest, DefaultTokenNeverExpires) {
  CancelToken token;
  EXPECT_FALSE(token.Enabled());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(token.Expired());
}

TEST(CancelTokenTest, ZeroMillisecondDeadlineIsExpiredAtFirstCheck) {
  CancelToken token = CancelToken::AfterMillis(0);
  EXPECT_TRUE(token.Enabled());
  EXPECT_TRUE(token.Expired());
}

TEST(CancelTokenTest, DistantDeadlineDoesNotFire) {
  CancelToken token = CancelToken::AfterMillis(1000 * 60 * 60);
  EXPECT_TRUE(token.Enabled());
  EXPECT_FALSE(token.Expired());
  // Past the clock's range (~317 years here): milliseconds that would
  // overflow the clock's nanosecond ticks must not wrap into the past.
  CancelToken far = CancelToken::AfterMillis(10000000000000ull);
  EXPECT_TRUE(far.Enabled());
  EXPECT_FALSE(far.Expired());
  CancelToken farthest;
  farthest.ArmDeadlineMillis(UINT64_MAX);
  EXPECT_TRUE(farthest.Enabled());
  EXPECT_FALSE(farthest.Expired());
}

TEST(CancelTokenTest, AtCheckFiresOnTheKthPollAndLatches) {
  CancelToken token = CancelToken::AtCheck(3);
  EXPECT_FALSE(token.Expired());
  EXPECT_FALSE(token.Expired());
  EXPECT_TRUE(token.Expired());
  // Latched: true forever after the first hit.
  EXPECT_TRUE(token.Expired());
  EXPECT_TRUE(token.Expired());
}

TEST(CancelTokenTest, AtCheckZeroBehavesLikeImmediateExpiry) {
  CancelToken token = CancelToken::AtCheck(0);
  EXPECT_TRUE(token.Expired());
}

TEST(CancelTokenTest, RequestCancelTripsTheNextPoll) {
  CancelToken token;
  EXPECT_FALSE(token.Expired());  // not yet enabled: one cheap branch
  token.RequestCancel();
  EXPECT_TRUE(token.Enabled());
  EXPECT_TRUE(token.Expired());
  EXPECT_TRUE(token.Expired());
}

TEST(CancelTokenTest, ArmDeadlineOnExistingTokenEnablesIt) {
  CancelToken token;
  EXPECT_FALSE(token.Enabled());
  token.ArmDeadlineMillis(0);
  EXPECT_TRUE(token.Enabled());
  EXPECT_TRUE(token.Expired());
}

TEST(CancelTokenTest, IsCancelledRecognizesThePayload) {
  EXPECT_TRUE(CancelToken::IsCancelled(CancelToken::kCancelledMessage));
  EXPECT_TRUE(CancelToken::IsCancelled(
      std::string("build: ") + CancelToken::kCancelledMessage));
  EXPECT_FALSE(CancelToken::IsCancelled("cancelled"));
  EXPECT_FALSE(CancelToken::IsCancelled("some other error"));
}

TEST(DeadlineMessageTest, PayloadIsDeterministic) {
  EXPECT_EQ(DeadlineExceededMessage(250),
            "[E_DEADLINE] deadline_ms=250 exceeded");
  // deadline_ms = 0: the expiry came from a caller token, not a budget.
  EXPECT_EQ(DeadlineExceededMessage(0), "[E_DEADLINE] cancelled");
}

// ---------------------------------------------------------------------------
// ReportRequest grammar: the deadline keys ride the strict parser.
// ---------------------------------------------------------------------------

TEST(DeadlineRequestParseTest, ParsesDeadlineAndPolicyKeys) {
  auto parsed =
      ParseReportRequest("deadline_ms=250 on_deadline=approx top_k=3", 1);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().deadline_ms, 250u);
  EXPECT_TRUE(parsed.value().deadline_in_request);
  EXPECT_EQ(parsed.value().on_deadline, OnDeadline::kApprox);
  EXPECT_EQ(parsed.value().top_k, 3u);

  const ReportOptions options = parsed.value().ToReportOptions();
  EXPECT_EQ(options.deadline_ms, 250u);
  EXPECT_EQ(options.on_deadline, OnDeadline::kApprox);
}

TEST(DeadlineRequestParseTest, ZeroDeadlineStillMarksTheRequest) {
  // deadline_ms=0 must be distinguishable from "no deadline key": it is the
  // per-request opt-out of a server --default-deadline-ms.
  auto parsed = ParseReportRequest("deadline_ms=0", 1);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().deadline_ms, 0u);
  EXPECT_TRUE(parsed.value().deadline_in_request);
  EXPECT_EQ(parsed.value().on_deadline, OnDeadline::kError);
}

TEST(DeadlineRequestParseTest, AbsentKeysLeaveDefaults) {
  auto parsed = ParseReportRequest("top_k=2", 1);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().deadline_ms, 0u);
  EXPECT_FALSE(parsed.value().deadline_in_request);
}

TEST(DeadlineRequestParseTest, RejectsNonNumericDeadline) {
  auto parsed = ParseReportRequest("deadline_ms=soon", 1);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error(), "bad deadline_ms value 'soon'");
}

TEST(DeadlineRequestParseTest, RejectsTrailingJunkOnDeadline) {
  // ParseSizeStrict rigor: "5x", "5 ", "+5" and "" are all rejected.
  for (const char* bad : {"5x", "+5", "", "0x10", " 5"}) {
    auto parsed =
        ParseReportRequest(std::string("deadline_ms=") + bad, 1);
    EXPECT_FALSE(parsed.ok()) << "accepted deadline_ms='" << bad << "'";
  }
}

TEST(DeadlineRequestParseTest, RejectsUnknownPolicy) {
  auto parsed = ParseReportRequest("on_deadline=later", 1);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error(),
            "bad on_deadline value 'later' (expected error or approx)");
}

TEST(DeadlineRequestParseTest, RejectsDuplicateDeadlineKey) {
  auto parsed = ParseReportRequest("deadline_ms=1 deadline_ms=2", 1);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error(), "duplicate key 'deadline_ms'");
}

TEST(DeadlineRequestParseTest, UnknownKeyErrorListsTheDeadlineKeys) {
  auto parsed = ParseReportRequest("deadline=5", 1);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error(),
            "unknown key 'deadline' (expected top_k, threads, approx, seed, "
            "max_samples, force_approx, deadline_ms or on_deadline)");
}

TEST(DeadlineRequestParseTest, RequestWithoutDeadlineKeysCarriesNoDeadline) {
  auto parsed = ParseReportRequest("top_k=3 threads=2", 1);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_FALSE(parsed.value().deadline_in_request);
  EXPECT_EQ(parsed.value().deadline_ms, 0u);
}

// ---------------------------------------------------------------------------
// The cancellation-safety battery.
//
// Fixtures: a hierarchical query over a database wide enough to have many
// orbits and recursion nodes (so every AtCheck ordinal below lands inside
// real work), and a non-hierarchical one for the sampling tier.
// ---------------------------------------------------------------------------

const char* const kHierarchicalQuery =
    "q() :- Stud(x), not TA(x), Reg(x,y)";
const char* const kNonHierarchicalQuery = "q() :- R(x,y), S(x), T(y)";

Database MakeHierarchicalDb(size_t students) {
  std::string text;
  for (size_t i = 0; i < students; ++i) {
    const std::string s = "s" + std::to_string(i);
    text += "Stud(" + s + ") ";
    text += "Reg(" + s + ",c" + std::to_string(i % 7) + ")* ";
    if (i % 3 == 0) text += "TA(" + s + ")* ";
    if (i % 5 == 0) text += "Reg(" + s + ",extra)* ";
  }
  return MustParseDatabase(text);
}

Database MakeNonHierarchicalDb() {
  std::string text;
  for (int i = 0; i < 6; ++i) {
    const std::string a = "a" + std::to_string(i);
    const std::string b = "b" + std::to_string(i % 3);
    text += "R(" + a + "," + b + ")* ";
    text += "S(" + a + ")" + (i % 2 == 0 ? "* " : " ");
    if (i < 3) text += "T(" + b + ")* ";
  }
  return MustParseDatabase(text);
}

// Deterministic fuzz: a fixed LCG walk over cancellation ordinals, spanning
// "immediately", "early", and "deep into the run". The same points every
// run — reproducibility beats novelty for a regression battery.
std::vector<uint64_t> FuzzCheckPoints() {
  std::vector<uint64_t> points = {1, 2, 3};
  uint64_t x = 0x2545F4914F6CDD1Dull;
  for (int i = 0; i < 7; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    points.push_back(1 + (x >> 33) % 400);
  }
  return points;
}

const std::vector<size_t> kThreadCounts = {1, 2, 4, 8};

// The oracle: serial values of a fresh, uncancelled engine.
std::vector<Rational> OracleValues(const CQ& q, const Database& db) {
  auto built = ShapleyEngine::Build(q, db);
  SHAPCQ_CHECK_MSG(built.ok(), built.error().c_str());
  ShapleyEngine engine = std::move(built).value();
  return engine.AllValues();
}

TEST(CancelBatteryTest, CancelledBuildDiscardsCleanlyThenRetryIsIdentical) {
  const CQ q = MustParseCQ(kHierarchicalQuery);
  const Database db = MakeHierarchicalDb(40);
  const std::vector<Rational> oracle = OracleValues(q, db);

  for (const uint64_t k : FuzzCheckPoints()) {
    CancelToken token = CancelToken::AtCheck(k);
    auto built = ShapleyEngine::Build(q, db, &token);
    if (!built.ok()) {
      EXPECT_TRUE(CancelToken::IsCancelled(built.error())) << built.error();
    }
    // Cancelled or not, a fresh uncancelled build over the same (untouched)
    // database reproduces the oracle bit for bit.
    auto retry = ShapleyEngine::Build(q, db);
    ASSERT_TRUE(retry.ok()) << retry.error();
    ShapleyEngine fresh = std::move(retry).value();
    EXPECT_EQ(fresh.AllValues(), oracle) << "check point " << k;
  }
}

TEST(CancelBatteryTest, CancelledSweepResumesBitIdenticalAtEveryThreadCount) {
  const CQ q = MustParseCQ(kHierarchicalQuery);
  const Database db = MakeHierarchicalDb(40);
  const std::vector<Rational> oracle = OracleValues(q, db);

  for (const size_t threads : kThreadCounts) {
    for (const uint64_t k : FuzzCheckPoints()) {
      auto built = ShapleyEngine::Build(q, db);
      ASSERT_TRUE(built.ok()) << built.error();
      ShapleyEngine engine = std::move(built).value();

      CancelToken token = CancelToken::AtCheck(k);
      ParallelOptions parallel;
      parallel.num_threads = threads;
      auto swept = engine.AllValues(parallel, &token);
      if (swept.ok()) {
        EXPECT_EQ(swept.value(), oracle)
            << "threads " << threads << " check " << k;
      } else {
        EXPECT_TRUE(CancelToken::IsCancelled(swept.error()))
            << swept.error();
      }
      // A cancelled valuation keeps nothing: the undeadlined retry
      // re-sweeps to the oracle values bit for bit.
      EXPECT_EQ(engine.AllValues(parallel), oracle)
          << "threads " << threads << " check " << k;
    }
  }
}

TEST(CancelBatteryTest, CancelledSamplingRunNeverPerturbsLaterValues) {
  const CQ q = MustParseCQ(kNonHierarchicalQuery);
  const Database db = MakeNonHierarchicalDb();

  ApproxSpec spec;
  spec.epsilon = 0.25;
  spec.delta = 0.1;
  spec.seed = 7;
  spec.max_samples = 64;

  for (const size_t threads : kThreadCounts) {
    // Oracle rows: a fresh engine, same spec and thread count, no token.
    auto fresh = ApproxEngine::Create(q, db, ApproxEngine::Options{});
    ASSERT_TRUE(fresh.ok()) << fresh.error();
    ApproxEngine oracle_engine = std::move(fresh).value();
    auto oracle = oracle_engine.EstimateAll(spec, threads);
    ASSERT_TRUE(oracle.ok()) << oracle.error();

    for (const uint64_t k : FuzzCheckPoints()) {
      auto created = ApproxEngine::Create(q, db, ApproxEngine::Options{});
      ASSERT_TRUE(created.ok()) << created.error();
      ApproxEngine engine = std::move(created).value();

      CancelToken token = CancelToken::AtCheck(k);
      auto sampled = engine.EstimateAll(spec, threads, &token);
      if (!sampled.ok()) {
        EXPECT_TRUE(CancelToken::IsCancelled(sampled.error()))
            << sampled.error();
      }
      // Whatever the cancelled run warmed in the coalition memo, a retry
      // on the same engine reproduces the oracle rows bit for bit.
      auto retry = engine.EstimateAll(spec, threads);
      ASSERT_TRUE(retry.ok()) << retry.error();
      ASSERT_EQ(retry.value().size(), oracle.value().size());
      for (size_t i = 0; i < oracle.value().size(); ++i) {
        EXPECT_EQ(retry.value()[i].estimate, oracle.value()[i].estimate)
            << "threads " << threads << " check " << k << " row " << i;
        EXPECT_EQ(retry.value()[i].ci_radius, oracle.value()[i].ci_radius);
        EXPECT_EQ(retry.value()[i].samples, oracle.value()[i].samples);
      }
    }
  }
}

TEST(CancelBatteryTest, ConcurrentRequestCancelStopsAParallelSweep) {
  // The cooperative flag flipped from outside the sweep (the socket-server
  // shape: another thread decides to cancel). Pre-cancelled here so the
  // outcome is deterministic; the point is the flag path, not the race.
  const CQ q = MustParseCQ(kHierarchicalQuery);
  const Database db = MakeHierarchicalDb(40);
  auto built = ShapleyEngine::Build(q, db);
  ASSERT_TRUE(built.ok()) << built.error();
  ShapleyEngine engine = std::move(built).value();

  CancelToken token;
  token.RequestCancel();
  ParallelOptions parallel;
  parallel.num_threads = 4;
  auto swept = engine.AllValues(parallel, &token);
  ASSERT_FALSE(swept.ok());
  EXPECT_TRUE(CancelToken::IsCancelled(swept.error()));
  EXPECT_EQ(engine.AllValues(parallel), OracleValues(q, db));
}

// ---------------------------------------------------------------------------
// Registry deadline semantics: the serving layer's consistency guarantees.
// ---------------------------------------------------------------------------

MutationSpec Insert(const std::string& literal) {
  auto parsed = ParseMutationLine("+ " + literal);
  SHAPCQ_CHECK_MSG(parsed.ok(), parsed.error().c_str());
  return std::move(parsed).value();
}

void LoadSession(EngineRegistry* registry, const std::string& id,
                 const Database& db) {
  for (size_t slot = 0; slot < db.fact_slot_count(); ++slot) {
    const FactId fact = static_cast<FactId>(slot);
    if (db.is_removed(fact)) continue;
    MutationSpec mutation;
    mutation.op = MutationSpec::Op::kInsert;
    mutation.fact.relation = db.schema().name(db.relation_of(fact));
    mutation.fact.tuple = db.tuple_of(fact);
    mutation.fact.endogenous = db.is_endogenous(fact);
    auto applied = registry->ApplyMutation(id, mutation);
    ASSERT_TRUE(applied.ok()) << applied.error();
  }
}

void ExpectSameRows(const AttributionReport& got,
                    const AttributionReport& want) {
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (size_t i = 0; i < want.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i].fact, want.rows[i].fact) << i;
    EXPECT_EQ(got.rows[i].value, want.rows[i].value) << i;
  }
  EXPECT_EQ(got.total, want.total);
}

TEST(DeadlineRegistryTest, AlreadyExpiredTokenFailsFastAndLeavesNoResidue) {
  const CQ q = MustParseCQ(kHierarchicalQuery);
  const Database db = MakeHierarchicalDb(20);
  EngineRegistry registry;
  ASSERT_TRUE(registry.Open("s", q).ok());
  LoadSession(&registry, "s", db);

  CancelToken token = CancelToken::AfterMillis(0);
  ReportOptions expired;
  expired.cancel = &token;
  auto report = registry.Report("s", expired);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error(), DeadlineExceededMessage(0));

  // Fast path: the expiry was noticed before any build — no engine, no
  // build counted, the deadline counted once, globally and per session.
  EXPECT_EQ(registry.stats().deadline_exceeded, 1u);
  EXPECT_EQ(registry.stats().degraded_to_approx, 0u);
  EXPECT_EQ(registry.stats().engine_builds, 0u);
  EXPECT_FALSE(registry.Stats("s").value().engine_resident);
  EXPECT_EQ(registry.Stats("s").value().deadline_exceeded, 1u);

  // The undeadlined retry is bit-identical to a fresh oracle.
  auto retry = registry.Report("s", ReportOptions{});
  ASSERT_TRUE(retry.ok()) << retry.error();
  auto oracle = BuildAttributionReport(q, db, ReportOptions{});
  ASSERT_TRUE(oracle.ok()) << oracle.error();
  ExpectSameRows(retry.value(), oracle.value());
}

TEST(DeadlineRegistryTest, ExpiredExactReportDegradesToApproxWhenAsked) {
  const CQ q = MustParseCQ(kHierarchicalQuery);
  const Database db = MakeHierarchicalDb(20);
  EngineRegistry registry;
  ASSERT_TRUE(registry.Open("s", q).ok());
  LoadSession(&registry, "s", db);

  CancelToken token = CancelToken::AtCheck(1);
  ReportOptions degrade;
  degrade.cancel = &token;
  degrade.on_deadline = OnDeadline::kApprox;
  auto report = registry.Report("s", degrade);
  ASSERT_TRUE(report.ok()) << report.error();
  EXPECT_TRUE(report.value().approximate);
  EXPECT_FALSE(report.value().rows.empty());

  EXPECT_EQ(registry.stats().deadline_exceeded, 1u);
  EXPECT_EQ(registry.stats().degraded_to_approx, 1u);
  EXPECT_EQ(registry.stats().approx_reports, 1u);
  // Never cached: the degraded table is a deadline artifact, not a
  // requested approx spec.
  EXPECT_EQ(registry.stats().cached_approx_tables, 0u);

  auto retry = registry.Report("s", ReportOptions{});
  ASSERT_TRUE(retry.ok()) << retry.error();
  auto oracle = BuildAttributionReport(q, db, ReportOptions{});
  ASSERT_TRUE(oracle.ok()) << oracle.error();
  ExpectSameRows(retry.value(), oracle.value());
}

TEST(DeadlineRegistryTest, CancelledSweepKeepsEngineAccountingConsistent) {
  const CQ q = MustParseCQ(kHierarchicalQuery);
  const Database db = MakeHierarchicalDb(20);
  EngineRegistry registry;
  ASSERT_TRUE(registry.Open("s", q).ok());
  LoadSession(&registry, "s", db);

  // Make the engine resident and the cache warm, then invalidate the cache
  // with one more delta so the next report re-sweeps on the warm engine.
  ASSERT_TRUE(registry.Report("s", ReportOptions{}).ok());
  ASSERT_TRUE(registry.ApplyMutation("s", Insert("Reg(s1,late)*")).ok());

  // AtCheck(2): poll #1 is BuildAttributionReport's entry poll (passes),
  // poll #2 is the value sweep's first poll — a cancellation mid-report on
  // a resident engine, deterministically.
  CancelToken token = CancelToken::AtCheck(2);
  ReportOptions cancelled;
  cancelled.cancel = &token;
  auto report = registry.Report("s", cancelled);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error(), DeadlineExceededMessage(0));

  // Consistency after the cancelled sweep: the engine stays resident with a
  // refreshed (non-zero) byte estimate — the stripe accounting was
  // re-enforced on the error path, not skipped.
  auto session = registry.Stats("s");
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session.value().engine_resident);
  EXPECT_GT(session.value().engine_bytes, 0u);
  EXPECT_EQ(session.value().deadline_exceeded, 1u);

  // And the next undeadlined report is bit-identical to a fresh engine over
  // the mutated database.
  auto retry = registry.Report("s", ReportOptions{});
  ASSERT_TRUE(retry.ok()) << retry.error();
  auto oracle =
      BuildAttributionReport(q, *registry.FindDatabase("s"), ReportOptions{});
  ASSERT_TRUE(oracle.ok()) << oracle.error();
  ExpectSameRows(retry.value(), oracle.value());
}

TEST(DeadlineRegistryTest, CancelledFirstBuildLeavesNothingResident) {
  const CQ q = MustParseCQ(kHierarchicalQuery);
  const Database db = MakeHierarchicalDb(20);
  EngineRegistry registry;
  ASSERT_TRUE(registry.Open("s", q).ok());
  LoadSession(&registry, "s", db);

  // AtCheck(2): past BuildAttributionReport's entry poll, into the build
  // recursion.
  CancelToken token = CancelToken::AtCheck(2);
  ReportOptions cancelled;
  cancelled.cancel = &token;
  auto report = registry.Report("s", cancelled);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error(), DeadlineExceededMessage(0));

  // The partial build was discarded whole: nothing resident, nothing in
  // the byte accounting, and the session still reports clean.
  auto session = registry.Stats("s");
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(session.value().engine_resident);
  EXPECT_EQ(session.value().engine_bytes, 0u);
  EXPECT_EQ(registry.stats().resident_bytes, 0u);

  auto retry = registry.Report("s", ReportOptions{});
  ASSERT_TRUE(retry.ok()) << retry.error();
  auto oracle = BuildAttributionReport(q, db, ReportOptions{});
  ASSERT_TRUE(oracle.ok()) << oracle.error();
  ExpectSameRows(retry.value(), oracle.value());
}

TEST(DeadlineRegistryTest, ApproxTierDeadlineIsTerminalNoDegradation) {
  const CQ q = MustParseCQ(kNonHierarchicalQuery);
  const Database db = MakeNonHierarchicalDb();
  EngineRegistry registry;
  auto opened = registry.Open("s", q);
  ASSERT_TRUE(opened.ok()) << opened.error();
  EXPECT_FALSE(opened.value());  // approx-only session
  LoadSession(&registry, "s", db);

  CancelToken token = CancelToken::AtCheck(1);
  ReportOptions options;
  options.approx.epsilon = 0.25;
  options.approx.delta = 0.1;
  options.cancel = &token;
  options.on_deadline = OnDeadline::kApprox;  // must NOT rescue the sampler
  auto report = registry.Report("s", options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error(), DeadlineExceededMessage(0));
  EXPECT_EQ(registry.stats().deadline_exceeded, 1u);
  EXPECT_EQ(registry.stats().degraded_to_approx, 0u);

  // The undeadlined sampling retry still reproduces bit-identically.
  ReportOptions plain;
  plain.approx = options.approx;
  auto retry = registry.Report("s", plain);
  ASSERT_TRUE(retry.ok()) << retry.error();
  EXPECT_TRUE(retry.value().approximate);
}

TEST(DeadlineRegistryTest, InflightGaugeIsZeroBetweenRequests) {
  const CQ q = MustParseCQ(kHierarchicalQuery);
  EngineRegistry registry;
  ASSERT_TRUE(registry.Open("s", q).ok());
  ASSERT_TRUE(registry.ApplyMutation("s", Insert("Stud(a)")).ok());
  ASSERT_TRUE(registry.ApplyMutation("s", Insert("Reg(a,os)*")).ok());
  EXPECT_EQ(registry.stats().inflight, 0u);
  ASSERT_TRUE(registry.Report("s", ReportOptions{}).ok());
  EXPECT_EQ(registry.stats().inflight, 0u);

  // Deadline outcomes decrement the gauge on their error paths too. The
  // delta makes the cached table stale: a current one is served without
  // consulting the deadline.
  ASSERT_TRUE(registry.ApplyMutation("s", Insert("Reg(a,db)*")).ok());
  CancelToken token = CancelToken::AfterMillis(0);
  ReportOptions expired;
  expired.cancel = &token;
  ASSERT_FALSE(registry.Report("s", expired).ok());
  EXPECT_EQ(registry.stats().inflight, 0u);
}

TEST(DeadlineRegistryTest, DeadlineMillisBudgetMapsIntoTheErrorPayload) {
  // A real millisecond budget (not a caller token): an already-huge-looking
  // budget never fires; a zero-work session under a 1 ms budget may or may
  // not fire, but the payload must carry the budget when it does.
  const CQ q = MustParseCQ(kHierarchicalQuery);
  const Database db = MakeHierarchicalDb(20);
  EngineRegistry registry;
  ASSERT_TRUE(registry.Open("s", q).ok());
  LoadSession(&registry, "s", db);

  ReportOptions generous;
  generous.deadline_ms = 60 * 1000;
  auto report = registry.Report("s", generous);
  ASSERT_TRUE(report.ok()) << report.error();

  auto oracle = BuildAttributionReport(q, db, ReportOptions{});
  ASSERT_TRUE(oracle.ok()) << oracle.error();
  ExpectSameRows(report.value(), oracle.value());
  EXPECT_EQ(registry.stats().deadline_exceeded, 0u);
}

}  // namespace
}  // namespace shapcq
