// Attribution reports: engine selection, ranking, rendering.

#include "core/report.h"

#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/exoshap.h"
#include "core/shapley_engine.h"
#include "datasets/citations.h"
#include "datasets/university.h"
#include "support/report_reference.h"
#include "util/cancel.h"

namespace shapcq {
namespace {

// The report's table at top_k 0 and 3 equals the reference assembly of the
// engine's own values: the numerators over n!, their integer ranking and
// the total must reproduce the Rational sum and Rational::Compare sort.
void ExpectMatchesReference(const CQ& q, const Database& db,
                            ReportOptions options, const std::string& engine,
                            const std::vector<Rational>& values) {
  for (size_t top_k : {size_t{0}, size_t{3}}) {
    options.top_k = top_k;
    auto report = BuildAttributionReport(q, db, options);
    ASSERT_TRUE(report.ok()) << report.error();
    ExpectSameReport(report.value(),
                     ReferenceReport(engine, db, values, top_k), db,
                     engine + ", top_k=" + std::to_string(top_k));
  }
}

TEST(ReportTest, HierarchicalUsesCntSat) {
  UniversityDb u = BuildUniversityDb();
  auto report = BuildAttributionReport(UniversityQ1(), u.db, {});
  ASSERT_TRUE(report.ok()) << report.error();
  EXPECT_EQ(report.value().engine, "CntSat");
  EXPECT_EQ(report.value().total, Rational(1));
  ASSERT_EQ(report.value().rows.size(), 8u);
  // Sorted descending: the Caroline registrations (13/42) first, TA(Adam)
  // (-3/28) last.
  EXPECT_EQ(report.value().rows.front().value, Rational::Of(13, 42));
  EXPECT_EQ(report.value().rows.back().value, Rational::Of(-3, 28));
}

TEST(ReportTest, ExoShapSelectedWhenNeeded) {
  Database db = BuildSmallCitationsDb();
  ReportOptions options;
  options.exo = CitationsExoRelations();
  auto report = BuildAttributionReport(CitationsQuery(), db, options);
  ASSERT_TRUE(report.ok()) << report.error();
  EXPECT_EQ(report.value().engine, "ExoShap");
  auto values = ExoShapShapleyAll(CitationsQuery(), db, options.exo);
  ASSERT_TRUE(values.ok()) << values.error();
  ExpectMatchesReference(CitationsQuery(), db, options, "ExoShap",
                         values.value());
}

TEST(ReportTest, RefusesHardQueryByDefault) {
  UniversityDb u = BuildUniversityDb();
  auto report = BuildAttributionReport(UniversityQ2(), u.db, {});
  EXPECT_FALSE(report.ok());
}

TEST(ReportTest, BruteForceFallbackWhenAllowed) {
  UniversityDb u = BuildUniversityDb();
  ReportOptions options;
  options.allow_brute_force = true;
  auto report = BuildAttributionReport(UniversityQ2(), u.db, options);
  ASSERT_TRUE(report.ok()) << report.error();
  EXPECT_EQ(report.value().engine, "brute-force");
  std::vector<Rational> values;
  for (FactId f : u.db.endogenous_facts()) {
    values.push_back(ShapleyBruteForce(UniversityQ2(), u.db, f));
  }
  ExpectMatchesReference(UniversityQ2(), u.db, options, "brute-force",
                         values);
}

TEST(ReportTest, BruteForceRespectsLimit) {
  UniversityDb u = BuildUniversityDb();
  ReportOptions options;
  options.allow_brute_force = true;
  options.brute_force_limit = 4;  // |Dn| = 8 exceeds it
  EXPECT_FALSE(BuildAttributionReport(UniversityQ2(), u.db, options).ok());
}

// The resident-engine slot of the CntSat tier: built into when empty,
// served from when engaged, emptied by nothing, and only ever filled by a
// finished build.
TEST(ReportTest, EngineSlotIsBuiltIntoAndKeepsCancelledSweeps) {
  UniversityDb u = BuildUniversityDb();
  const CQ q = UniversityQ1();
  auto slotless = BuildAttributionReport(q, u.db, {});
  ASSERT_TRUE(slotless.ok()) << slotless.error();
  AttributionReport want = slotless.value();
  want.engine = "CntSat (incremental)";

  // AtCheck(2): the entry poll passes, the build's first step cancels, and
  // the unfinished engine never enters the slot.
  std::optional<ShapleyEngine> slot;
  CancelToken build_token = CancelToken::AtCheck(2);
  ReportOptions cancelled;
  cancelled.cancel = &build_token;
  auto expired = BuildAttributionReport(q, u.db, cancelled, &slot);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.error(), DeadlineExceededMessage(0));
  EXPECT_FALSE(slot.has_value());

  auto built = BuildAttributionReport(q, u.db, {}, &slot);
  ASSERT_TRUE(built.ok()) << built.error();
  ASSERT_TRUE(slot.has_value());
  ExpectSameReport(built.value(), want, u.db, "built into the slot");

  // On an engaged slot after a mutation, AtCheck(2) cancels at the sweep's
  // first poll: the engine stays, and the undeadlined retry on it equals a
  // fresh report of the mutated database.
  ASSERT_TRUE(slot->InsertFact(u.db, "Reg", {V("David"), V("DB")}, true).ok());
  CancelToken sweep_token = CancelToken::AtCheck(2);
  cancelled.cancel = &sweep_token;
  expired = BuildAttributionReport(q, u.db, cancelled, &slot);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.error(), DeadlineExceededMessage(0));
  ASSERT_TRUE(slot.has_value());
  auto retry = BuildAttributionReport(q, u.db, {}, &slot);
  ASSERT_TRUE(retry.ok()) << retry.error();
  auto fresh = BuildAttributionReport(q, u.db, {});
  ASSERT_TRUE(fresh.ok()) << fresh.error();
  want = fresh.value();
  want.engine = "CntSat (incremental)";
  ExpectSameReport(retry.value(), want, u.db, "retry after the mutation");
}

TEST(ReportTest, EngineSlotIsLeftAloneBySampling) {
  UniversityDb u = BuildUniversityDb();
  const CQ q = UniversityQ1();

  // An expired token degrades before any build.
  std::optional<ShapleyEngine> slot;
  CancelToken token = CancelToken::AfterMillis(0);
  ReportOptions degrade;
  degrade.cancel = &token;
  degrade.on_deadline = OnDeadline::kApprox;
  auto degraded = BuildAttributionReport(q, u.db, degrade, &slot);
  ASSERT_TRUE(degraded.ok()) << degraded.error();
  EXPECT_TRUE(degraded.value().approximate);
  EXPECT_EQ(degraded.value().engine, "approx-fpras");
  EXPECT_FALSE(slot.has_value());

  // Forced sampling neither fills an empty slot nor reads an engaged one
  // (an engine's orbit count stays 0 until something asks for its values).
  ReportOptions forced;
  forced.approx.epsilon = 0.25;
  forced.approx.delta = 0.1;
  forced.approx.force = true;
  auto sampled = BuildAttributionReport(q, u.db, forced, &slot);
  ASSERT_TRUE(sampled.ok()) << sampled.error();
  EXPECT_TRUE(sampled.value().approximate);
  EXPECT_FALSE(slot.has_value());
  slot.emplace(ShapleyEngine::Build(q, u.db).value());
  sampled = BuildAttributionReport(q, u.db, forced, &slot);
  ASSERT_TRUE(sampled.ok()) << sampled.error();
  EXPECT_TRUE(sampled.value().approximate);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(slot->stats().orbit_count, 0u);
}

TEST(ReportTest, RenderContainsFactsAndEngine) {
  UniversityDb u = BuildUniversityDb();
  auto report = BuildAttributionReport(UniversityQ1(), u.db, {});
  const std::string text = RenderReport(report.value(), u.db);
  EXPECT_NE(text.find("engine: CntSat"), std::string::npos);
  EXPECT_NE(text.find("Reg(Caroline,DB)*"), std::string::npos);
  EXPECT_NE(text.find("13/42"), std::string::npos);
  EXPECT_NE(text.find("total"), std::string::npos);
}

// Splits rendered text into lines, asserting it ends with a newline.
std::vector<std::string> Lines(const std::string& text) {
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t end = text.find('\n'); end != std::string::npos;
       end = text.find('\n', start)) {
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// Exact values at a few hundred endogenous facts run to hundreds of digits;
// every row must still come out whole: the value, its decimal column (and,
// on approx reports, the ci and sample columns) and its own newline. The
// rows are valued A, A, B, A: a value is formatted once per run of equal
// rows, so the last row's A must be formatted again after B.
TEST(ReportTest, RenderKeepsRowsLongerThanTwoHundredCharacters) {
  Database db;
  // (10^210 + 7) / 10^210 and (2·10^210 + 9) / 10^210: 423 characters
  // each, ~decimal 1.0000 and 2.0000.
  const BigInt power = BigInt::FromString("1" + std::string(210, '0'));
  const Rational value_a(power + BigInt(7), power);
  const Rational value_b(power + power + BigInt(9), power);
  ASSERT_GT(value_a.ToString().size(), 200u);
  ASSERT_GT(value_b.ToString().size(), 200u);

  struct Expected {
    std::string fact;
    const Rational* value;
    std::string decimal;
  };
  const std::vector<Expected> expected = {{"R(a)*", &value_a, "1.0000"},
                                          {"R(b)*", &value_a, "1.0000"},
                                          {"R(c)*", &value_b, "2.0000"},
                                          {"R(d)*", &value_a, "1.0000"}};
  AttributionReport report;
  report.engine = "CntSat";
  for (const Expected& want : expected) {
    Attribution row;
    row.fact = db.AddEndo("R", {V(want.fact.substr(2, 1))});
    row.value = *want.value;
    row.ci_radius = 0.5;
    row.samples = 12;
    report.rows.push_back(row);
    report.total += row.value;
  }

  const std::vector<std::string> exact = Lines(RenderReport(report, db));
  ASSERT_EQ(exact.size(), 7u);  // engine, header, four rows, total
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(exact[2 + i], expected[i].fact + std::string(26, ' ') +
                                expected[i].value->ToString() + "     " +
                                expected[i].decimal)
        << "row " << i;
  }
  EXPECT_EQ(exact[6], "total                          " +
                          report.total.ToString());

  report.approximate = true;
  report.approx.orbit_source = "signature";
  const std::vector<std::string> approx = Lines(RenderReport(report, db));
  ASSERT_EQ(approx.size(), 8u);  // engine, approx:, header, four rows, total
  for (size_t i = 0; i < expected.size(); ++i) {
    const std::string suffix = expected[i].value->ToString() + "     " +
                               expected[i].decimal + "     0.5000        12";
    ASSERT_GE(approx[3 + i].size(), suffix.size());
    EXPECT_EQ(approx[3 + i].substr(0, 5), expected[i].fact) << "row " << i;
    EXPECT_EQ(approx[3 + i].substr(approx[3 + i].size() - suffix.size()),
              suffix)
        << "row " << i;
  }
}

}  // namespace
}  // namespace shapcq
