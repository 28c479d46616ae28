// The exact attribution table assembled the plain way, as the oracle of
// core/report's assembly on numerators over n!: rows in endo-index order,
// the total as a Rational sum of every value, and a stable sort by
// Rational::Compare (descending, ties in endo-index order) cut to top_k.

#ifndef SHAPCQ_TESTS_SUPPORT_REPORT_REFERENCE_H_
#define SHAPCQ_TESTS_SUPPORT_REPORT_REFERENCE_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/report.h"

namespace shapcq {

/// The reference table for exact `values` (endo-index order).
inline AttributionReport ReferenceReport(const std::string& engine,
                                         const Database& db,
                                         const std::vector<Rational>& values,
                                         size_t top_k) {
  AttributionReport report;
  report.engine = engine;
  for (FactId f : db.endogenous_facts()) {
    Attribution row;
    row.fact = f;
    row.value = values[db.endo_index(f)];
    report.total += row.value;
    report.rows.push_back(row);
  }
  std::stable_sort(report.rows.begin(), report.rows.end(),
                   [](const Attribution& a, const Attribution& b) {
                     return Rational::Compare(b.value, a.value) < 0;
                   });
  if (top_k > 0 && report.rows.size() > top_k) report.rows.resize(top_k);
  return report;
}

/// Same engine label, total and rows (fact and exact value, in order), and
/// byte-identical renderings.
inline void ExpectSameReport(const AttributionReport& got,
                             const AttributionReport& want,
                             const Database& db, const std::string& where) {
  EXPECT_EQ(got.engine, want.engine) << where;
  EXPECT_EQ(got.total, want.total) << where;
  ASSERT_EQ(got.rows.size(), want.rows.size()) << where;
  for (size_t i = 0; i < got.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i].fact, want.rows[i].fact) << where << ", row " << i;
    EXPECT_EQ(got.rows[i].value, want.rows[i].value)
        << where << ", row " << i;
  }
  EXPECT_EQ(RenderReport(got, db), RenderReport(want, db)) << where;
}

}  // namespace shapcq

#endif  // SHAPCQ_TESTS_SUPPORT_REPORT_REFERENCE_H_
