// EngineRegistry semantics: lazy engine builds, LRU eviction under byte and
// count budgets, rebuild-on-readmission equivalence, and the memory
// accounting hook feeding the byte budget.

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/report.h"
#include "core/shapley_engine.h"
#include "datasets/university.h"
#include "db/textio.h"
#include "query/parser.h"
#include "service/engine_registry.h"
#include "util/random.h"

namespace shapcq {
namespace {

MutationSpec Insert(const std::string& literal) {
  auto parsed = ParseMutationLine("+ " + literal);
  SHAPCQ_CHECK_MSG(parsed.ok(), parsed.error().c_str());
  return std::move(parsed).value();
}

MutationSpec Delete(const std::string& literal) {
  auto parsed = ParseMutationLine("- " + literal);
  SHAPCQ_CHECK_MSG(parsed.ok(), parsed.error().c_str());
  return std::move(parsed).value();
}

// Loads every fact of `db` into the session as insert mutations.
void LoadDatabase(EngineRegistry* registry, const std::string& id,
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

TEST(EngineRegistryTest, LazyBuildAndHitMissCounters) {
  EngineRegistry registry;
  ASSERT_TRUE(registry.Open("s1", MustParseCQ("q() :- R(x)")).ok());
  ASSERT_TRUE(registry.ApplyMutation("s1", Insert("R(a)*")).ok());
  EXPECT_FALSE(registry.Stats("s1").value().engine_resident);

  ASSERT_TRUE(registry.Report("s1", ReportOptions{}).ok());
  EXPECT_TRUE(registry.Stats("s1").value().engine_resident);
  EXPECT_EQ(registry.stats().report_misses, 1u);
  EXPECT_EQ(registry.stats().report_hits, 0u);

  ASSERT_TRUE(registry.Report("s1", ReportOptions{}).ok());
  EXPECT_EQ(registry.stats().report_misses, 1u);
  EXPECT_EQ(registry.stats().report_hits, 1u);
  EXPECT_EQ(registry.stats().engine_builds, 1u);
}

TEST(EngineRegistryTest, ReportMatchesFreshEngineExactly) {
  UniversityDb u = BuildUniversityDb();
  const CQ q = UniversityQ1();
  EngineRegistry registry;
  ASSERT_TRUE(registry.Open("uni", q).ok());
  LoadDatabase(&registry, "uni", u.db);

  auto report = registry.Report("uni", ReportOptions{});
  ASSERT_TRUE(report.ok()) << report.error();
  // The registry's database was built by replaying inserts, so its rendering
  // must match a report over the original database verbatim.
  auto fresh = BuildAttributionReport(q, u.db, ReportOptions{});
  ASSERT_TRUE(fresh.ok()) << fresh.error();
  ASSERT_EQ(report.value().rows.size(), fresh.value().rows.size());
  for (size_t i = 0; i < fresh.value().rows.size(); ++i) {
    EXPECT_EQ(report.value().rows[i].value, fresh.value().rows[i].value) << i;
  }
  EXPECT_EQ(report.value().total, fresh.value().total);
  EXPECT_EQ(RenderReport(report.value(), *registry.FindDatabase("uni"))
                .substr(std::string("engine: CntSat (incremental)\n").size()),
            RenderReport(fresh.value(), u.db)
                .substr(std::string("engine: CntSat\n").size()));
}

TEST(EngineRegistryTest, ApproxMemoryBytesIsPositiveAndGrows) {
  UniversityDb u = BuildUniversityDb();
  const CQ q = UniversityQ1();
  auto small = ShapleyEngine::Build(q, u.db);
  ASSERT_TRUE(small.ok());
  const size_t small_bytes = small.value().ApproxMemoryBytes();
  EXPECT_GT(small_bytes, 0u);

  // A bigger database must yield a bigger index estimate.
  Database big = MustParseDatabase(u.db.ToString());
  for (int i = 0; i < 40; ++i) {
    big.AddEndo("Reg", {V("extra" + std::to_string(i)), V("OS")});
    big.AddExo("Stud", {V("extra" + std::to_string(i))});
  }
  auto grown = ShapleyEngine::Build(q, big);
  ASSERT_TRUE(grown.ok());
  EXPECT_GT(grown.value().ApproxMemoryBytes(), small_bytes);
}

TEST(EngineRegistryTest, ByteBudgetEvictsLeastRecentlyUsed) {
  UniversityDb u = BuildUniversityDb();
  const CQ q = UniversityQ1();
  // Budget sized to hold ~one university engine, never two. The probe is
  // queried first so its estimate includes the lazily built context tables
  // a served engine carries.
  auto built = ShapleyEngine::Build(q, u.db);
  ASSERT_TRUE(built.ok());
  ShapleyEngine probe = std::move(built).value();
  probe.AllValues();
  RegistryOptions options;
  options.engine_byte_budget = probe.ApproxMemoryBytes() * 3 / 2;

  EngineRegistry registry(options);
  ASSERT_TRUE(registry.Open("a", q).ok());
  ASSERT_TRUE(registry.Open("b", q).ok());
  LoadDatabase(&registry, "a", u.db);
  LoadDatabase(&registry, "b", u.db);

  ASSERT_TRUE(registry.Report("a", ReportOptions{}).ok());
  EXPECT_TRUE(registry.Stats("a").value().engine_resident);
  ASSERT_TRUE(registry.Report("b", ReportOptions{}).ok());
  // b's build pushed the registry over budget: a (the LRU engine) went.
  EXPECT_FALSE(registry.Stats("a").value().engine_resident);
  EXPECT_TRUE(registry.Stats("b").value().engine_resident);
  EXPECT_EQ(registry.stats().evictions, 1u);
  EXPECT_LE(registry.stats().resident_bytes, options.engine_byte_budget);

  // Readmitting a rebuilds (a miss) and evicts b in turn.
  ASSERT_TRUE(registry.Report("a", ReportOptions{}).ok());
  EXPECT_TRUE(registry.Stats("a").value().engine_resident);
  EXPECT_FALSE(registry.Stats("b").value().engine_resident);
  EXPECT_EQ(registry.stats().report_misses, 3u);
  EXPECT_EQ(registry.stats().evictions, 2u);
  EXPECT_EQ(registry.Stats("a").value().engine_builds, 2u);
}

TEST(EngineRegistryTest, MaxResidentCapEvictsDeterministically) {
  EngineRegistry registry([] {
    RegistryOptions options;
    options.max_resident_engines = 2;
    return options;
  }());
  const CQ q = MustParseCQ("q() :- R(x)");
  for (const char* id : {"a", "b", "c"}) {
    ASSERT_TRUE(registry.Open(id, q).ok());
    ASSERT_TRUE(
        registry.ApplyMutation(id, Insert(std::string("R(") + id + ")*"))
            .ok());
    ASSERT_TRUE(registry.Report(id, ReportOptions{}).ok());
  }
  // c's build evicted a (LRU); b stayed.
  EXPECT_FALSE(registry.Stats("a").value().engine_resident);
  EXPECT_TRUE(registry.Stats("b").value().engine_resident);
  EXPECT_TRUE(registry.Stats("c").value().engine_resident);
  EXPECT_EQ(registry.stats().resident_engines, 2u);
  EXPECT_EQ(registry.stats().evictions, 1u);

  // Touching b (a report hit) protects it; reporting a next evicts c.
  ASSERT_TRUE(registry.Report("c", ReportOptions{}).ok());
  ASSERT_TRUE(registry.Report("b", ReportOptions{}).ok());
  ASSERT_TRUE(registry.Report("a", ReportOptions{}).ok());
  EXPECT_TRUE(registry.Stats("a").value().engine_resident);
  EXPECT_TRUE(registry.Stats("b").value().engine_resident);
  EXPECT_FALSE(registry.Stats("c").value().engine_resident);
}

TEST(EngineRegistryTest, EvictedSessionAbsorbsDeltasAndRebuildsIdentically) {
  UniversityDb u = BuildUniversityDb();
  const CQ q = UniversityQ1();

  // warm: never evicted, every delta patches the engine incrementally.
  // cold: an always-over-budget registry, engine evicted after each request.
  EngineRegistry warm;
  RegistryOptions tiny;
  tiny.engine_byte_budget = 1;
  EngineRegistry cold(tiny);
  for (EngineRegistry* registry : {&warm, &cold}) {
    ASSERT_TRUE(registry->Open("s", q).ok());
    LoadDatabase(registry, "s", u.db);
    ASSERT_TRUE(registry->Report("s", ReportOptions{}).ok());
  }
  EXPECT_TRUE(warm.Stats("s").value().engine_resident);
  EXPECT_FALSE(cold.Stats("s").value().engine_resident);
  EXPECT_EQ(cold.stats().evictions, 1u);

  const std::vector<MutationSpec> mutations = {
      Insert("Reg(Eve,OS)*"), Insert("Stud(Eve)"),   Delete("TA(Adam)"),
      Insert("TA(Eve)*"),     Delete("Reg(Ben,OS)"), Insert("Reg(Ben,AI)*"),
  };
  for (const MutationSpec& mutation : mutations) {
    ASSERT_TRUE(warm.ApplyMutation("s", mutation).ok());
    ASSERT_TRUE(cold.ApplyMutation("s", mutation).ok());
    auto warm_report = warm.Report("s", ReportOptions{});
    auto cold_report = cold.Report("s", ReportOptions{});
    ASSERT_TRUE(warm_report.ok()) << warm_report.error();
    ASSERT_TRUE(cold_report.ok()) << cold_report.error();
    // Same ranked table, bit-identical, whether served warm or rebuilt.
    EXPECT_EQ(RenderReport(warm_report.value(), *warm.FindDatabase("s")),
              RenderReport(cold_report.value(), *cold.FindDatabase("s")));
  }
  // The warm engine really was incremental (one build), the cold one never
  // survived between requests (one build per report).
  EXPECT_EQ(warm.Stats("s").value().engine_builds, 1u);
  EXPECT_EQ(cold.Stats("s").value().engine_builds,
            1u + mutations.size());
}

TEST(EngineRegistryTest, CloseFreesResidencyWithoutCountingEviction) {
  EngineRegistry registry;
  const CQ q = MustParseCQ("q() :- R(x)");
  ASSERT_TRUE(registry.Open("s", q).ok());
  ASSERT_TRUE(registry.ApplyMutation("s", Insert("R(a)*")).ok());
  ASSERT_TRUE(registry.Report("s", ReportOptions{}).ok());
  EXPECT_EQ(registry.stats().resident_engines, 1u);
  ASSERT_TRUE(registry.Close("s").ok());
  EXPECT_EQ(registry.stats().resident_engines, 0u);
  EXPECT_EQ(registry.stats().resident_bytes, 0u);
  EXPECT_EQ(registry.stats().evictions, 0u);
  EXPECT_EQ(registry.stats().open_sessions, 0u);
  EXPECT_FALSE(registry.Has("s"));
  EXPECT_EQ(registry.FindDatabase("s"), nullptr);
  // The id is reusable after close.
  EXPECT_TRUE(registry.Open("s", q).ok());
}

TEST(EngineRegistryTest, SessionIdsKeepOpenOrder) {
  EngineRegistry registry;
  const CQ q = MustParseCQ("q() :- R(x)");
  ASSERT_TRUE(registry.Open("z", q).ok());
  ASSERT_TRUE(registry.Open("a", q).ok());
  ASSERT_TRUE(registry.Open("m", q).ok());
  EXPECT_EQ(registry.SessionIds(),
            (std::vector<std::string>{"z", "a", "m"}));
  ASSERT_TRUE(registry.Close("a").ok());
  EXPECT_EQ(registry.SessionIds(), (std::vector<std::string>{"z", "m"}));
}

TEST(EngineRegistryTest, MutationPathEnforcesByteBudgetAmortized) {
  // Regression: the byte budget used to be enforced only inside Report(),
  // so a burst of deltas to a resident engine grew resident_bytes
  // arbitrarily far past the budget until the next report. Now the
  // estimate refreshes (and evicts) on the mutation path, every
  // refresh_every_deltas deltas.
  const CQ q = MustParseCQ("q() :- R(x)");
  auto grow = [](EngineRegistry* registry, size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      auto applied = registry->ApplyMutation(
          "s", Insert("R(f" + std::to_string(i) + ")*"));
      ASSERT_TRUE(applied.ok()) << applied.error();
    }
  };

  // Phase 1: measure the engine's size at 2 facts on an unlimited
  // registry (byte estimates are platform-dependent; never hardcode).
  size_t small_bytes = 0;
  {
    EngineRegistry probe;
    ASSERT_TRUE(probe.Open("s", q).ok());
    grow(&probe, 0, 2);
    ASSERT_TRUE(probe.Report("s", ReportOptions{}).ok());
    small_bytes = probe.Stats("s").value().engine_bytes;
    ASSERT_GT(small_bytes, 0u);
  }

  // Phase 2: a budget that admits the 2-fact engine but not a much
  // larger one. The delta burst alone must trigger the eviction.
  RegistryOptions options;
  options.engine_byte_budget = small_bytes;
  options.refresh_every_deltas = 8;
  EngineRegistry registry(options);
  ASSERT_TRUE(registry.Open("s", q).ok());
  grow(&registry, 0, 2);
  ASSERT_TRUE(registry.Report("s", ReportOptions{}).ok());
  ASSERT_TRUE(registry.Stats("s").value().engine_resident);
  ASSERT_EQ(registry.stats().evictions, 0u);

  grow(&registry, 2, 66);  // no REPORT in this burst

  EXPECT_FALSE(registry.Stats("s").value().engine_resident);
  EXPECT_GE(registry.stats().evictions, 1u);
  EXPECT_EQ(registry.stats().resident_bytes, 0u);

  // The evicted session still absorbed everything and reports correctly.
  auto report = registry.Report("s", ReportOptions{});
  ASSERT_TRUE(report.ok()) << report.error();
  EXPECT_EQ(report.value().rows.size(), 66u);
}

TEST(EngineRegistryTest, StationarySwapsStayInsideTheByteBudget) {
  // A session whose shape never changes must stay inside a budget it fits
  // at its steady shape: 24 q1 students, each with 1-3 registrations and a
  // spare course, swap a registration for the spare, with a REPORT after
  // every swap.
  struct Student {
    std::string name;
    std::vector<std::string> regs;
    std::string spare;
  };
  std::vector<Student> students(24);
  for (size_t i = 0; i < students.size(); ++i) {
    students[i].name = "s" + std::to_string(i);
    for (size_t t = 0; t <= 1 + i % 3; ++t) {
      students[i].regs.push_back("c" + std::to_string((i + t) % 7));
    }
    students[i].spare = students[i].regs.back();
    students[i].regs.pop_back();
  }
  const auto reg = [](const Student& student, const std::string& course) {
    return "Reg(" + student.name + "," + course + ")*";
  };
  const auto apply = [](EngineRegistry* registry, const MutationSpec& delta) {
    auto applied = registry->ApplyMutation("s", delta);
    ASSERT_TRUE(applied.ok()) << applied.error();
  };
  // The facts, a first report (the build), then every spare inserted and
  // deleted once, so the engine holds a leaf for every fact a swap can
  // insert, and a report on that steady shape.
  const auto load = [&](EngineRegistry* registry) {
    ASSERT_TRUE(registry->Open("s", UniversityQ1()).ok());
    for (size_t i = 0; i < students.size(); ++i) {
      const Student& student = students[i];
      const std::string star = i % 4 == 1 ? "*" : "";
      apply(registry, Insert("Stud(" + student.name + ")" + star));
      if (i % 5 == 0 || i % 5 == 2) {
        apply(registry, Insert("TA(" + student.name + ")*"));
      }
      for (const std::string& course : student.regs) {
        apply(registry, Insert(reg(student, course)));
      }
    }
    ASSERT_TRUE(registry->Report("s", ReportOptions{}).ok());
    for (const Student& student : students) {
      apply(registry, Insert(reg(student, student.spare)));
      apply(registry, Delete(reg(student, student.spare)));
    }
    ASSERT_TRUE(registry->Report("s", ReportOptions{}).ok());
  };

  // The steady-shape estimate on an unlimited registry (byte estimates are
  // platform-dependent; never hardcode).
  size_t steady_bytes = 0;
  {
    EngineRegistry probe;
    load(&probe);
    steady_bytes = probe.Stats("s").value().engine_bytes;
    ASSERT_GT(steady_bytes, 0u);
  }

  RegistryOptions options;
  options.engine_byte_budget = 2 * steady_bytes;
  EngineRegistry registry(options);
  load(&registry);
  Rng rng(5);
  for (int round = 0; round < 2000; ++round) {
    Student& student = students[rng.UniformInt(students.size())];
    std::string& dropped = student.regs[rng.UniformInt(student.regs.size())];
    apply(&registry, Delete(reg(student, dropped)));
    apply(&registry, Insert(reg(student, student.spare)));
    std::swap(dropped, student.spare);
    ASSERT_TRUE(registry.Report("s", ReportOptions{}).ok());
  }
  EXPECT_EQ(registry.stats().evictions, 0u);
  EXPECT_EQ(registry.Stats("s").value().engine_builds, 1u);
}

TEST(EngineRegistryTest, MutationPathKeepsStatsFreshWithoutBudget) {
  // Even with no budget to enforce, the periodic refresh keeps the STATS
  // byte estimate at most refresh_every_deltas deltas stale.
  RegistryOptions options;
  options.refresh_every_deltas = 4;
  EngineRegistry registry(options);
  ASSERT_TRUE(registry.Open("s", MustParseCQ("q() :- R(x)")).ok());
  ASSERT_TRUE(registry.ApplyMutation("s", Insert("R(seed)*")).ok());
  ASSERT_TRUE(registry.Report("s", ReportOptions{}).ok());
  const size_t before = registry.Stats("s").value().engine_bytes;
  for (size_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        registry.ApplyMutation("s", Insert("R(g" + std::to_string(i) + ")*"))
            .ok());
  }
  EXPECT_GT(registry.Stats("s").value().engine_bytes, before);
}

TEST(EngineRegistryTest, MutateReturnsOutcomeCounts) {
  EngineRegistry registry;
  ASSERT_TRUE(registry.Open("s", MustParseCQ("q() :- R(x)")).ok());
  auto first = registry.Mutate("s", Insert("R(a)*"), nullptr, nullptr);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(first.value().fact_count, 1u);
  EXPECT_EQ(first.value().endo_count, 1u);
  auto second = registry.Mutate("s", Insert("R(b)"), nullptr, nullptr);
  ASSERT_TRUE(second.ok()) << second.error();
  EXPECT_EQ(second.value().fact_count, 2u);
  EXPECT_EQ(second.value().endo_count, 1u);
  auto removed = registry.Mutate("s", Delete("R(a)"), nullptr, nullptr);
  ASSERT_TRUE(removed.ok()) << removed.error();
  EXPECT_EQ(removed.value().fact_count, 1u);
  EXPECT_EQ(removed.value().endo_count, 0u);
}

TEST(EngineRegistryTest, StripedRegistryMatchesSingleStripeExactly) {
  // Stripes change locking, never semantics: reports rendered through an
  // 8-stripe registry are byte-identical to the single-stripe (PR 4)
  // configuration, and SessionIds keeps global open order across stripes.
  RegistryOptions striped_options;
  striped_options.num_stripes = 8;
  EngineRegistry striped(striped_options);
  EngineRegistry flat;

  const CQ q = MustParseCQ("q() :- Stud(x), not TA(x), Reg(x,y)");
  std::vector<std::string> ids;
  for (int i = 0; i < 12; ++i) ids.push_back("sess" + std::to_string(i));
  for (const std::string& id : ids) {
    ASSERT_TRUE(striped.Open(id, q).ok());
    ASSERT_TRUE(flat.Open(id, q).ok());
    for (EngineRegistry* registry : {&striped, &flat}) {
      ASSERT_TRUE(registry->ApplyMutation(id, Insert("Stud(ann)")).ok());
      ASSERT_TRUE(registry->ApplyMutation(id, Insert("Stud(bob)")).ok());
      ASSERT_TRUE(
          registry->ApplyMutation(id, Insert("Reg(ann,os" + id + ")*")).ok());
      ASSERT_TRUE(registry->ApplyMutation(id, Insert("Reg(bob,db)*")).ok());
      ASSERT_TRUE(registry->ApplyMutation(id, Insert("TA(bob)*")).ok());
    }
  }
  EXPECT_EQ(striped.SessionIds(), ids);
  EXPECT_EQ(striped.stats().open_sessions, ids.size());
  for (const std::string& id : ids) {
    auto striped_report = striped.ReportRendered(id, ReportOptions{});
    auto flat_report = flat.ReportRendered(id, ReportOptions{});
    ASSERT_TRUE(striped_report.ok()) << striped_report.error();
    ASSERT_TRUE(flat_report.ok()) << flat_report.error();
    EXPECT_EQ(striped_report.value().text, flat_report.value().text);
    EXPECT_EQ(striped_report.value().rows, flat_report.value().rows);
  }
}

TEST(EngineRegistryTest, StripeQueueBoundFailsFastWithOverload) {
  // One command holds the (only) stripe; a second waits (within the
  // bound); a third finds the queue full and is rejected with a
  // structured overload error instead of blocking.
  RegistryOptions options;
  options.num_stripes = 1;
  options.max_stripe_queue = 1;
  EngineRegistry registry(options);
  ASSERT_TRUE(registry.Open("s", MustParseCQ("q() :- R(x)")).ok());

  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::thread holder([&]() {
    auto visited = registry.VisitDatabase("s", [&](const Database&) {
      entered.set_value();
      // Bounded wait: a scheduling pathology fails the test, never hangs it.
      released.wait_for(std::chrono::seconds(10));
    });
    EXPECT_TRUE(visited.ok()) << visited.error();
  });
  entered.get_future().wait();  // the stripe lock is now held

  std::thread waiter([&]() {
    auto applied = registry.Mutate("s", Insert("R(w)*"), nullptr, nullptr);
    EXPECT_TRUE(applied.ok()) << applied.error();
  });
  // Give the waiter time to register in the stripe queue (queued == 1, at
  // the bound). Generous margin; the worst case is a spurious pass-through
  // caught by the overload assertions below.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));

  auto rejected = registry.Mutate("s", Insert("R(x)*"), nullptr, nullptr);
  release.set_value();
  holder.join();
  waiter.join();

  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.error().find("[E_OVERLOAD]"), std::string::npos);
  EXPECT_EQ(registry.stats().overloads, 1u);
  // The admitted waiter's mutation landed once the stripe freed up.
  EXPECT_EQ(registry.Stats("s").value().fact_count, 1u);
}

ReportOptions ApproxOptions(double epsilon, double delta, size_t seed) {
  ReportOptions options;
  options.approx.epsilon = epsilon;
  options.approx.delta = delta;
  options.approx.seed = seed;
  return options;
}

TEST(EngineRegistryTest, ApproxOnlySessionServesSampledReports) {
  EngineRegistry registry;
  auto opened = registry.Open("s", MustParseCQ("q() :- R(x,y), S(x), T(y)"));
  ASSERT_TRUE(opened.ok()) << opened.error();
  EXPECT_FALSE(opened.value());  // admitted, but not exact-capable
  EXPECT_FALSE(registry.Stats("s").value().exact_capable);
  ASSERT_TRUE(registry.ApplyMutation("s", Insert("R(a,b)*")).ok());
  ASSERT_TRUE(registry.ApplyMutation("s", Insert("S(a)*")).ok());
  ASSERT_TRUE(registry.ApplyMutation("s", Insert("T(b)*")).ok());

  // An exact request names the classification and the way out.
  auto exact = registry.Report("s", ReportOptions{});
  ASSERT_FALSE(exact.ok());
  EXPECT_NE(exact.error().find("not hierarchical"), std::string::npos);
  EXPECT_NE(exact.error().find("approx=EPS,DELTA"), std::string::npos);

  auto approx = registry.Report("s", ApproxOptions(0.1, 0.05, 7));
  ASSERT_TRUE(approx.ok()) << approx.error();
  EXPECT_TRUE(approx.value().approximate);
  EXPECT_EQ(approx.value().engine, "approx-fpras");
  EXPECT_EQ(approx.value().rows.size(), 3u);
  // The sampling tier never builds the incremental engine.
  EXPECT_FALSE(registry.Stats("s").value().engine_resident);
  EXPECT_EQ(registry.stats().engine_builds, 0u);
  EXPECT_EQ(registry.stats().approx_reports, 1u);
}

TEST(EngineRegistryTest, ApproxReportCacheIsBoundedAndEpochValidated) {
  RegistryOptions options;
  options.max_approx_cached_reports = 2;
  EngineRegistry registry(options);
  ASSERT_TRUE(registry.Open("s", MustParseCQ("q() :- R(x)")).ok());
  ASSERT_TRUE(registry.ApplyMutation("s", Insert("R(a)*")).ok());
  ASSERT_TRUE(registry.ApplyMutation("s", Insert("R(b)*")).ok());

  ReportOptions first = ApproxOptions(0.2, 0.05, 1);
  first.approx.force = true;  // exact-capable session: sampling by request
  ASSERT_TRUE(registry.Report("s", first).ok());
  EXPECT_EQ(registry.stats().approx_reports, 1u);
  EXPECT_EQ(registry.stats().cached_approx_tables, 1u);

  // An identical spec with no intervening delta is a cache hit.
  const size_t hits_before = registry.stats().report_cache_hits;
  ASSERT_TRUE(registry.Report("s", first).ok());
  EXPECT_EQ(registry.stats().report_cache_hits, hits_before + 1);
  EXPECT_EQ(registry.stats().cached_approx_tables, 1u);

  // Distinct specs get distinct entries, bounded at 2 by least-recently-
  // served eviction.
  ReportOptions second = first;
  second.approx.seed = 2;
  ReportOptions third = first;
  third.approx.seed = 3;
  ASSERT_TRUE(registry.Report("s", second).ok());
  EXPECT_EQ(registry.stats().cached_approx_tables, 2u);
  ASSERT_TRUE(registry.Report("s", third).ok());
  EXPECT_EQ(registry.stats().cached_approx_tables, 2u);

  // The exact table is accounted in its own gauge, outside the bound.
  ASSERT_TRUE(registry.Report("s", ReportOptions{}).ok());
  EXPECT_EQ(registry.stats().cached_exact_tables, 1u);
  EXPECT_EQ(registry.stats().cached_approx_tables, 2u);
  EXPECT_EQ(registry.Stats("s").value().cached_exact_tables, 1u);
  EXPECT_EQ(registry.Stats("s").value().cached_approx_tables, 2u);

  // A delta invalidates every cached table: the next identical approx
  // request recomputes over the mutated database instead of hitting.
  ASSERT_TRUE(registry.ApplyMutation("s", Insert("R(c)*")).ok());
  const size_t hits_after = registry.stats().report_cache_hits;
  auto recomputed = registry.Report("s", third);
  ASSERT_TRUE(recomputed.ok()) << recomputed.error();
  EXPECT_EQ(recomputed.value().rows.size(), 3u);
  EXPECT_EQ(registry.stats().report_cache_hits, hits_after);
}

TEST(EngineRegistryTest, ZeroApproxCacheBoundDisablesApproxCaching) {
  RegistryOptions options;
  options.max_approx_cached_reports = 0;
  EngineRegistry registry(options);
  ASSERT_TRUE(registry.Open("s", MustParseCQ("q() :- R(x)")).ok());
  ASSERT_TRUE(registry.ApplyMutation("s", Insert("R(a)*")).ok());

  ReportOptions forced = ApproxOptions(0.2, 0.05, 1);
  forced.approx.force = true;
  auto first = registry.Report("s", forced);
  auto second = registry.Report("s", forced);
  ASSERT_TRUE(first.ok()) << first.error();
  ASSERT_TRUE(second.ok()) << second.error();
  EXPECT_EQ(registry.stats().cached_approx_tables, 0u);
  EXPECT_EQ(registry.stats().report_cache_hits, 0u);
  // Fixed (spec, database): the recomputation is bit-identical anyway.
  ASSERT_EQ(first.value().rows.size(), second.value().rows.size());
  for (size_t i = 0; i < first.value().rows.size(); ++i) {
    EXPECT_EQ(first.value().rows[i].value, second.value().rows[i].value) << i;
  }
}

}  // namespace
}  // namespace shapcq
