#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>

#include "core/approx_engine.h"
#include "core/report.h"
#include "core/shapley_engine.h"
#include "db/textio.h"
#include "eval/homomorphism.h"
#include "query/parser.h"
#include "service/command_loop.h"
#include "service/engine_registry.h"
#include "service/report_request.h"
#include "service/session_log.h"

namespace serverbench {

using namespace shapcq;

namespace {

// The line after its command word and session id: the mutation of a
// DELTA, the argument tail of a REPORT, the query of an OPEN.
std::string Tail(const Command& command) {
  const size_t first = command.line.find(' ');
  const size_t second = command.line.find(' ', first + 1);
  return second == std::string::npos ? "" : command.line.substr(second + 1);
}

std::string SessionOf(const Command& command) {
  const size_t first = command.line.find(' ');
  const size_t second = command.line.find(' ', first + 1);
  return command.line.substr(first + 1, second - first - 1);
}

// The mirror side of a DELTA: the same database call the server makes on
// a session without a resident engine.
bool ApplyToDatabase(Database& db, const MutationSpec& mutation) {
  const FactSpec& fact = mutation.fact;
  if (mutation.op == MutationSpec::Op::kInsert) {
    db.AddFact(fact.relation, fact.tuple, fact.endogenous);
    return true;
  }
  const FactId victim = db.FindFact(fact.relation, fact.tuple);
  if (victim == kNoFact) return false;
  db.RemoveFact(victim);
  return true;
}

// The rendered table without its first line: the server labels tables it
// serves from a live engine "CntSat (incremental)", a fresh build "CntSat".
std::string AfterFirstLine(const std::string& table) {
  const size_t newline = table.find('\n');
  return newline == std::string::npos ? "" : table.substr(newline + 1);
}

AttributionReport TopRows(const AttributionReport& table, size_t k) {
  AttributionReport top;
  top.engine = table.engine;
  top.total = table.total;
  top.approximate = table.approximate;
  top.approx = table.approx;
  top.rows.assign(table.rows.begin(),
                  table.rows.begin() + std::min(k, table.rows.size()));
  return top;
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t low = static_cast<size_t>(rank);
  const size_t high = std::min(low + 1, values.size() - 1);
  return values[low] + (values[high] - values[low]) * (rank - low);
}

std::vector<std::string> CheckOutputs(const Stream& stream,
                                      const std::vector<Record>& records) {
  const Workload& workload = stream.workload();
  const CQ query = MustParseCQ(workload.query);
  std::vector<Database> mirrors(workload.sessions);
  std::vector<std::string> failures;
  auto fail = [&](size_t index, const std::string& what) {
    failures.push_back("command " + std::to_string(index) + " '" +
                       stream.commands()[index].line + "': " + what);
  };
  for (size_t i = 0; i < records.size(); ++i) {
    const Command& command = stream.commands()[i];
    Database& db = mirrors[command.session];
    if (command.kind == Kind::kLoad || command.kind == Kind::kDelta) {
      auto mutation = ParseMutationLine(Tail(command));
      if (!mutation.ok() || !ApplyToDatabase(db, mutation.value())) {
        fail(i, "mirror cannot apply the mutation");
      }
    } else if ((command.kind == Kind::kFirstReport ||
                command.kind == Kind::kReport) &&
               !workload.approx) {
      // Efficiency: the exact values sum to q(D) - q(Dx).
      const int expected = static_cast<int>(EvalBoolean(query, db,
                                                        db.FullWorld())) -
                           static_cast<int>(EvalBoolean(query, db,
                                                        db.EmptyWorld()));
      // The last line is "total <value>". Rows holding values too long for
      // RenderReport's line buffer lose their newline, so do not anchor the
      // search on one.
      const std::string& body = records[i].body;
      const size_t at = body.rfind("total ");
      std::string total = at == std::string::npos ? "" : body.substr(at + 6);
      total.erase(0, total.find_first_not_of(' '));
      if (!total.empty() && total.back() == '\n') total.pop_back();
      if (total != std::to_string(expected)) {
        fail(i, "total '" + total + "' but q(D) - q(Dx) = " +
                    std::to_string(expected));
      }
    } else if (command.kind == Kind::kFetch) {
      auto request = ParseReportRequest(Tail(command), 1);
      if (!request.ok()) {
        fail(i, request.error());
        continue;
      }
      auto expected =
          BuildAttributionReport(query, db, request.value().ToReportOptions());
      if (!expected.ok()) {
        fail(i, expected.error());
      } else if (AfterFirstLine(records[i].body) !=
                 AfterFirstLine(RenderReport(expected.value(), db))) {
        fail(i, "full table differs from the mirror's fresh report");
      }
    }
  }
  return failures;
}

namespace {

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index of the root span, -1 for a root
  uint32_t command;
};

// Spans stay in memory until the replay ends.
class Tracer {
 public:
  int32_t Add(const char* name, int64_t start, int64_t end, int32_t parent,
              uint32_t command) {
    spans_.push_back(Span{name, start, end, parent, command});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  template <typename F>
  auto Time(const char* name, int32_t parent, uint32_t command, F&& call) {
    const int64_t start = NowNs();
    auto result = call();
    Add(name, start, NowNs(), parent, command);
    return result;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

struct EngineSample {
  double orbits, nodes, bytes;
};

// How the registry served a REPORT, read from its counters around the
// ExecuteLine call; the mirror repeats that work.
enum class Served { kCacheHit, kRecompute, kRebuild };

// The benchmark's own copy of every session, driven through the public
// core calls one layer at a time. It follows the traced server loop: an
// engine the registry evicted is dropped, and a REPORT rebuilds,
// recomputes or renders the cached table as the registry did.
class Mirror {
 public:
  Mirror(const Stream& stream, SessionLogManager log)
      : stream_(stream),
        query_(MustParseCQ(stream.workload().query)),
        log_(std::move(log)) {
    for (size_t s = 0; s < stream.workload().sessions; ++s) {
      sessions_.push_back(std::make_unique<Session>());
    }
  }

  // `resident`: the registry held the session's engine before the command;
  // `served` only matters for REPORTs.
  void Replay(uint32_t index, int32_t root, bool resident, Served served,
              std::vector<std::string>* failures);
  // Fails every session whose engine had another node or orbit count at
  // its last timed recompute than at its first: the stream is stationary.
  void CheckShapes(std::vector<std::string>* failures) const;

  Tracer& tracer() { return tracer_; }
  const std::vector<EngineSample>& engine_samples() const {
    return engine_samples_;
  }
  const std::vector<ApproxRunInfo>& approx_samples() const {
    return approx_samples_;
  }

 private:
  struct Shape {
    size_t nodes = 0, orbits = 0;
    bool operator!=(const Shape& other) const {
      return nodes != other.nodes || orbits != other.orbits;
    }
  };
  struct Session {
    Database db;
    std::optional<ShapleyEngine> engine;
    AttributionReport table;  // the last recomputed full table
    std::optional<Shape> first_shape, last_shape;  // timed recomputes
  };

  const Stream& stream_;
  const CQ query_;
  SessionLogManager log_;
  std::vector<std::unique_ptr<Session>> sessions_;  // address-stable dbs
  Tracer tracer_;
  std::vector<EngineSample> engine_samples_;  // per timed exact recompute
  std::vector<ApproxRunInfo> approx_samples_;  // per timed approx recompute
};

void Mirror::Replay(uint32_t index, int32_t root, bool resident,
                    Served served, std::vector<std::string>* failures) {
  const Command& command = stream_.commands()[index];
  const std::string id = SessionOf(command);
  const std::string tail = Tail(command);
  Session& session = *sessions_[command.session];
  auto span = [&](const char* name, auto&& call) {
    return tracer_.Time(name, root, index, call);
  };
  auto fail = [&](const std::string& what) {
    failures->push_back("mirror " + command.line + ": " + what);
  };
  if (!resident) session.engine.reset();

  if (command.kind == Kind::kOpen) {
    log_.LogOpen(id, tail);
    return;
  }
  if (!IsReport(command.kind)) {
    auto mutation =
        span("parse.delta", [&] { return ParseMutationLine(tail); });
    span("wal.append", [&] { return log_.LogDelta(id, tail); });
    if (!mutation.ok()) return fail(mutation.error());
    const FactSpec& fact = mutation.value().fact;
    if (!session.engine) {
      if (!span("db.apply", [&] {
            return ApplyToDatabase(session.db, mutation.value());
          })) {
        fail("no such fact");
      }
      return;
    }
    auto patched = span("engine.patch", [&] {
      return mutation.value().op == MutationSpec::Op::kInsert
                 ? session.engine->InsertFact(session.db, fact.relation,
                                              fact.tuple, fact.endogenous)
                 : session.engine->DeleteFact(
                       session.db,
                       session.db.FindFact(fact.relation, fact.tuple));
    });
    if (!patched.ok()) fail(patched.error());
    return;
  }

  auto request =
      span("parse.report", [&] { return ParseReportRequest(tail, 1); });
  span("wal.sync", [&] { return log_.SyncAll(); });
  if (!request.ok()) return fail(request.error());
  const ReportOptions options = request.value().ToReportOptions();
  ReportOptions full = options;
  full.top_k = 0;
  const bool approx = stream_.workload().approx;
  const bool timed = command.timed;
  const bool recompute = served != Served::kCacheHit;
  if (recompute && approx) {
    auto created = span("approx.create", [&] {
      return ApproxEngine::Create(query_, session.db, ApproxEngine::Options{});
    });
    if (!created.ok()) return fail(created.error());
    ApproxEngine engine = std::move(created).value();
    auto rows = span("approx.estimate", [&] {
      return engine.EstimateAll(options.approx, options.num_threads);
    });
    if (!rows.ok()) return fail(rows.error());
    if (timed) approx_samples_.push_back(engine.info());
    // The renderable table, outside any span: the calls above are the
    // sampling tier's layers.
    auto table = BuildAttributionReport(query_, session.db, full);
    if (!table.ok()) return fail(table.error());
    session.table = std::move(table).value();
  } else if (recompute) {
    if (served == Served::kRebuild) {
      auto built = span("engine.build", [&] {
        return ShapleyEngine::Build(query_, session.db);
      });
      if (!built.ok()) return fail(built.error());
      session.engine.emplace(std::move(built).value());
    } else if (!session.engine) {
      return fail("the registry recomputed on an engine the mirror lacks");
    }
    span("arena.sweep", [&] { return session.engine->AllValues(); });
    session.table = span("report.assemble", [&] {
      return BuildAttributionReportFromEngine(*session.engine, session.db,
                                              full);
    });
    if (timed) {
      const ShapleyEngine::Stats stats = session.engine->stats();
      engine_samples_.push_back(
          {static_cast<double>(stats.orbit_count),
           static_cast<double>(stats.node_count),
           static_cast<double>(session.engine->ApproxMemoryBytes())});
      session.last_shape = Shape{stats.node_count, stats.orbit_count};
      if (!session.first_shape) session.first_shape = session.last_shape;
    }
  }
  if (options.top_k > 0) {
    const AttributionReport top = TopRows(session.table, options.top_k);
    span("report.render_topk", [&] { return RenderReport(top, session.db); });
  } else {
    span("report.render_full",
         [&] { return RenderReport(session.table, session.db); });
  }
}

void Mirror::CheckShapes(std::vector<std::string>* failures) const {
  for (uint32_t s = 0; s < sessions_.size(); ++s) {
    const Session& session = *sessions_[s];
    if (session.first_shape && *session.first_shape != *session.last_shape) {
      const auto text = [](const Shape& shape) {
        return std::to_string(shape.nodes) + " nodes, " +
               std::to_string(shape.orbits) + " orbits";
      };
      failures->push_back("session " + stream_.SessionId(s) +
                          ": the engine went from " +
                          text(*session.first_shape) + " to " +
                          text(*session.last_shape) +
                          " during the timed phase");
    }
  }
}

// One in-process replay of the stream on a loop configured like the
// server's connection loops.
struct Pass {
  std::vector<int64_t> execute_ns;  // ExecuteLine per command
  double wall_s = 0.0;
  RegistryStats before, after;      // around the replayed timed commands
  size_t log_before = 0, log_after = 0;
};

// Replays commands [0, count): setup, warm-up and the timed prefix.
Pass RunPass(const Stream& stream, size_t count, const std::string& dir,
             Mirror* mirror, std::vector<std::string>* failures) {
  const Workload& workload = stream.workload();
  CommandLoopOptions options;
  // shapcq_server --listen defaults to 8 stripes.
  options.registry.num_stripes = workload.stripes > 0 ? workload.stripes : 8;
  options.registry.max_resident_engines = workload.max_resident;
  options.log_dir = dir;
  TransportStats transport;
  options.transport_stats = &transport;
  Pass pass;
  auto log = SessionLogManager::Open(dir, options.fsync, 0);
  if (!log.ok()) {
    failures->push_back(log.error());
    return pass;
  }
  SessionLogManager manager = std::move(log).value();
  EngineRegistry registry(options.registry);
  CommandLoop loop(options, &registry, &manager);

  pass.execute_ns.resize(count);
  std::string out;
  RegistryStats last = registry.stats();
  const int64_t start = NowNs();
  for (uint32_t i = 0; i < count; ++i) {
    const Command& command = stream.commands()[i];
    if (command.timed && (i == 0 || !stream.commands()[i - 1].timed)) {
      pass.before = registry.stats();
      pass.log_before = manager.TotalLogBytes();
    }
    bool resident = false;
    if (mirror != nullptr && !workload.approx &&
        command.kind != Kind::kOpen) {
      auto stats = registry.Stats(SessionOf(command));
      resident = stats.ok() && stats.value().engine_resident;
    }
    out.clear();
    const int64_t t0 = NowNs();
    loop.ExecuteLine(command.line, &out);
    const int64_t t1 = NowNs();
    pass.execute_ns[i] = t1 - t0;
    if (out.find("\nerror: ") != std::string::npos) {
      failures->push_back("replay " + command.line + ": " + out);
    }
    if (mirror != nullptr) {
      const RegistryStats now = registry.stats();
      const Served served =
          now.report_cache_hits > last.report_cache_hits ? Served::kCacheHit
          : now.report_misses > last.report_misses       ? Served::kRebuild
                                                         : Served::kRecompute;
      last = now;
      const int32_t root = mirror->tracer().Add("loop.execute", t0, t1, -1, i);
      mirror->Replay(i, root, resident, served, failures);
    }
  }
  pass.wall_s = (NowNs() - start) / 1e9;
  pass.after = registry.stats();
  pass.log_after = manager.TotalLogBytes();
  return pass;
}

}  // namespace

Metrics TraceReplay(const Stream& stream, const std::vector<Record>& records,
                    size_t replayed, const std::string& scratch_dir,
                    const std::string& spans_path,
                    std::vector<std::string>* failures) {
  const size_t n = replayed;
  const Pass off = RunPass(stream, n, scratch_dir + "/off", nullptr, failures);
  auto mirror_log =
      SessionLogManager::Open(scratch_dir + "/mirror", FsyncPolicy::kBatch, 0);
  if (!mirror_log.ok()) {
    failures->push_back(mirror_log.error());
    return {};
  }
  Mirror mirror(stream, std::move(mirror_log).value());
  const Pass on = RunPass(stream, n, scratch_dir + "/on", &mirror, failures);
  mirror.CheckShapes(failures);
  const std::vector<Span>& spans = mirror.tracer().spans();
  const std::vector<Command>& commands = stream.commands();

  // Child time per root span, for self times.
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  auto timed_kind = [&](uint32_t command, Kind kind) {
    return commands[command].timed && commands[command].kind == kind;
  };
  // Durations of the named spans under timed commands of one kind, in the
  // given unit (ns per unit).
  auto durations = [&](const char* name, Kind kind, double unit) {
    std::vector<double> values;
    for (const Span& span : spans) {
      if (std::strcmp(span.name, name) == 0 && timed_kind(span.command, kind)) {
        values.push_back((span.end_ns - span.start_ns) / unit);
      }
    }
    return values;
  };
  auto all_phases = [&](const char* name, double unit) {
    std::vector<double> values;
    for (const Span& span : spans) {
      if (std::strcmp(span.name, name) == 0) {
        values.push_back((span.end_ns - span.start_ns) / unit);
      }
    }
    return values;
  };
  auto self_times = [&](Kind kind) {
    std::vector<double> values;
    for (size_t s = 0; s < spans.size(); ++s) {
      if (spans[s].parent < 0 && timed_kind(spans[s].command, kind)) {
        values.push_back(
            (spans[s].end_ns - spans[s].start_ns - child_ns[s]) / 1e3);
      }
    }
    return values;
  };
  // Against the untraced pass: the mirror's work between commands would
  // otherwise cool the caches ExecuteLine runs on.
  auto net_overhead = [&](Kind kind, double unit) {
    std::vector<double> values;
    for (uint32_t i = 0; i < n; ++i) {
      if (timed_kind(i, kind)) {
        values.push_back((records[i].rtt_ns - off.execute_ns[i]) / unit);
      }
    }
    return values;
  };
  auto count = [&](Kind kind) {
    double total = 0;
    for (uint32_t i = 0; i < n; ++i) total += timed_kind(i, kind);
    return total;
  };
  std::vector<double> full_bytes;
  for (uint32_t i = 0; i < n; ++i) {
    if (timed_kind(i, Kind::kFull)) {
      full_bytes.push_back(static_cast<double>(records[i].bytes));
    }
  }
  // A round's swaps are delete + insert pairs of DELTAs; a patch is timed
  // over a pair, as the sum of its two engine.patch spans.
  std::vector<int64_t> patch_ns(n, -1);
  for (const Span& span : spans) {
    if (std::strcmp(span.name, "engine.patch") == 0) {
      patch_ns[span.command] = span.end_ns - span.start_ns;
    }
  }
  std::vector<double> patch_pairs;
  for (uint32_t i = 0; i + 1 < n; ++i) {
    if (timed_kind(i, Kind::kDelta) && Tail(commands[i])[0] == '-' &&
        timed_kind(i + 1, Kind::kDelta) && Tail(commands[i + 1])[0] == '+' &&
        patch_ns[i] >= 0 && patch_ns[i + 1] >= 0) {
      patch_pairs.push_back((patch_ns[i] + patch_ns[i + 1]) / 1e3);
    }
  }
  auto engine_median = [&](double EngineSample::*field) {
    std::vector<double> values;
    for (const EngineSample& sample : mirror.engine_samples()) {
      values.push_back(sample.*field);
    }
    return Median(values);
  };
  double eval_calls = 0, hits = 0;
  std::vector<double> samples_per_report, evals_per_report;
  for (const ApproxRunInfo& info : mirror.approx_samples()) {
    samples_per_report.push_back(static_cast<double>(info.samples_total));
    evals_per_report.push_back(static_cast<double>(info.eval_calls));
    eval_calls += info.eval_calls;
    hits += info.cache_hits;
  }
  const double reports =
      count(Kind::kReport) + count(Kind::kPoll) + count(Kind::kFull);
  auto ratio = [](double numerator, double denominator) {
    return denominator > 0 ? numerator / denominator : 0.0;
  };
  constexpr double kUs = 1e3, kMs = 1e6;

  Metrics metrics = {
      {"net.report_overhead_us", Median(net_overhead(Kind::kReport, kUs))},
      {"net.poll_overhead_us", Median(net_overhead(Kind::kPoll, kUs))},
      {"net.delta_overhead_us", Median(net_overhead(Kind::kDelta, kUs))},
      {"net.full_report_overhead_ms", Median(net_overhead(Kind::kFull, kMs))},
      {"net.full_report_bytes", Median(full_bytes)},
      {"loop.delta_us", Median(durations("loop.execute", Kind::kDelta, kUs))},
      {"loop.report_us",
       Median(durations("loop.execute", Kind::kReport, kUs))},
      {"loop.poll_us", Median(durations("loop.execute", Kind::kPoll, kUs))},
      {"loop.full_report_us",
       Median(durations("loop.execute", Kind::kFull, kUs))},
      {"parse.report_us",
       Median(durations("parse.report", Kind::kPoll, kUs))},
      {"parse.delta_us", Median(durations("parse.delta", Kind::kDelta, kUs))},
      {"wal.append_us", Median(durations("wal.append", Kind::kDelta, kUs))},
      {"wal.sync_us", Median(durations("wal.sync", Kind::kReport, kUs))},
      {"wal.bytes_per_delta",
       ratio(static_cast<double>(on.log_after - on.log_before),
             count(Kind::kDelta))},
      {"registry.delta_self_us", Median(self_times(Kind::kDelta))},
      {"registry.report_self_us", Median(self_times(Kind::kReport))},
      {"registry.rebuild_ratio",
       ratio(static_cast<double>(on.after.report_misses -
                                 on.before.report_misses),
             count(Kind::kReport))},
      {"registry.cache_hit_ratio",
       ratio(static_cast<double>(on.after.report_cache_hits -
                                 on.before.report_cache_hits),
             reports)},
      {"engine.build_ms", Median(all_phases("engine.build", kMs))},
      {"engine.patch_us", Median(patch_pairs)},
      {"engine.orbits", engine_median(&EngineSample::orbits)},
      {"engine.nodes", engine_median(&EngineSample::nodes)},
      {"engine.bytes", engine_median(&EngineSample::bytes)},
      {"arena.sweep_ms", Median(durations("arena.sweep", Kind::kReport, kMs))},
      {"report.assemble_ms",
       Median(durations("report.assemble", Kind::kReport, kMs))},
      {"report.render_full_us",
       Median(durations("report.render_full", Kind::kFull, kUs))},
      {"report.render_topk_us",
       Median(durations("report.render_topk", Kind::kPoll, kUs))},
      {"approx.create_ms",
       Median(durations("approx.create", Kind::kReport, kMs))},
      {"approx.estimate_ms",
       Median(durations("approx.estimate", Kind::kReport, kMs))},
      {"approx.samples", Median(samples_per_report)},
      {"approx.eval_calls", Median(evals_per_report)},
      {"approx.cache_hit_ratio", ratio(hits, hits + eval_calls)},
      {"trace.replay_off_s", off.wall_s},
      {"trace.overhead_s", on.wall_s - off.wall_s},
  };

  std::ofstream out(spans_path);
  out << "command\tparent\tname\tstart_ns\tend_ns\n";
  for (const Span& span : spans) {
    out << span.command << '\t' << span.parent << '\t' << span.name << '\t'
        << span.start_ns << '\t' << span.end_ns << '\n';
  }
  return metrics;
}

}  // namespace serverbench
