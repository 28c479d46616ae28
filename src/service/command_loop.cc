#include "service/command_loop.h"

#include <cctype>
#include <cerrno>
#include <istream>
#include <ostream>

#include "db/textio.h"
#include "query/parser.h"
#include "service/report_request.h"

namespace shapcq {

namespace {

// Splits off the first whitespace-delimited token; *rest keeps everything
// after the separating whitespace (itself trimmed of leading whitespace).
std::string TakeToken(const std::string& text, std::string* rest) {
  size_t start = 0;
  while (start < text.size() &&
         std::isspace(static_cast<unsigned char>(text[start]))) {
    ++start;
  }
  size_t end = start;
  while (end < text.size() &&
         !std::isspace(static_cast<unsigned char>(text[end]))) {
    ++end;
  }
  size_t next = end;
  while (next < text.size() &&
         std::isspace(static_cast<unsigned char>(text[next]))) {
    ++next;
  }
  *rest = text.substr(next);
  return text.substr(start, end - start);
}

// Re-inserts the command context ("delta s1") into a registry error while
// keeping any structured "[E_...]" tag in front, so "[E_FACT_CAP] session
// at fact cap 2" surfaces as "[E_FACT_CAP] delta s1: session at fact cap
// 2" — the tag stays machine-greppable and the transcript format is
// unchanged from the single-writer loop.
std::string WithContext(const std::string& context, const std::string& error) {
  if (!error.empty() && error[0] == '[') {
    size_t close = error.find("] ");
    if (close != std::string::npos) {
      return error.substr(0, close + 2) + context + ": " +
             error.substr(close + 2);
    }
  }
  return context + ": " + error;
}

// Reads one protocol line, distinguishing EOF from a transient read error.
// std::getline reports both as a non-good stream; treating them alike made
// an EINTR-interrupted read (any signal without SA_RESTART — SIGCONT after
// job control, say) silently end the session with exit 0. Retrying is not
// enough on its own: an interrupted getline may have already extracted a
// partial line (eofbit, no failbit), so the chunks are accumulated across
// retries — otherwise a retried command would execute truncated.
//
// Returns true with a complete line to execute, false on EOF, stop, or an
// unrecoverable error. The final line of a stream that ends without '\n'
// still executes (eofbit set but failbit clear after extraction).
bool ReadCommandLine(std::istream& in, std::string* line,
                     const volatile std::sig_atomic_t* stop) {
  line->clear();
  std::string chunk;
  while (true) {
    errno = 0;
    std::getline(in, chunk);
    line->append(chunk);
    if (in.good()) return true;
    // Shutdown beats retry: drop any partial line, the command never ran.
    if (stop != nullptr && *stop) return false;
    if (errno == EINTR && !in.bad()) {
      in.clear();
      continue;
    }
    // eofbit alone (failbit clear) means a final unterminated line was
    // extracted: execute it. failbit means nothing more to execute.
    return !in.fail();
  }
}

}  // namespace

CommandLoop::CommandLoop(const CommandLoopOptions& options)
    : owned_registry_(std::make_unique<EngineRegistry>(options.registry)),
      registry_(owned_registry_.get()),
      options_(options) {}

CommandLoop::CommandLoop(const CommandLoopOptions& options,
                         EngineRegistry* registry, SessionLogManager* log)
    : registry_(registry), log_(log), options_(options) {}

Result<size_t> CommandLoop::InitDurability() {
  if (owned_registry_ == nullptr || options_.log_dir.empty()) {
    return Result<size_t>::Ok(0);
  }
  auto manager = SessionLogManager::Open(options_.log_dir, options_.fsync,
                                         options_.snapshot_every);
  if (!manager.ok()) return Result<size_t>::Error(manager.error());
  owned_log_ =
      std::make_unique<SessionLogManager>(std::move(manager).value());
  log_ = owned_log_.get();
  return log_->Recover(registry_);
}

void CommandLoop::ExecuteLine(const std::string& line, std::string* out) {
  auto fail = [this, out](const std::string& message) {
    *out += "error: " + message + "\n";
    ++error_count_;
  };

  if (options_.max_line_bytes > 0 && line.size() > options_.max_line_bytes) {
    // Resource guard: refuse to parse (or echo) an oversized line, but keep
    // the loop alive — one hostile line must not take the server down.
    return fail("[E_LINE_TOO_LONG] input line of " +
                std::to_string(line.size()) + " bytes exceeds limit " +
                std::to_string(options_.max_line_bytes));
  }

  size_t start = line.find_first_not_of(" \t\r");
  if (start == std::string::npos || line[start] == '#') return;
  size_t end = line.find_last_not_of(" \t\r");
  const std::string trimmed = line.substr(start, end - start + 1);
  *out += "> " + trimmed + "\n";

  std::string rest;
  const std::string command = TakeToken(trimmed, &rest);

  if (command == "OPEN") {
    std::string query_text;
    const std::string id = TakeToken(rest, &query_text);
    if (id.empty() || query_text.empty()) {
      return fail("usage: OPEN <session> <query-rule>");
    }
    auto query = ParseCQ(query_text);
    if (!query.ok()) return fail("open " + id + ": " + query.error());
    auto opened = registry_->Open(id, query.value());
    if (!opened.ok()) return fail("open " + id + ": " + opened.error());
    if (log_ != nullptr) {
      auto logged = log_->LogOpen(id, query_text);
      if (!logged.ok()) {
        // The session exists only in RAM and could not be made durable:
        // fail the command and roll the open back, rather than serving a
        // session that would silently vanish on restart.
        registry_->Close(id);
        return fail("[E_LOG_IO] open " + id + ": " + logged.error());
      }
    }
    // Approx-only sessions (safe, self-join-free, but non-hierarchical)
    // announce themselves so clients know reports need approx=EPS,DELTA.
    *out += "ok open " + id + (opened.value() ? "" : " approx-only") + "\n";
    return;
  }

  if (command == "DELTA") {
    std::string mutation_text;
    const std::string id = TakeToken(rest, &mutation_text);
    if (id.empty() || mutation_text.empty()) {
      return fail("usage: DELTA <session> +|- <fact-literal>");
    }
    auto mutation = ParseMutationLine(mutation_text);
    if (!mutation.ok()) return fail("delta " + id + ": " + mutation.error());
    // The whole check-log-apply sequence runs under the session's stripe
    // lock inside Mutate: the fact-cap check, the write-ahead append and
    // the apply cannot interleave with another connection's commands on
    // this session, so log order == apply order. If the apply fails after
    // the append, replay fails identically against the same database
    // state, so the logged record stays a faithful no-op.
    std::function<Result<bool>()> write_ahead = [this, &id,
                                                 &mutation_text]() {
      return log_->LogDelta(id, mutation_text);
    };
    std::function<void(const Database&)> post_apply =
        [this, &id](const Database& db) { log_->MaybeAutoCompact(id, db); };
    auto applied =
        registry_->Mutate(id, mutation.value(),
                          log_ != nullptr ? &write_ahead : nullptr,
                          log_ != nullptr ? &post_apply : nullptr);
    if (!applied.ok()) {
      return fail(WithContext("delta " + id, applied.error()));
    }
    *out += "ok delta " + id +
            " facts=" + std::to_string(applied.value().fact_count) +
            " endo=" + std::to_string(applied.value().endo_count) + "\n";
    return;
  }

  if (command == "REPORT") {
    std::string args;
    const std::string id = TakeToken(rest, &args);
    if (id.empty()) {
      return fail(
          "usage: REPORT <session> [top_k=K threads=N approx=EPS,DELTA "
          "seed=S max_samples=M force_approx=0|1 deadline_ms=N "
          "on_deadline=error|approx]");
    }
    // One shared grammar with the CLI: key=value pairs.
    auto parsed = ParseReportRequest(args, options_.default_threads);
    if (!parsed.ok()) {
      return fail("report " + id + ": " + parsed.error());
    }
    ReportOptions options = parsed.value().ToReportOptions();
    if (!parsed.value().deadline_in_request &&
        options_.default_deadline_ms > 0) {
      // The server-wide default covers requests that say nothing about
      // deadlines; an explicit deadline_ms= — even =0 — always wins.
      options.deadline_ms = options_.default_deadline_ms;
    }
    if (log_ != nullptr) {
      // Batch fsync point: a served report only ever reflects state that
      // is already durable.
      auto synced = log_->SyncAll();
      if (!synced.ok()) {
        return fail("[E_LOG_IO] report " + id + ": " + synced.error());
      }
    }
    // Rank and render under the stripe lock: in shared mode the database
    // may mutate the instant another connection's DELTA gets the lock.
    auto report = registry_->ReportRendered(id, options);
    if (!report.ok()) {
      return fail(WithContext("report " + id, report.error()));
    }
    *out += "report " + id +
            " rows=" + std::to_string(report.value().rows) +
            " endo=" + std::to_string(report.value().endo_count) + "\n";
    *out += report.value().text;
    *out += "end report " + id + "\n";
    return;
  }

  if (command == "SNAPSHOT") {
    std::string after;
    const std::string id = TakeToken(rest, &after);
    if (id.empty() || !after.empty()) return fail("usage: SNAPSHOT <session>");
    if (log_ == nullptr) {
      return fail("snapshot " + id + ": durability is off (no --log-dir)");
    }
    // Compact under the stripe lock so the snapshot sees a frozen fact
    // table (lock order: registry stripe, then the log manager's mutex).
    Result<bool> compacted = Result<bool>::Ok(false);
    size_t fact_count = 0;
    auto visited = registry_->VisitDatabase(
        id, [this, &id, &compacted, &fact_count](const Database& db) {
          compacted = log_->Compact(id, db);
          fact_count = db.fact_count();
        });
    if (!visited.ok()) {
      return fail(WithContext("snapshot " + id, visited.error()));
    }
    if (!compacted.ok()) {
      return fail("[E_LOG_IO] snapshot " + id + ": " + compacted.error());
    }
    const SessionLogStats stats = log_->Stats(id);
    *out += "ok snapshot " + id + " facts=" + std::to_string(fact_count) +
            " log_bytes=" + std::to_string(stats.log_bytes) + "\n";
    return;
  }

  if (command == "STATS") {
    std::string after;
    const std::string id = TakeToken(rest, &after);
    if (!after.empty()) return fail("usage: STATS [<session>]");
    if (id.empty()) {
      const RegistryStats stats = registry_->stats();
      *out += "stats sessions=" + std::to_string(stats.open_sessions) +
              " resident=" + std::to_string(stats.resident_engines);
      if (options_.stats_show_bytes) {
        *out += " bytes=" + std::to_string(stats.resident_bytes);
      }
      *out += " hits=" + std::to_string(stats.report_hits) +
              " cached=" + std::to_string(stats.report_cache_hits) +
              " cached_exact=" + std::to_string(stats.cached_exact_tables) +
              " cached_approx=" + std::to_string(stats.cached_approx_tables) +
              " misses=" + std::to_string(stats.report_misses) +
              " evictions=" + std::to_string(stats.evictions) +
              " builds=" + std::to_string(stats.engine_builds);
      if (stats.approx_reports > 0) {
        *out += " approx=" + std::to_string(stats.approx_reports);
      }
      if (stats.overloads > 0) {
        *out += " overloads=" + std::to_string(stats.overloads);
      }
      if (stats.deadline_exceeded > 0) {
        *out += " deadline_exceeded=" + std::to_string(stats.deadline_exceeded);
      }
      if (stats.degraded_to_approx > 0) {
        *out += " degraded_to_approx=" +
                std::to_string(stats.degraded_to_approx);
      }
      // A gauge, not a counter: deterministically 0 whenever STATS cannot
      // run concurrently with a report (every serial transcript).
      *out += " inflight=" + std::to_string(stats.inflight);
      if (options_.transport_stats != nullptr) {
        *out += " io_timeouts=" +
                std::to_string(options_.transport_stats->io_timeouts.load(
                    std::memory_order_relaxed));
      }
      if (log_ != nullptr) {
        *out += " log_bytes=" + std::to_string(log_->TotalLogBytes());
      }
      *out += "\n";
      return;
    }
    auto stats = registry_->Stats(id);
    if (!stats.ok()) return fail("stats " + id + ": " + stats.error());
    const SessionStats& s = stats.value();
    *out += "stats " + id + " facts=" + std::to_string(s.fact_count) +
            " endo=" + std::to_string(s.endo_count) +
            " deltas=" + std::to_string(s.deltas_applied) +
            " reports=" + std::to_string(s.reports_served) +
            " builds=" + std::to_string(s.engine_builds) +
            " resident=" + (s.engine_resident ? "yes" : "no");
    if (!s.exact_capable) *out += " tier=approx-only";
    if (s.cached_approx_tables > 0) {
      *out += " cached_approx=" + std::to_string(s.cached_approx_tables);
    }
    if (s.deadline_exceeded > 0) {
      *out += " deadline_exceeded=" + std::to_string(s.deadline_exceeded);
    }
    if (log_ != nullptr) {
      const SessionLogStats log_stats = log_->Stats(id);
      *out += " log_bytes=" + std::to_string(log_stats.log_bytes) +
              " since_snapshot=" +
              std::to_string(log_stats.records_since_snapshot);
    }
    *out += "\n";
    return;
  }

  if (command == "CLOSE") {
    std::string after;
    const std::string id = TakeToken(rest, &after);
    if (id.empty() || !after.empty()) return fail("usage: CLOSE <session>");
    auto closed = registry_->Close(id);
    if (!closed.ok()) return fail("close " + id + ": " + closed.error());
    // The stream ended: its log has nothing left to recover.
    if (log_ != nullptr) log_->Drop(id);
    *out += "ok close " + id + "\n";
    return;
  }

  fail("unknown command '" + command +
       "' (expected OPEN, DELTA, REPORT, SNAPSHOT, STATS or CLOSE)");
}

int CommandLoop::Run(std::istream& in, std::ostream& out,
                     const volatile std::sig_atomic_t* stop) {
  std::string line;
  while (!(stop != nullptr && *stop) && ReadCommandLine(in, &line, stop)) {
    std::string output;
    ExecuteLine(line, &output);
    out << output;
    out.flush();  // interactive clients see each command's output promptly
  }
  // EOF or graceful shutdown: whatever the fsync policy batched up becomes
  // durable before the process exits. In shared mode the server syncs once
  // for all connections instead.
  if (owned_log_ != nullptr) owned_log_->SyncAll();
  return error_count_ == 0 ? 0 : 1;
}

}  // namespace shapcq
