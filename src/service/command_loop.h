// Line-protocol command loop: the wire layer of the attribution server.
//
// One command per line, executed in order against an EngineRegistry. The
// grammar extends the shapcq_cli --mutate delta grammar:
//
//   OPEN <session> <query-rule>       open a session (empty database);
//                                     non-hierarchical safe self-join-free
//                                     queries ack "ok open <id> approx-only"
//   DELTA <session> + <fact-literal>  insert a fact ('*' = endogenous)
//   DELTA <session> - <fact-literal>  delete the fact with that literal
//   REPORT <session> [key=value ...]  stream the ranked attribution table;
//                                     keys (see service/report_request.h):
//                                     top_k=K threads=N approx=EPS,DELTA
//                                     seed=S max_samples=M force_approx=0|1
//                                     deadline_ms=N on_deadline=error|approx
//   SNAPSHOT <session>                checkpoint + compact the session's
//                                     write-ahead log (durability only)
//   STATS                             registry-wide counters
//   STATS <session>                   per-session counters
//   CLOSE <session>                   close the session
//
// Blank lines and lines starting with '#' are skipped. Commands echo as
// "> <line>" before their output, so a transcript is self-describing (and
// diffable as a CI golden file). Errors print one "error: ..." line and the
// loop continues; Run() returns non-zero if any command errored. All output
// is deterministic: no timestamps, pointers, or platform-dependent byte
// counts, with one flagged exception (the bytes= field of the global STATS
// line, an engine-size estimate; --stats-bytes=off omits it for golden
// transcripts diffed across platforms).
//
// Durability: with options.log_dir set (after InitDurability), every OPEN
// and applied DELTA is written ahead to a per-session append-only log
// (service/session_log.h), so a killed process resumes bit-identical after
// InitDurability replays the logs. Failures of the log itself surface as
// structured "error: [E_LOG_IO] ..." lines that fail the command but keep
// the loop alive; resource guards (max_line_bytes, the registry's
// max_session_facts, the stripe queue bound) use [E_LINE_TOO_LONG],
// [E_FACT_CAP] and [E_OVERLOAD] the same way.
//
// Sharing: a loop either owns its registry (the script/stdin server — one
// loop, one registry) or borrows a shared registry + log manager (the
// socket server — one loop per connection over one striped registry). In
// shared mode every command is funneled through the registry's composite
// locked entry points (Mutate / ReportRendered / VisitDatabase), so the
// read-check-act sequences of a command are atomic under the session's
// stripe lock and concurrent connections cannot interleave inside them.
//
// An owning loop is the single writer of its registry (one command at a
// time); REPORT may parallelize internally via threads=, which is safe
// under the engine's single-writer/parallel-reader contract.

#ifndef SHAPCQ_SERVICE_COMMAND_LOOP_H_
#define SHAPCQ_SERVICE_COMMAND_LOOP_H_

#include <atomic>
#include <csignal>
#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>

#include "service/engine_registry.h"
#include "service/session_log.h"

namespace shapcq {

/// Transport-layer counters, shared by every connection loop of a socket
/// server and surfaced on the global STATS line. Atomics: connection
/// threads bump them concurrently.
struct TransportStats {
  /// Connections reaped by an I/O or idle timeout (read-poll expiries and
  /// idle-watchdog kills alike — both are "the peer went quiet too long").
  std::atomic<size_t> io_timeouts{0};
};

/// Knobs for a CommandLoop.
struct CommandLoopOptions {
  RegistryOptions registry;
  /// Worker threads for REPORT when the command has no threads= key
  /// (1 = serial, 0 = hardware concurrency, at most kMaxReportThreads).
  /// Values are identical at any setting.
  size_t default_threads = 1;

  /// Directory of per-session write-ahead logs; "" disables durability.
  std::string log_dir;
  /// When appended log records reach stable storage (see FsyncPolicy).
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  /// Auto-compact a session's log once this many DELTA records accumulate
  /// since its last snapshot (0 = only explicit SNAPSHOT commands).
  size_t snapshot_every = 0;

  /// Reject input lines longer than this many bytes (0 = unlimited).
  size_t max_line_bytes = 1 << 20;
  /// Include the platform-dependent "bytes=" estimate in the global STATS
  /// line. Off produces byte-identical transcripts across platforms (the
  /// CI golden files).
  bool stats_show_bytes = true;

  /// Deadline for REPORT commands that carry no deadline_ms key of their
  /// own (0 = none). A request's explicit deadline_ms always wins — in
  /// particular deadline_ms=0 opts a single report out of this default.
  size_t default_deadline_ms = 0;
  /// Shared transport counters (the socket server's); the global STATS
  /// line shows io_timeouts= when set. Null in stdin/script loops, which
  /// keeps their transcripts byte-identical to before sockets existed.
  TransportStats* transport_stats = nullptr;
};

/// Executes protocol lines against an owned or shared EngineRegistry.
class CommandLoop {
 public:
  /// Owning mode: the loop constructs and owns its registry (and, after
  /// InitDurability, its log manager).
  explicit CommandLoop(const CommandLoopOptions& options);

  /// Shared mode: the loop borrows a registry and (nullable) log manager
  /// owned by the caller — one loop per connection over shared state. The
  /// caller handles recovery; InitDurability is a no-op. Both pointers
  /// must outlive the loop.
  CommandLoop(const CommandLoopOptions& options, EngineRegistry* registry,
              SessionLogManager* log);

  /// Brings up the durability layer when this loop owns its core and
  /// options.log_dir is set: creates the directory, replays every existing
  /// session log into the registry (databases rebuilt; engines rebuilt
  /// lazily at the next REPORT), and truncates torn tails. Call once,
  /// before the first command. Returns the number of sessions recovered
  /// (0 with durability off or in shared mode).
  Result<size_t> InitDurability();

  /// Executes one protocol line, appending all output (echo, results,
  /// errors) to *out. Blank and comment lines produce no output.
  void ExecuteLine(const std::string& line, std::string* out);

  /// Reads lines from `in` until EOF, writing output to `out` after each
  /// line (a session script, an interactive stdin loop, or one socket
  /// connection). A transient read failure (EINTR from a signal that is
  /// not shutting the server down) is retried without dropping input;
  /// only genuine EOF or an unrecoverable stream error ends the loop. If
  /// `stop` is non-null, a set flag drains the current command, syncs all
  /// session logs, and returns (the SIGTERM/SIGINT graceful-shutdown
  /// path). Returns 0 if every command succeeded, 1 otherwise.
  int Run(std::istream& in, std::ostream& out,
          const volatile std::sig_atomic_t* stop = nullptr);

  /// Commands that printed an "error:" line so far.
  size_t error_count() const { return error_count_; }

  /// The underlying registry (tests and benchmarks drive it directly).
  EngineRegistry& registry() { return *registry_; }

 private:
  // Owned in owning mode, null in shared mode; registry_/log_ are the
  // working pointers either way (heap-stable, so the loop stays movable).
  std::unique_ptr<EngineRegistry> owned_registry_;
  std::unique_ptr<SessionLogManager> owned_log_;
  EngineRegistry* registry_ = nullptr;
  SessionLogManager* log_ = nullptr;  // null = durability off
  CommandLoopOptions options_;
  size_t error_count_ = 0;
};

}  // namespace shapcq

#endif  // SHAPCQ_SERVICE_COMMAND_LOOP_H_
