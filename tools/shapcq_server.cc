// shapcq_server — long-lived attribution server over incremental
// ShapleyEngines.
//
// Speaks the line protocol of src/service/command_loop.h on stdin/stdout
// (or replays a session script with --script), or serves many concurrent
// TCP clients with --listen HOST:PORT over a shared, lock-striped
// registry. One process holds many open sessions; each session's engine is
// maintained incrementally across DELTA batches and evicted
// least-recently-used under memory pressure. With --log-dir, every session
// is backed by a write-ahead log and a killed server resumes bit-identical
// on restart.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "db/textio.h"
#include "service/command_loop.h"
#include "service/net/tcp_server.h"
#include "service/report_request.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStopSignal(int /*signum*/) { g_stop = 1; }

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: shapcq_server [--script FILE | --listen HOST:PORT]\n"
      "                     [--threads N]\n"
      "                     [--budget-bytes B] [--max-resident K]\n"
      "                     [--log-dir DIR] [--fsync={always,batch,off}]\n"
      "                     [--snapshot-every N] [--max-line-bytes N]\n"
      "                     [--max-facts N] [--max-conns N] [--stripes N]\n"
      "                     [--queue-bound N] [--stats-bytes={exact,off}]\n"
      "                     [--default-deadline-ms N] [--io-timeout-ms N]\n"
      "                     [--idle-timeout-ms N]\n"
      "\n"
      "Long-lived attribution server: one incremental Shapley engine per\n"
      "open session, byte-budgeted LRU eviction, rebuild-on-readmission,\n"
      "optional per-session write-ahead logs with crash recovery.\n"
      "Reads one command per line from stdin (or FILE with --script), or\n"
      "serves many concurrent TCP clients with --listen, and writes\n"
      "results to stdout (or each client's socket). Commands:\n"
      "\n"
      "  OPEN <session> <query-rule>\n"
      "      Open a session with an empty database. The query must be\n"
      "      safe and self-join-free; hierarchical queries get the exact\n"
      "      incremental engine, non-hierarchical ones are admitted as\n"
      "      approx-only sessions (acked 'ok open <id> approx-only') whose\n"
      "      reports must pass approx=EPS,DELTA. E.g.:\n"
      "        OPEN s1 q() :- Stud(x), not TA(x), Reg(x,y)\n"
      "  DELTA <session> + <fact-literal>\n"
      "  DELTA <session> - <fact-literal>\n"
      "      Insert or delete one fact; '*' marks endogenous, e.g.:\n"
      "        DELTA s1 + Reg(Adam,OS)*\n"
      "      Deletes name the fact by literal. While the session's engine\n"
      "      is resident, each delta patches one root-to-leaf path; after\n"
      "      an eviction, deltas apply to the retained database and the\n"
      "      next REPORT rebuilds.\n"
      "  REPORT <session> [key=value ...]\n"
      "      Stream the ranked attribution table (every endogenous fact's\n"
      "      Shapley value). One grammar with shapcq_cli's report flags:\n"
      "        top_k=K          keep only the K highest-ranked rows\n"
      "                         (0 = all)\n"
      "        threads=N        worker threads (1 = serial, 0 = all\n"
      "                         hardware threads, at most 256; values\n"
      "                         are identical at any count)\n"
      "        approx=EPS,DELTA sampling tier: additive error EPS at\n"
      "                         joint failure probability DELTA, both in\n"
      "                         (0,1); approx=EPS defaults DELTA to 0.05.\n"
      "                         Required on approx-only sessions; rows\n"
      "                         then carry +-ci and sample counts.\n"
      "        seed=S           RNG seed of the sampling tier (default 0)\n"
      "        max_samples=M    per-orbit sample cap (0 = the full\n"
      "                         Hoeffding count; capping widens the\n"
      "                         intervals)\n"
      "        force_approx=0|1 sample even when an exact engine applies\n"
      "        deadline_ms=N    wall-clock budget for this report; expiry\n"
      "                         returns 'error: [E_DEADLINE] ...' (or\n"
      "                         degrades, per on_deadline). 0 = none —\n"
      "                         also overrides --default-deadline-ms\n"
      "        on_deadline=error|approx\n"
      "                         policy when an exact report's deadline\n"
      "                         expires: 'error' (default) fails with\n"
      "                         [E_DEADLINE]; 'approx' answers from the\n"
      "                         sampling tier (work-bounded, 'approx:'\n"
      "                         provenance line). A later REPORT without a\n"
      "                         deadline is bit-identical to an undeadlined\n"
      "                         run either way.\n"
      "  SNAPSHOT <session>\n"
      "      Checkpoint the session's fact table into its write-ahead log\n"
      "      and drop the replayed-past prefix (durability only; bounds\n"
      "      recovery replay time).\n"
      "  STATS            registry counters (sessions, hits, evictions,\n"
      "                   resident engine bytes; +log bytes with --log-dir)\n"
      "  STATS <session>  per-session counters (+log_bytes and\n"
      "                   since_snapshot with --log-dir)\n"
      "  CLOSE <session>  close the session (removes its log)\n"
      "\n"
      "Blank lines and '#' comments are skipped; commands echo as\n"
      "'> <line>' so a transcript reads as a session log. The exit code is\n"
      "non-zero if any command errored (0 in listen mode: command errors\n"
      "belong to clients). SIGTERM/SIGINT drain the current command (in\n"
      "listen mode: stop accepting, drain every connection's in-flight\n"
      "command), sync all session logs, and exit cleanly. Log failures\n"
      "and resource-guard rejections print structured codes ([E_LOG_IO],\n"
      "[E_LINE_TOO_LONG], [E_FACT_CAP], [E_OVERLOAD]) and keep the loop\n"
      "alive.\n"
      "\n"
      "  --script FILE      replay FILE instead of reading stdin\n"
      "  --threads N        default REPORT worker threads (1 = serial,\n"
      "                     0 = all hardware threads, at most 256; values\n"
      "                     are identical at any thread count)\n"
      "  --budget-bytes B   total resident engine bytes before LRU eviction\n"
      "                     (0 = unlimited)\n"
      "  --max-resident K   max resident engines before LRU eviction\n"
      "                     (0 = unlimited; deterministic across platforms)\n"
      "  --log-dir DIR      durable sessions: one append-only write-ahead\n"
      "                     log per session under DIR. On startup every log\n"
      "                     in DIR is replayed (torn tails truncated) and\n"
      "                     the sessions resume where they left off.\n"
      "  --fsync=POLICY     when appended records reach stable storage:\n"
      "                     'always' (per record; survives OS crash),\n"
      "                     'batch' (at REPORT/SNAPSHOT/CLOSE/shutdown;\n"
      "                     bounded loss window on OS crash — the default),\n"
      "                     'off' (page cache only; still survives a\n"
      "                     process kill)\n"
      "  --snapshot-every N auto-compact a session's log after N deltas\n"
      "                     since its last snapshot (0 = only explicit\n"
      "                     SNAPSHOT commands)\n"
      "  --max-line-bytes N reject longer input lines (default 1048576,\n"
      "                     0 = unlimited)\n"
      "  --max-facts N      per-session live-fact cap (0 = unlimited;\n"
      "                     race-free under concurrent clients — enforced\n"
      "                     under the session's stripe lock)\n"
      "  --listen HOST:PORT serve concurrent TCP clients instead of stdin\n"
      "                     (one protocol loop per connection over one\n"
      "                     shared registry; port 0 = OS-assigned). The\n"
      "                     bound address is printed to stderr as\n"
      "                     'listening on HOST:PORT' once accepting.\n"
      "  --max-conns N      concurrent-connection cap in listen mode; a\n"
      "                     connection over the cap receives one\n"
      "                     'error: [E_OVERLOAD] ...' line and is closed\n"
      "                     (default 64)\n"
      "  --stripes N        lock stripes sessions are hashed across, so\n"
      "                     commands on distinct sessions run in parallel\n"
      "                     (default 8 in listen mode, 1 otherwise;\n"
      "                     1 = fully serialized — the golden-transcript\n"
      "                     configuration)\n"
      "  --queue-bound N    commands allowed to queue behind one stripe's\n"
      "                     lock before the next fails fast with\n"
      "                     'error: [E_OVERLOAD] ...' (0 = block forever,\n"
      "                     the default)\n"
      "  --default-deadline-ms N\n"
      "                     deadline for REPORTs that carry no deadline_ms\n"
      "                     key of their own (0 = none, the default); a\n"
      "                     request's explicit deadline_ms — even =0 —\n"
      "                     always wins\n"
      "  --io-timeout-ms N  listen mode: longest a connection's read waits\n"
      "                     for the peer to send anything before the\n"
      "                     connection is closed (0 = forever, the\n"
      "                     default); reaps dead peers and slow-loris\n"
      "                     clients, counted as io_timeouts= in STATS\n"
      "  --idle-timeout-ms N\n"
      "                     listen mode: connections that have waited\n"
      "                     N ms for the peer's next command are\n"
      "                     half-closed by the watchdog (a running\n"
      "                     command is never idle; 0 = never, the\n"
      "                     default); also counted as io_timeouts=\n"
      "  --stats-bytes=MODE 'exact' (default) includes the platform-\n"
      "                     dependent bytes= engine-size estimate in the\n"
      "                     global STATS line; 'off' omits it so\n"
      "                     transcripts diff byte-identical across\n"
      "                     platforms (CI golden files)\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace shapcq;
  std::string script_path;
  std::string listen_address;
  bool stripes_given = false;
  CommandLoopOptions options;
  TcpServerOptions net_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        PrintUsage();
        std::exit(2);
      }
      return argv[++i];
    };
    auto next_size = [&](const char* flag) -> size_t {
      const char* text = next();
      size_t value = 0;
      if (!ParseSizeStrict(text, &value)) {
        std::fprintf(stderr, "bad %s value: %s\n", flag, text);
        std::exit(2);
      }
      return value;
    };
    if (arg == "--script") {
      script_path = next();
    } else if (arg == "--threads") {
      options.default_threads = next_size("--threads");
      if (options.default_threads > kMaxReportThreads) {
        std::fprintf(stderr, "bad --threads value: %zu (at most %zu)\n",
                     options.default_threads, kMaxReportThreads);
        return 2;
      }
    } else if (arg == "--budget-bytes") {
      options.registry.engine_byte_budget = next_size("--budget-bytes");
    } else if (arg == "--max-resident") {
      options.registry.max_resident_engines = next_size("--max-resident");
    } else if (arg == "--log-dir") {
      options.log_dir = next();
    } else if (arg.rfind("--fsync=", 0) == 0) {
      auto policy = ParseFsyncPolicy(arg.substr(std::strlen("--fsync=")));
      if (!policy.ok()) {
        std::fprintf(stderr, "%s\n", policy.error().c_str());
        return 2;
      }
      options.fsync = policy.value();
    } else if (arg == "--snapshot-every") {
      options.snapshot_every = next_size("--snapshot-every");
    } else if (arg == "--max-line-bytes") {
      options.max_line_bytes = next_size("--max-line-bytes");
    } else if (arg == "--max-facts") {
      options.registry.max_session_facts = next_size("--max-facts");
    } else if (arg == "--listen") {
      listen_address = next();
    } else if (arg == "--max-conns") {
      net_options.max_connections = next_size("--max-conns");
    } else if (arg == "--stripes") {
      options.registry.num_stripes = next_size("--stripes");
      stripes_given = true;
    } else if (arg == "--queue-bound") {
      options.registry.max_stripe_queue = next_size("--queue-bound");
    } else if (arg == "--default-deadline-ms") {
      options.default_deadline_ms = next_size("--default-deadline-ms");
    } else if (arg == "--io-timeout-ms") {
      net_options.io_timeout_ms = next_size("--io-timeout-ms");
    } else if (arg == "--idle-timeout-ms") {
      net_options.idle_timeout_ms = next_size("--idle-timeout-ms");
    } else if (arg.rfind("--stats-bytes=", 0) == 0) {
      const std::string mode = arg.substr(std::strlen("--stats-bytes="));
      if (mode == "exact") {
        options.stats_show_bytes = true;
      } else if (mode == "off") {
        options.stats_show_bytes = false;
      } else {
        std::fprintf(stderr,
                     "bad --stats-bytes value: %s (expected exact or off)\n",
                     mode.c_str());
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }

  if (!listen_address.empty() && !script_path.empty()) {
    std::fprintf(stderr, "--listen and --script are mutually exclusive\n");
    return 2;
  }

  // Graceful shutdown: drain the in-flight command (every connection's, in
  // listen mode), sync logs, exit normally. No SA_RESTART, so a signal
  // interrupts a blocking stdin read or the accept poll instead of waiting
  // for the next line/client.
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleStopSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  if (!listen_address.empty()) {
    const size_t colon = listen_address.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= listen_address.size()) {
      std::fprintf(stderr, "bad --listen value: %s (expected HOST:PORT)\n",
                   listen_address.c_str());
      return 2;
    }
    net_options.host = listen_address.substr(0, colon);
    size_t port_value = 0;
    if (!ParseSizeStrict(listen_address.substr(colon + 1), &port_value) ||
        port_value > 65535) {
      std::fprintf(stderr, "bad --listen port: %s\n",
                   listen_address.substr(colon + 1).c_str());
      return 2;
    }
    net_options.port = static_cast<uint16_t>(port_value);
    // Concurrent clients by default get concurrent stripes; --stripes 1
    // restores fully serialized (deterministic-transcript) semantics.
    if (!stripes_given) options.registry.num_stripes = 8;

    // A vanished client must surface as a failed send on its connection,
    // never as a process-killing SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    // One transport-counter block for all connections: STATS from any
    // client shows the server-wide io_timeouts= tally.
    TransportStats transport;
    options.transport_stats = &transport;

    EngineRegistry registry(options.registry);
    SessionLogManager log_manager;
    SessionLogManager* log = nullptr;
    if (!options.log_dir.empty()) {
      auto opened = SessionLogManager::Open(options.log_dir, options.fsync,
                                            options.snapshot_every);
      if (!opened.ok()) {
        std::fprintf(stderr, "shapcq_server: %s\n", opened.error().c_str());
        return 1;
      }
      log_manager = std::move(opened).value();
      auto recovered = log_manager.Recover(&registry);
      if (!recovered.ok()) {
        std::fprintf(stderr, "shapcq_server: %s\n",
                     recovered.error().c_str());
        return 1;
      }
      std::fprintf(stderr, "shapcq_server: recovered sessions=%zu from %s\n",
                   recovered.value(), options.log_dir.c_str());
      log = &log_manager;
    }

    auto listening =
        TcpServer::Listen(net_options, options, &registry, log);
    if (!listening.ok()) {
      std::fprintf(stderr, "shapcq_server: %s\n", listening.error().c_str());
      return 1;
    }
    TcpServer server = std::move(listening).value();
    // Harnesses parse this line for the resolved (possibly ephemeral) port.
    std::fprintf(stderr, "shapcq_server: listening on %s:%u\n",
                 net_options.host.c_str(),
                 static_cast<unsigned>(server.port()));
    const size_t served = server.Serve(&g_stop);
    if (log != nullptr) {
      auto synced = log->SyncAll();
      if (!synced.ok()) {
        std::fprintf(stderr, "shapcq_server: %s\n", synced.error().c_str());
        return 1;
      }
    }
    std::fprintf(stderr,
                 "shapcq_server: drained, served=%zu client_errors=%zu "
                 "rejected=%zu io_timeouts=%zu\n",
                 served, server.total_errors(),
                 server.rejected_connections(),
                 transport.io_timeouts.load(std::memory_order_relaxed));
    // Command errors belong to the clients that issued them; a drained
    // server exits clean.
    return 0;
  }

  CommandLoop loop(options);
  auto recovered = loop.InitDurability();
  if (!recovered.ok()) {
    std::fprintf(stderr, "shapcq_server: %s\n", recovered.error().c_str());
    return 1;
  }
  if (!options.log_dir.empty()) {
    std::fprintf(stderr, "shapcq_server: recovered sessions=%zu from %s\n",
                 recovered.value(), options.log_dir.c_str());
  }

  int code;
  if (!script_path.empty()) {
    std::ifstream script(script_path);
    if (!script) {
      std::fprintf(stderr, "cannot open script %s\n", script_path.c_str());
      return 1;
    }
    code = loop.Run(script, std::cout, &g_stop);
  } else {
    code = loop.Run(std::cin, std::cout, &g_stop);
  }
  if (g_stop) {
    std::fprintf(stderr,
                 "shapcq_server: caught signal, drained and synced logs\n");
  }
  return code;
}
