// TCP transport for the attribution server: many concurrent line-protocol
// clients over one shared, striped EngineRegistry.
//
// Thread-per-connection over util/thread_pool: the accept loop (Serve, the
// caller's thread) admits sockets and hands each to a pooled worker, which
// runs a shared-mode CommandLoop over an FdStreamBuf until the client
// closes. All connections share ONE registry and ONE SessionLogManager;
// per-session atomicity comes from the registry's stripe locks (see
// engine_registry.h) — the transport adds no locking of its own beyond the
// live-fd set.
//
// Admission control: at most options.max_connections concurrent clients
// (also the worker-pool size, so an admitted connection always has a
// thread). The connection over the cap receives one structured
// "error: [E_OVERLOAD] server at connection cap ..." line and is closed —
// fail fast and visibly, never queue invisibly.
//
// Timeouts: io_timeout_ms bounds each read's wait for peer bytes (the
// poll-based FdStreamBuf timeout). It is the one reap, for a dead peer, a
// slow loris and an idle client alike. A running command does not read, so
// it is never reaped, and the reap is orderly: the connection's next read
// sees EOF, its partial command line (if any) is dropped unrun, every other
// connection is untouched, and TransportStats::io_timeouts (the STATS
// io_timeouts= field) counts it.
//
// Graceful drain (SIGTERM with live clients): the stop flag flips, the
// accept loop notices within one 100 ms poll tick and stops admitting,
// every live connection is shutdown(SHUT_RD) — the in-flight command
// finishes and the next read returns EOF, so no command is cut off midway —
// and Serve joins the workers before returning. The caller then syncs the
// WALs (SessionLogManager::SyncAll) and exits 0; drain first, sync after,
// so the sync covers every drained command.

#ifndef SHAPCQ_SERVICE_NET_TCP_SERVER_H_
#define SHAPCQ_SERVICE_NET_TCP_SERVER_H_

#include <csignal>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "service/command_loop.h"
#include "service/engine_registry.h"
#include "service/session_log.h"
#include "util/result.h"

namespace shapcq {

/// Transport knobs (the protocol/registry knobs live in CommandLoopOptions).
struct TcpServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral: the OS picks, port() reports (tests and harnesses).
  uint16_t port = 0;
  /// Concurrent-connection cap, and the worker-pool size.
  size_t max_connections = 64;
  /// Longest a connection's read waits for the peer to send anything, in
  /// milliseconds (0 = forever). Expiry ends that connection through the
  /// ordinary EOF path — the dead-peer/slow-loris/idle reap — drops the
  /// command line it cut short, and counts one TransportStats::io_timeouts.
  size_t io_timeout_ms = 0;
};

/// A listening attribution server. Move-only; the listener socket is open
/// from Listen() until Serve() returns (or the server is destroyed).
class TcpServer {
 public:
  /// Binds and listens. `registry` and (nullable) `log` are borrowed and
  /// shared by every connection; `loop_options` configures each
  /// connection's CommandLoop (its registry/log_dir fields are ignored —
  /// the shared core wins). Fails with the socket error if the address
  /// cannot be bound.
  static Result<TcpServer> Listen(const TcpServerOptions& options,
                                  const CommandLoopOptions& loop_options,
                                  EngineRegistry* registry,
                                  SessionLogManager* log);

  /// Empty server (not listening); exists for Result<TcpServer>.
  TcpServer() = default;
  TcpServer(TcpServer&&) noexcept;
  TcpServer& operator=(TcpServer&&) noexcept;
  ~TcpServer();

  /// The bound port (resolves port 0 to the OS's choice).
  uint16_t port() const;

  /// Accepts and serves until *stop is set (SIGTERM/SIGINT) or Shutdown()
  /// is called, then drains: stops accepting, SHUT_RDs live connections,
  /// joins the workers. Returns the number of admitted connections.
  size_t Serve(const volatile std::sig_atomic_t* stop);

  /// Makes Serve() return (in-process tests; thread-safe, idempotent).
  void Shutdown();

  /// Protocol "error:" lines across all finished connections.
  size_t total_errors() const;
  /// Connections refused by the connection cap.
  size_t rejected_connections() const;

 private:
  struct Impl;
  explicit TcpServer(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace shapcq

#endif  // SHAPCQ_SERVICE_NET_TCP_SERVER_H_
