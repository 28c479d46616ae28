#include "service/net/tcp_server.h"

#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include "service/net/fd_stream.h"
#include "util/thread_pool.h"

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace shapcq {

namespace {

// Best-effort one-shot reply on a socket we are about to close (the
// overload rejection); partial sends and errors are not retried — the
// point is closing, not delivery guarantees.
void SendLine(int fd, const std::string& line) {
  (void)::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
}

// Orderly close of a rejected connection. close() with unread bytes in the
// receive queue sends RST, which can destroy the rejection line still in
// flight to the client — so half-close our side and drain what the client
// already sent (bounded: one short poll window, a few KB) before closing.
void CloseRejected(int fd) {
  ::shutdown(fd, SHUT_WR);
  char sink[1024];
  for (int rounds = 0; rounds < 8; ++rounds) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (::poll(&pfd, 1, 50) <= 0) break;
    const ssize_t got = ::recv(fd, sink, sizeof sink, 0);
    if (got <= 0) break;
  }
  ::close(fd);
}

}  // namespace

struct TcpServer::Impl {
  TcpServerOptions options;
  CommandLoopOptions loop_options;
  EngineRegistry* registry = nullptr;
  SessionLogManager* log = nullptr;

  int listen_fd = -1;
  uint16_t bound_port = 0;
  std::unique_ptr<ThreadPool> pool;

  // live_conns is the drain set: a connection registers its fd before its
  // worker starts and erases it (same mutex) before closing, so the drain
  // never SHUT_RDs a recycled descriptor.
  std::mutex live_mutex;
  std::set<int> live_conns;
  std::atomic<size_t> live{0};
  std::atomic<size_t> total_errors{0};
  std::atomic<size_t> rejected{0};
  std::atomic<bool> shutdown_requested{false};

  ~Impl() {
    if (listen_fd >= 0) ::close(listen_fd);
  }

  void CountIoTimeout() {
    if (loop_options.transport_stats != nullptr) {
      loop_options.transport_stats->io_timeouts.fetch_add(
          1, std::memory_order_relaxed);
    }
  }

  void HandleConnection(int fd) {
    {
      const int io_timeout = options.io_timeout_ms > 0
                                 ? static_cast<int>(options.io_timeout_ms)
                                 : -1;
      FdStreamBuf buf(fd, io_timeout);
      std::iostream stream(&buf);
      // Shared mode: this connection's loop borrows the server's registry
      // and log manager. Its stop flag is the read-timeout latch, so a line
      // the timeout cut short never runs; drain reaches the loop as EOF via
      // SHUT_RD, after the in-flight command completed.
      CommandLoop loop(loop_options, registry, log);
      loop.Run(stream, stream, buf.timed_out());
      total_errors.fetch_add(loop.error_count(), std::memory_order_relaxed);
      if (*buf.timed_out()) CountIoTimeout();
    }
    {
      std::lock_guard<std::mutex> lock(live_mutex);
      live_conns.erase(fd);
    }
    ::close(fd);
    live.fetch_sub(1, std::memory_order_relaxed);
  }
};

TcpServer::TcpServer(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
TcpServer::TcpServer(TcpServer&&) noexcept = default;
TcpServer& TcpServer::operator=(TcpServer&&) noexcept = default;
TcpServer::~TcpServer() = default;

Result<TcpServer> TcpServer::Listen(const TcpServerOptions& options,
                                    const CommandLoopOptions& loop_options,
                                    EngineRegistry* registry,
                                    SessionLogManager* log) {
  using R = Result<TcpServer>;
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  impl->loop_options = loop_options;
  impl->registry = registry;
  impl->log = log;

  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
  struct addrinfo* found = nullptr;
  const int rc = ::getaddrinfo(options.host.c_str(),
                               std::to_string(options.port).c_str(), &hints,
                               &found);
  if (rc != 0) {
    return R::Error("listen " + options.host + ": " + ::gai_strerror(rc));
  }

  std::string last_error = "no usable address";
  for (struct addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
        ::listen(fd, 128) != 0) {
      last_error = std::strerror(errno);
      ::close(fd);
      continue;
    }
    impl->listen_fd = fd;
    break;
  }
  ::freeaddrinfo(found);
  if (impl->listen_fd < 0) {
    return R::Error("listen " + options.host + ":" +
                    std::to_string(options.port) + ": " + last_error);
  }

  // Resolve the bound port (meaningful when options.port was 0).
  struct sockaddr_storage addr;
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(impl->listen_fd,
                    reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) == 0) {
    if (addr.ss_family == AF_INET) {
      impl->bound_port =
          ntohs(reinterpret_cast<struct sockaddr_in*>(&addr)->sin_port);
    } else if (addr.ss_family == AF_INET6) {
      impl->bound_port =
          ntohs(reinterpret_cast<struct sockaddr_in6*>(&addr)->sin6_port);
    }
  }

  const size_t pool_size =
      impl->options.max_connections > 0 ? impl->options.max_connections : 1;
  impl->pool = std::make_unique<ThreadPool>(pool_size);
  return R::Ok(TcpServer(std::move(impl)));
}

uint16_t TcpServer::port() const { return impl_->bound_port; }

size_t TcpServer::Serve(const volatile std::sig_atomic_t* stop) {
  size_t admitted = 0;
  struct pollfd pfd;
  pfd.fd = impl_->listen_fd;
  pfd.events = POLLIN;

  auto should_stop = [&]() {
    return (stop != nullptr && *stop) ||
           impl_->shutdown_requested.load(std::memory_order_relaxed);
  };

  while (!should_stop()) {
    pfd.revents = 0;
    // 100 ms tick: the latency bound on noticing the stop flag (a signal
    // also EINTRs the poll, so SIGTERM reacts immediately).
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // listener gone; drain below
    }
    if (ready == 0 || (pfd.revents & POLLIN) == 0) continue;

    const int fd = ::accept(impl_->listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
          errno == ECONNABORTED) {
        continue;
      }
      break;
    }
    // Atomic admission: claim a slot before handing off; over the cap,
    // reply-and-close instead of queueing invisibly.
    if (impl_->live.fetch_add(1, std::memory_order_relaxed) >=
        impl_->options.max_connections) {
      impl_->live.fetch_sub(1, std::memory_order_relaxed);
      impl_->rejected.fetch_add(1, std::memory_order_relaxed);
      SendLine(fd, "error: [E_OVERLOAD] server at connection cap (max " +
                       std::to_string(impl_->options.max_connections) +
                       ")\n");
      CloseRejected(fd);
      continue;
    }
    ++admitted;
    {
      std::lock_guard<std::mutex> lock(impl_->live_mutex);
      impl_->live_conns.insert(fd);
    }
    Impl* impl = impl_.get();
    impl_->pool->Submit([impl, fd]() { impl->HandleConnection(fd); });
  }

  // Drain: no new clients, half-close the live ones (the in-flight command
  // finishes, the next read is EOF), join the workers.
  ::close(impl_->listen_fd);
  impl_->listen_fd = -1;
  {
    std::lock_guard<std::mutex> lock(impl_->live_mutex);
    for (const int fd : impl_->live_conns) ::shutdown(fd, SHUT_RD);
  }
  impl_->pool->Wait();
  return admitted;
}

void TcpServer::Shutdown() {
  impl_->shutdown_requested.store(true, std::memory_order_relaxed);
}

size_t TcpServer::total_errors() const {
  return impl_->total_errors.load(std::memory_order_relaxed);
}

size_t TcpServer::rejected_connections() const {
  return impl_->rejected.load(std::memory_order_relaxed);
}

}  // namespace shapcq
