// Deadline-aware serving, end to end over BOTH transports: a REPORT with
// deadline_ms=1 on a large session expires promptly (structured
// [E_DEADLINE], or an on_deadline=approx degradation), and the SAME session
// then serves an undeadlined REPORT bit-identical to a fresh serial oracle
// — over ExecuteLine (the stdin/script transport) and over a real TCP
// connection. Plus the socket reap: the read timeout ends a silent client
// without touching its session or its neighbors and reaps a stalled
// reader, counting into TransportStats::io_timeouts. A connection whose own
// command is still running is never reaped, and a command line the timeout
// cut short never runs.
//
// Deadline expiry here is genuinely timing-based (the protocol carries
// milliseconds, not check ordinals), so the session is GROWN until the 1 ms
// report reliably expires — deterministic outcome, without assuming any
// particular machine speed. The deterministic-point battery lives in
// cancel_test.cc.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/command_loop.h"
#include "service/net/tcp_server.h"

namespace shapcq {
namespace {

// The session script: a hierarchical query over n student triples — wide
// enough (at the grown size) that the exact build + sweep dwarfs 1 ms.
std::vector<std::string> SessionScript(size_t n) {
  std::vector<std::string> lines;
  lines.push_back("OPEN big q() :- Stud(x), not TA(x), Reg(x,y)");
  for (size_t i = 0; i < n; ++i) {
    const std::string s = "s" + std::to_string(i);
    lines.push_back("DELTA big + Stud(" + s + ")");
    lines.push_back("DELTA big + Reg(" + s + ",c" + std::to_string(i % 7) +
                    ")*");
    if (i % 3 == 0) lines.push_back("DELTA big + TA(" + s + ")*");
  }
  return lines;
}

void Replay(CommandLoop* loop, const std::vector<std::string>& lines) {
  std::string sink;
  for (const std::string& line : lines) loop->ExecuteLine(line, &sink);
  ASSERT_EQ(loop->error_count(), 0u) << sink;
}

// Grows the session until `report_line` produces `needle`, returning the
// loop (with the deadline already tripped) and the size that tripped it.
struct GrownLoop {
  std::unique_ptr<CommandLoop> loop;
  size_t n = 0;
  std::string output;  // transcript of the tripping report_line
};

GrownLoop GrowUntilDeadline(const CommandLoopOptions& options,
                            const std::string& report_line,
                            const std::string& needle,
                            size_t start_n = 256) {
  GrownLoop grown;
  for (size_t n = start_n; n <= (1u << 16); n *= 2) {
    auto loop = std::make_unique<CommandLoop>(options);
    Replay(loop.get(), SessionScript(n));
    std::string out;
    loop->ExecuteLine(report_line, &out);
    if (out.find(needle) != std::string::npos) {
      grown.loop = std::move(loop);
      grown.n = n;
      grown.output = std::move(out);
      return grown;
    }
  }
  return grown;  // loop == nullptr: never expired (the test fails on it)
}

// ---------------------------------------------------------------------------
// stdin/script transport.
// ---------------------------------------------------------------------------

TEST(DeadlineProtocolTest, ExpiredReportThenUndeadlinedRetryBitIdentical) {
  GrownLoop grown = GrowUntilDeadline(CommandLoopOptions{},
                                      "REPORT big deadline_ms=1",
                                      "[E_DEADLINE]");
  ASSERT_NE(grown.loop, nullptr) << "deadline_ms=1 never expired";
  EXPECT_NE(grown.output.find(
                "error: [E_DEADLINE] report big: deadline_ms=1 exceeded"),
            std::string::npos)
      << grown.output;

  // The undeadlined retry on the SAME loop (whose session just blew its
  // deadline) must be byte-identical to a fresh serial oracle's report.
  std::string retry;
  grown.loop->ExecuteLine("REPORT big", &retry);
  CommandLoop oracle((CommandLoopOptions()));
  Replay(&oracle, SessionScript(grown.n));
  std::string want;
  oracle.ExecuteLine("REPORT big", &want);
  EXPECT_EQ(retry, want);
  EXPECT_NE(retry.find("end report big"), std::string::npos);

  // Counters: globally and per session, once; the gauge is idle again.
  std::string stats;
  grown.loop->ExecuteLine("STATS", &stats);
  EXPECT_NE(stats.find(" deadline_exceeded=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find(" inflight=0"), std::string::npos) << stats;
  std::string session_stats;
  grown.loop->ExecuteLine("STATS big", &session_stats);
  EXPECT_NE(session_stats.find(" deadline_exceeded=1"), std::string::npos)
      << session_stats;
}

TEST(DeadlineProtocolTest, PolicyApproxDegradesWithProvenance) {
  // Start small: the degraded sampling report's cost scales with the
  // session, so find the smallest size whose exact build blows 1 ms.
  GrownLoop grown = GrowUntilDeadline(
      CommandLoopOptions{},
      "REPORT big deadline_ms=1 on_deadline=approx", "approx:",
      /*start_n=*/32);
  ASSERT_NE(grown.loop, nullptr) << "degradation never triggered";
  // Degraded, not errored: a served report with sampling provenance.
  EXPECT_EQ(grown.output.find("error:"), std::string::npos) << grown.output;
  EXPECT_NE(grown.output.find("report big rows="), std::string::npos);
  EXPECT_NE(grown.output.find("end report big"), std::string::npos);

  std::string stats;
  grown.loop->ExecuteLine("STATS", &stats);
  EXPECT_NE(stats.find(" deadline_exceeded=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find(" degraded_to_approx=1"), std::string::npos) << stats;

  // The degraded answer was not cached: the next plain report is exact.
  std::string retry;
  grown.loop->ExecuteLine("REPORT big", &retry);
  EXPECT_EQ(retry.find("approx:"), std::string::npos) << retry;
  CommandLoop oracle((CommandLoopOptions()));
  Replay(&oracle, SessionScript(grown.n));
  std::string want;
  oracle.ExecuteLine("REPORT big", &want);
  EXPECT_EQ(retry, want);
}

TEST(DeadlineProtocolTest, ServerDefaultDeadlineAppliesAndZeroOptsOut) {
  CommandLoopOptions options;
  options.default_deadline_ms = 1;
  // The bare REPORT carries no deadline keys — the server default applies
  // (to a request with other keys but no deadline keys just the same).
  GrownLoop grown =
      GrowUntilDeadline(options, "REPORT big", "[E_DEADLINE]");
  ASSERT_NE(grown.loop, nullptr) << "server default deadline never fired";
  EXPECT_NE(grown.output.find("deadline_ms=1 exceeded"), std::string::npos)
      << grown.output;

  // Other keys, still no deadline keys: the default applies. Grown on a
  // session of its own, because a second 1 ms expiry on the session above
  // is not assured: when its expiry lands in the sweep, the engine stays
  // resident (a cancelled valuation keeps no values, but the build is
  // done), and a repeat that re-sweeps bit-identically can finish in time.
  GrownLoop top_k = GrowUntilDeadline(options, "REPORT big top_k=3",
                                      "[E_DEADLINE]");
  ASSERT_NE(top_k.loop, nullptr) << "server default deadline never fired";
  EXPECT_NE(top_k.output.find("[E_DEADLINE]"), std::string::npos)
      << top_k.output;

  // deadline_ms=0 is the per-request opt-out: the report runs undeadlined.
  std::string opted_out;
  grown.loop->ExecuteLine("REPORT big deadline_ms=0", &opted_out);
  EXPECT_EQ(opted_out.find("[E_DEADLINE]"), std::string::npos) << opted_out;
  EXPECT_NE(opted_out.find("end report big"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Socket transport.
// ---------------------------------------------------------------------------

// A blocking test client over one connection (the service_net_test shape).
class Client {
 public:
  explicit Client(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }

  void Send(const std::string& text) {
    ASSERT_TRUE(connected());
    size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t n = ::send(fd_, text.data() + sent, text.size() - sent, 0);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  }

  void CloseWrite() { ::shutdown(fd_, SHUT_WR); }

  std::string ReadLine() {
    std::string line;
    char ch = 0;
    while (::recv(fd_, &ch, 1, 0) == 1) {
      if (ch == '\n') return line;
      line.push_back(ch);
    }
    return line;
  }

  std::string ReadToEof() {
    std::string all;
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::recv(fd_, buf, sizeof(buf), 0)) > 0) {
      all.append(buf, static_cast<size_t>(n));
    }
    return all;
  }

 private:
  int fd_ = -1;
};

std::string Roundtrip(uint16_t port, const std::string& script) {
  Client client(port);
  EXPECT_TRUE(client.connected());
  if (!client.connected()) return "";
  client.Send(script);
  client.CloseWrite();
  return client.ReadToEof();
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string joined;
  for (const std::string& line : lines) joined += line + "\n";
  return joined;
}

TEST(DeadlineSocketTest, ExpiredReportOverSocketThenRetryBitIdentical) {
  std::string transcript;
  size_t n = 0;
  for (n = 256; n <= (1u << 16); n *= 2) {
    CommandLoopOptions loop_options;
    loop_options.registry.num_stripes = 8;
    EngineRegistry registry(loop_options.registry);
    auto listening = TcpServer::Listen(TcpServerOptions{}, loop_options,
                                       &registry, nullptr);
    ASSERT_TRUE(listening.ok()) << listening.error();
    TcpServer server = std::move(listening).value();
    std::thread serve_thread([&server]() { server.Serve(nullptr); });

    std::string script = JoinLines(SessionScript(n));
    script += "REPORT big deadline_ms=1\n";
    script += "REPORT big\n";
    transcript = Roundtrip(server.port(), script);
    server.Shutdown();
    serve_thread.join();
    if (transcript.find("[E_DEADLINE]") != std::string::npos) break;
  }
  ASSERT_LE(n, 1u << 16) << "deadline_ms=1 never expired over the socket";
  EXPECT_NE(transcript.find(
                "error: [E_DEADLINE] report big: deadline_ms=1 exceeded"),
            std::string::npos);

  // The undeadlined retry (same connection, right after the expiry) must be
  // byte-identical to a fresh serial loop's report of the same session.
  const size_t retry_at = transcript.rfind("> REPORT big\n");
  ASSERT_NE(retry_at, std::string::npos);
  CommandLoop oracle((CommandLoopOptions()));
  Replay(&oracle, SessionScript(n));
  std::string want;
  oracle.ExecuteLine("REPORT big", &want);
  EXPECT_EQ(transcript.substr(retry_at), want);
}

TEST(DeadlineSocketTest, ReadTimeoutReapsSilentClientWithoutCollateral) {
  TransportStats transport;
  CommandLoopOptions loop_options;
  loop_options.registry.num_stripes = 8;
  loop_options.transport_stats = &transport;
  EngineRegistry registry(loop_options.registry);
  TcpServerOptions net_options;
  net_options.io_timeout_ms = 150;
  auto listening =
      TcpServer::Listen(net_options, loop_options, &registry, nullptr);
  ASSERT_TRUE(listening.ok()) << listening.error();
  TcpServer server = std::move(listening).value();
  std::thread serve_thread([&server]() { server.Serve(nullptr); });

  // The victim: opens a session, then goes silent without closing.
  Client silent(server.port());
  ASSERT_TRUE(silent.connected());
  silent.Send("OPEN a q() :- R(x)\n");
  EXPECT_EQ(silent.ReadLine(), "> OPEN a q() :- R(x)");
  EXPECT_EQ(silent.ReadLine(), "ok open a");

  // The read timeout reaps it after io_timeout_ms of silence; the
  // client observes an orderly EOF — no error line, no reset.
  EXPECT_EQ(silent.ReadToEof(), "");
  EXPECT_GE(transport.io_timeouts.load(), 1u);

  // No collateral: the reaped client's session survives in the registry,
  // and a fresh active client serves exactly like a serial loop would.
  EXPECT_TRUE(registry.Has("a"));
  const std::string script =
      "OPEN b q() :- R(x)\nDELTA b + R(a)*\nREPORT b\nCLOSE b\n";
  const std::string got = Roundtrip(server.port(), script);
  CommandLoop oracle((CommandLoopOptions()));
  std::string want;
  oracle.ExecuteLine("OPEN b q() :- R(x)", &want);
  oracle.ExecuteLine("DELTA b + R(a)*", &want);
  oracle.ExecuteLine("REPORT b", &want);
  oracle.ExecuteLine("CLOSE b", &want);
  EXPECT_EQ(got, want);

  server.Shutdown();
  serve_thread.join();
  EXPECT_EQ(server.total_errors(), 0u);
}

TEST(DeadlineSocketTest, ReadTimeoutSparesTheConnectionOfARunningCommand) {
  // The read timeout runs only while the connection waits for its peer: a
  // connection whose own command computes for several limits is busy, not
  // idle, so the next command on it must still be answered.
  TransportStats transport;
  CommandLoopOptions loop_options;
  loop_options.registry.num_stripes = 8;
  loop_options.transport_stats = &transport;
  EngineRegistry registry(loop_options.registry);
  TcpServerOptions net_options;
  net_options.io_timeout_ms = 100;
  auto listening =
      TcpServer::Listen(net_options, loop_options, &registry, nullptr);
  ASSERT_TRUE(listening.ok()) << listening.error();
  TcpServer server = std::move(listening).value();
  std::thread serve_thread([&server]() { server.Serve(nullptr); });

  // An approx-only session: its sampling cost grows as 1/eps^2, so eps is
  // halved until one REPORT outlasts the limit four times over — the
  // workload is grown, not sized for a machine speed.
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  std::string script = "OPEN s q() :- R(x,y), S(x), T(y)\n";
  for (int i = 0; i < 5; ++i) {
    const std::string a = "a" + std::to_string(i);
    const std::string b = "b" + std::to_string(i);
    script += "DELTA s + R(" + a + "," + b + ")*\n";
    script += "DELTA s + S(" + a + ")*\n";
    script += "DELTA s + T(" + b + ")*\n";
  }
  client.Send(script);
  auto read_through = [&client](const std::string& last) {
    for (std::string line = client.ReadLine(); !line.empty();
         line = client.ReadLine()) {
      if (line.rfind("error:", 0) == 0) return false;
      if (line == last) return true;
    }
    return false;  // EOF
  };
  const auto limit = std::chrono::milliseconds(net_options.io_timeout_ms);
  bool answered = true;
  bool outlasted = false;
  for (double eps = 0.2; eps > 1e-3 && answered && !outlasted; eps /= 2) {
    const auto start = std::chrono::steady_clock::now();
    client.Send("REPORT s approx=" + std::to_string(eps) + ",0.001\n");
    answered = read_through("end report s");
    outlasted = std::chrono::steady_clock::now() - start >= 4 * limit;
  }
  EXPECT_TRUE(answered) << "a REPORT after a long one got no answer";
  EXPECT_TRUE(outlasted) << "no REPORT outlasted the read timeout";

  // The next command, after a pause shorter than the limit, is answered.
  std::this_thread::sleep_for(limit / 5);
  client.Send("STATS s\n");
  EXPECT_EQ(client.ReadLine(), "> STATS s");
  const std::string stats_line = client.ReadLine();
  EXPECT_EQ(stats_line.rfind("stats s ", 0), 0u) << stats_line;
  EXPECT_EQ(transport.io_timeouts.load(), 0u);

  client.CloseWrite();
  client.ReadToEof();
  server.Shutdown();
  serve_thread.join();
  EXPECT_EQ(server.total_errors(), 0u);
}

TEST(DeadlineSocketTest, IoTimeoutReapsStalledReaderAfterReply) {
  TransportStats transport;
  CommandLoopOptions loop_options;
  loop_options.registry.num_stripes = 8;
  loop_options.transport_stats = &transport;
  EngineRegistry registry(loop_options.registry);
  TcpServerOptions net_options;
  net_options.io_timeout_ms = 100;
  auto listening =
      TcpServer::Listen(net_options, loop_options, &registry, nullptr);
  ASSERT_TRUE(listening.ok()) << listening.error();
  TcpServer server = std::move(listening).value();
  std::thread serve_thread([&server]() { server.Serve(nullptr); });

  // One command, then a stall: the reply arrives in full, then the next
  // read's poll expires and the server ends the connection cleanly.
  Client stalled(server.port());
  ASSERT_TRUE(stalled.connected());
  stalled.Send("STATS\n");
  EXPECT_EQ(stalled.ReadLine(), "> STATS");
  const std::string stats_line = stalled.ReadLine();
  EXPECT_EQ(stats_line.rfind("stats sessions=0 ", 0), 0u) << stats_line;
  EXPECT_EQ(stalled.ReadToEof(), "");
  EXPECT_EQ(transport.io_timeouts.load(), 1u);
  EXPECT_EQ(server.total_errors(), 0u);

  server.Shutdown();
  serve_thread.join();
}

TEST(DeadlineSocketTest, ReadTimeoutDropsAHalfReadCommandLine) {
  // A client stalls mid-line past the read timeout: it has sent "CLOSE s1"
  // and would send "2\n" too late. The line the timeout cut short must not
  // run as CLOSE s1: the connection ends with no reply, and both sessions
  // stay open.
  TransportStats transport;
  CommandLoopOptions loop_options;
  loop_options.registry.num_stripes = 8;
  loop_options.transport_stats = &transport;
  EngineRegistry registry(loop_options.registry);
  TcpServerOptions net_options;
  net_options.io_timeout_ms = 150;
  auto listening =
      TcpServer::Listen(net_options, loop_options, &registry, nullptr);
  ASSERT_TRUE(listening.ok()) << listening.error();
  TcpServer server = std::move(listening).value();
  std::thread serve_thread([&server]() { server.Serve(nullptr); });

  Client client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send("OPEN s1 q() :- R(x)\nOPEN s12 q() :- R(x)\nCLOSE s1");
  EXPECT_EQ(client.ReadLine(), "> OPEN s1 q() :- R(x)");
  EXPECT_EQ(client.ReadLine(), "ok open s1");
  EXPECT_EQ(client.ReadLine(), "> OPEN s12 q() :- R(x)");
  EXPECT_EQ(client.ReadLine(), "ok open s12");
  EXPECT_EQ(client.ReadToEof(), "");
  EXPECT_TRUE(registry.Has("s1"));
  EXPECT_TRUE(registry.Has("s12"));
  EXPECT_EQ(transport.io_timeouts.load(), 1u);

  server.Shutdown();
  serve_thread.join();
  EXPECT_EQ(server.total_errors(), 0u);
}

}  // namespace
}  // namespace shapcq
