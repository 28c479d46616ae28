// TCP transport + striped registry under real concurrency: N socket
// clients on disjoint sessions must produce byte-identical transcripts to
// a serial replay of the same commands, the connection cap must reject
// with a structured overload, and Shutdown must drain cleanly. Runs under
// the ThreadSanitizer CI job (in-process server, no tool binaries needed),
// so the stripe locks, the shared log-manager mutex and the admission
// atomics are race-checked here.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/command_loop.h"
#include "service/net/tcp_server.h"

namespace shapcq {
namespace {

// A blocking test client over one connection.
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

  // One '\n'-terminated line (terminator stripped); "" on EOF.
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

// Connects, sends the whole script, half-closes, drains the reply.
std::string Roundtrip(uint16_t port, const std::string& script) {
  Client client(port);
  EXPECT_TRUE(client.connected());
  if (!client.connected()) return "";
  client.Send(script);
  client.CloseWrite();
  return client.ReadToEof();
}

// A mixed DELTA/REPORT workload on one private session.
std::string ClientScript(const std::string& id) {
  std::string script;
  script += "OPEN " + id + " q() :- Stud(x), not TA(x), Reg(x,y)\n";
  script += "DELTA " + id + " + Stud(ann)\n";
  script += "DELTA " + id + " + Stud(bob)\n";
  script += "DELTA " + id + " + Reg(ann,os_" + id + ")*\n";
  script += "REPORT " + id + "\n";
  script += "DELTA " + id + " + Reg(bob,db)*\n";
  script += "DELTA " + id + " + TA(bob)*\n";
  script += "REPORT " + id + " top_k=2\n";
  script += "DELTA " + id + " - Reg(bob,db)\n";
  script += "REPORT " + id + " threads=2\n";
  script += "STATS " + id + "\n";
  script += "CLOSE " + id + "\n";
  return script;
}

CommandLoopOptions ConcurrentOptions() {
  CommandLoopOptions options;
  options.registry.num_stripes = 8;
  return options;
}

TEST(ServiceNetTest, ConcurrentDisjointSessionsMatchSerialReplay) {
  CommandLoopOptions loop_options = ConcurrentOptions();
  EngineRegistry registry(loop_options.registry);
  TcpServerOptions net_options;  // ephemeral port
  auto listening =
      TcpServer::Listen(net_options, loop_options, &registry, nullptr);
  ASSERT_TRUE(listening.ok()) << listening.error();
  TcpServer server = std::move(listening).value();
  std::thread serve_thread([&server]() { server.Serve(nullptr); });

  constexpr int kClients = 4;
  std::vector<std::string> received(kClients);
  {
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&received, i, port = server.port()]() {
        received[i] =
            Roundtrip(port, ClientScript("c" + std::to_string(i)));
      });
    }
    for (std::thread& t : clients) t.join();
  }
  server.Shutdown();
  serve_thread.join();
  EXPECT_EQ(server.total_errors(), 0u);

  // The serial oracle: the same commands through a single-writer loop.
  // Disjoint sessions ⇒ every per-session line (acks, reports, STATS
  // <session>) is independent of interleaving, so the transcripts must be
  // byte-identical.
  for (int i = 0; i < kClients; ++i) {
    CommandLoop serial(CommandLoopOptions{});
    std::string expected;
    std::istringstream script(ClientScript("c" + std::to_string(i)));
    std::string line;
    while (std::getline(script, line)) {
      serial.ExecuteLine(line, &expected);
    }
    EXPECT_EQ(received[i], expected) << "client " << i;
    EXPECT_EQ(serial.error_count(), 0u);
  }
}

TEST(ServiceNetTest, ConnectionCapRejectsWithStructuredOverload) {
  CommandLoopOptions loop_options = ConcurrentOptions();
  EngineRegistry registry(loop_options.registry);
  TcpServerOptions net_options;
  net_options.max_connections = 1;
  auto listening =
      TcpServer::Listen(net_options, loop_options, &registry, nullptr);
  ASSERT_TRUE(listening.ok()) << listening.error();
  TcpServer server = std::move(listening).value();
  std::thread serve_thread([&server]() { server.Serve(nullptr); });

  {
    // Hold the only slot — the echoed reply proves the connection was
    // admitted and its handler is live.
    Client holder(server.port());
    ASSERT_TRUE(holder.connected());
    holder.Send("OPEN s q() :- R(x)\n");
    EXPECT_EQ(holder.ReadLine(), "> OPEN s q() :- R(x)");
    EXPECT_EQ(holder.ReadLine(), "ok open s");

    Client rejected(server.port());
    ASSERT_TRUE(rejected.connected());
    EXPECT_EQ(rejected.ReadToEof(),
              "error: [E_OVERLOAD] server at connection cap (max 1)\n");

    holder.CloseWrite();
    holder.ReadToEof();
  }

  // The slot frees once the holder's handler finishes; a later client is
  // admitted again (poll with a deadline — the decrement is asynchronous).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool admitted = false;
  while (!admitted && std::chrono::steady_clock::now() < deadline) {
    const std::string reply = Roundtrip(server.port(), "STATS s\n");
    if (reply.find("stats s ") != std::string::npos) {
      admitted = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(admitted);
  EXPECT_GE(server.rejected_connections(), 1u);

  server.Shutdown();
  serve_thread.join();
}

TEST(ServiceNetTest, UnterminatedLastLineIsAnsweredBeforeClose) {
  CommandLoopOptions loop_options = ConcurrentOptions();
  EngineRegistry registry(loop_options.registry);
  auto listening = TcpServer::Listen(TcpServerOptions{}, loop_options,
                                     &registry, nullptr);
  ASSERT_TRUE(listening.ok()) << listening.error();
  TcpServer server = std::move(listening).value();
  std::thread serve_thread([&server]() { server.Serve(nullptr); });

  // The client's orderly EOF ends the last line: it runs, and its reply
  // still reaches the client before the close.
  const std::string reply =
      Roundtrip(server.port(), "OPEN a q() :- R(x)\nOPEN b q() :- R(x)");
  EXPECT_NE(reply.find("ok open a"), std::string::npos) << reply;
  EXPECT_NE(reply.find("ok open b"), std::string::npos) << reply;
  EXPECT_TRUE(registry.Has("b"));

  server.Shutdown();
  serve_thread.join();
}

TEST(ServiceNetTest, ShutdownDrainsLiveConnectionsCleanly) {
  CommandLoopOptions loop_options = ConcurrentOptions();
  EngineRegistry registry(loop_options.registry);
  auto listening = TcpServer::Listen(TcpServerOptions{}, loop_options,
                                     &registry, nullptr);
  ASSERT_TRUE(listening.ok()) << listening.error();
  TcpServer server = std::move(listening).value();
  std::thread serve_thread([&server]() { server.Serve(nullptr); });

  Client client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send("OPEN s q() :- R(x)\nDELTA s + R(a)*\n");
  EXPECT_EQ(client.ReadLine(), "> OPEN s q() :- R(x)");
  EXPECT_EQ(client.ReadLine(), "ok open s");
  EXPECT_EQ(client.ReadLine(), "> DELTA s + R(a)*");
  EXPECT_EQ(client.ReadLine(), "ok delta s facts=1 endo=1");

  // A command line the drain cuts short is dropped, not run: give the
  // server time to read the unterminated CLOSE first.
  client.Send("CLOSE s");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Shutdown with the client still attached: the server half-closes the
  // connection, the handler sees EOF, Serve joins its workers, and the
  // client observes an orderly close — not a reset, not a hang.
  server.Shutdown();
  serve_thread.join();
  EXPECT_EQ(client.ReadToEof(), "");
  EXPECT_EQ(server.total_errors(), 0u);
  // The session survived the drain in the shared registry.
  EXPECT_TRUE(registry.Has("s"));
}

}  // namespace
}  // namespace shapcq