// Load-generator benchmark for the socket-serving layer: N concurrent
// clients, each on a private session over a real TCP connection to an
// in-process TcpServer (8-stripe registry), drive a mixed OPEN / DELTA /
// REPORT / STATS / CLOSE workload one round-trip at a time.
//
//   BM_ServiceLoadMixed/<clients>  aggregate command throughput and the
//                                  per-command round-trip latency
//                                  distribution at that concurrency.
//
// Counters (all computed from wall-clock time, not benchmark CPU time):
//   cmds_per_sec  aggregate completed commands per second across clients
//   p50_us/p99_us per-command round-trip latency percentiles, microseconds
//
// The service_load gate of tools/check_bench.py holds the 4-client run
// against the 1-client run within the same JSON: per-client throughput must
// retain at least 0.4 of the single-client rate, scaled by
// min(num_cpus, clients)/clients (a registry serialized by one global lock
// collapses toward 1/clients). Same-run comparison, so the gate is immune
// to absolute runner speed.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "service/command_loop.h"
#include "service/net/tcp_server.h"
#include "util/check.h"

namespace {

using namespace shapcq;

// A blocking client with buffered line reads over one connection.
class LoadClient {
 public:
  explicit LoadClient(uint16_t port) {
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
  ~LoadClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  bool connected() const { return fd_ >= 0; }

  bool Send(const std::string& text) {
    size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t n = ::send(fd_, text.data() + sent, text.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // One '\n'-terminated line (terminator stripped); false on EOF.
  bool ReadLine(std::string* line) {
    line->clear();
    while (true) {
      if (pos_ == len_) {
        const ssize_t n = ::recv(fd_, buffer_, sizeof(buffer_), 0);
        if (n <= 0) return false;
        len_ = static_cast<size_t>(n);
        pos_ = 0;
      }
      while (pos_ < len_) {
        const char ch = buffer_[pos_++];
        if (ch == '\n') return true;
        line->push_back(ch);
      }
    }
  }

 private:
  int fd_ = -1;
  char buffer_[8192];
  size_t len_ = 0;
  size_t pos_ = 0;
};

// Sends one command and reads its complete response: the "> " echo, then
// the ack/stats/error line — or, for a report header, every row through
// the "end report" trailer. Returns false on any protocol surprise, so
// the benchmark fails loudly instead of timing garbage.
bool RunCommand(LoadClient* client, const std::string& line) {
  if (!client->Send(line + "\n")) return false;
  std::string reply;
  if (!client->ReadLine(&reply)) return false;  // "> <line>" echo
  if (reply != "> " + line) return false;
  if (!client->ReadLine(&reply)) return false;  // ack / header / error
  if (reply.compare(0, 7, "error: ") == 0) return false;
  if (reply.compare(0, 7, "report ") == 0) {
    while (reply.compare(0, 11, "end report ") != 0) {
      if (!client->ReadLine(&reply)) return false;
    }
  }
  return true;
}

// The mixed workload of one client on its private session: 32 deltas
// growing the database to 16 endogenous facts, a full Shapley REPORT
// after every 4th delta, then STATS and CLOSE (43 commands total). The
// report cadence keeps the engine's exact-Shapley work dominant over
// protocol round-trips, which is the work stripes can actually overlap.
std::vector<std::string> WorkloadScript(const std::string& id) {
  std::vector<std::string> lines;
  lines.push_back("OPEN " + id + " q() :- Stud(x), not TA(x), Reg(x,y)");
  size_t deltas = 0;
  for (int i = 0; i < 16; ++i) {
    const std::string student = "u" + std::to_string(i);
    lines.push_back("DELTA " + id + " + Stud(" + student + ")");
    lines.push_back("DELTA " + id + " + Reg(" + student + ",c" +
                    std::to_string(i) + ")*");
    deltas += 2;
    if (deltas % 8 == 0) {
      lines.push_back("REPORT " + id);
    } else if (deltas % 4 == 0) {
      lines.push_back("REPORT " + id + " top_k=3");
    }
  }
  lines.push_back("STATS " + id);
  lines.push_back("CLOSE " + id);
  return lines;
}

void BM_ServiceLoadMixed(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));

  CommandLoopOptions loop_options;
  loop_options.registry.num_stripes = 8;
  EngineRegistry registry(loop_options.registry);
  TcpServerOptions net_options;  // ephemeral port, default connection cap
  auto listening =
      TcpServer::Listen(net_options, loop_options, &registry, nullptr);
  SHAPCQ_CHECK_MSG(listening.ok(), listening.error().c_str());
  TcpServer server = std::move(listening).value();
  std::thread serve_thread([&server]() { server.Serve(nullptr); });

  std::vector<double> latencies_us;
  size_t total_commands = 0;
  double elapsed_seconds = 0.0;
  size_t round = 0;
  bool workload_ok = true;

  for (auto _ : state) {
    std::vector<std::vector<double>> per_client(
        static_cast<size_t>(clients));
    std::vector<std::thread> drivers;
    const auto round_start = std::chrono::steady_clock::now();
    for (int c = 0; c < clients; ++c) {
      drivers.emplace_back([&per_client, &workload_ok, c, round,
                            port = server.port()]() {
        LoadClient client(port);
        if (!client.connected()) {
          workload_ok = false;
          return;
        }
        const std::string id =
            "w" + std::to_string(c) + "_" + std::to_string(round);
        std::vector<double>& latencies = per_client[static_cast<size_t>(c)];
        for (const std::string& line : WorkloadScript(id)) {
          const auto start = std::chrono::steady_clock::now();
          if (!RunCommand(&client, line)) {
            workload_ok = false;
            return;
          }
          const auto stop = std::chrono::steady_clock::now();
          latencies.push_back(
              std::chrono::duration<double, std::micro>(stop - start)
                  .count());
        }
      });
    }
    for (std::thread& t : drivers) t.join();
    elapsed_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      round_start)
            .count();
    ++round;
    for (const std::vector<double>& lane : per_client) {
      total_commands += lane.size();
      latencies_us.insert(latencies_us.end(), lane.begin(), lane.end());
    }
  }

  server.Shutdown();
  serve_thread.join();
  SHAPCQ_CHECK_MSG(workload_ok, "load client hit a protocol error");
  SHAPCQ_CHECK_MSG(server.total_errors() == 0,
                   "server reported command errors under load");

  std::sort(latencies_us.begin(), latencies_us.end());
  const auto percentile = [&latencies_us](double p) {
    if (latencies_us.empty()) return 0.0;
    size_t index = static_cast<size_t>(
        p * static_cast<double>(latencies_us.size()));
    index = std::min(index, latencies_us.size() - 1);
    return latencies_us[index];
  };
  state.counters["cmds_per_sec"] =
      elapsed_seconds > 0.0
          ? static_cast<double>(total_commands) / elapsed_seconds
          : 0.0;
  state.counters["p50_us"] = percentile(0.50);
  state.counters["p99_us"] = percentile(0.99);
  state.SetLabel("clients=" + std::to_string(clients));
}
BENCHMARK(BM_ServiceLoadMixed)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
