// serverbench — drives one running shapcq_server through a seeded workload
// stream and reports what a client sees, then checks the answers and, on
// request, replays the stream in-process for the traced layer breakdown.
//
//   serverbench server-args --workload W
//       print the server flags the workload needs, one per line
//   serverbench run --workload W --seed N --port P [--setup-only]
//                   [--seconds S] [--trace 0|1 --scratch DIR --spans FILE]
//       run the stream against 127.0.0.1:P and print one JSON object; the
//       timed phase is the workload's fixed number of rounds, cut short
//       only if it outlasts S seconds
//
// run.py starts and stops the servers; see README.md for the metrics.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "client.h"
#include "replay.h"
#include "workload.h"

namespace serverbench {
namespace {

// "stats sessions=3 resident=2 ..." -> {sessions: 3, resident: 2, ...};
// non-numeric values ("resident=yes") read as 1/0.
std::map<std::string, double> ParseStats(const std::string& line) {
  std::map<std::string, double> fields;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    const std::string value = token.substr(eq + 1);
    fields[token.substr(0, eq)] =
        value == "yes" ? 1 : value == "no" ? 0 : std::atof(value.c_str());
  }
  return fields;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.12g", value);
  return text;
}

std::string JsonObject(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, value] : metrics) {
    out += (out.size() > 1 ? ", " : "") + JsonString(name) + ": " +
           JsonNumber(value);
  }
  return out + "}";
}

// Untimed warm-up: a sixth as many rounds as the timed phase (about 2 s).
constexpr size_t kWarmupDivisor = 6;

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  uint16_t port = 0;
  double seconds = 10;
  bool setup_only = false;
  bool trace = false;
  std::string scratch, spans;
};

class Runner {
 public:
  Runner(const Options& options)
      : options_(options), stream_(*options.workload, options.seed) {}

  int Run();

 private:
  // Sends every stream command not sent yet, in order.
  void Drain();
  // An out-of-stream command (STATS); its reply line, empty on failure.
  std::string Side(const std::string& line);
  void Fail(const std::string& what) {
    if (failures_.size() < 20) failures_.push_back(what);
  }
  // STATS of the registry and of every session at one moment.
  struct Snapshot {
    std::map<std::string, double> global;
    std::vector<std::map<std::string, double>> sessions;
  };
  Snapshot TakeSnapshot();
  void CheckInvariants(const Snapshot& before, const Snapshot& after);
  std::vector<double> Latencies(Kind kind, double unit) const;

  const Options& options_;
  Stream stream_;
  Client client_;
  std::vector<Record> records_;
  bool alive_ = true;
  size_t attempted_ = 0, failed_ = 0, errors_ = 0;
  size_t timed_begin_ = 0, timed_end_ = 0;
  std::vector<std::string> failures_;
};

void Runner::Drain() {
  const std::vector<Command>& commands = stream_.commands();
  while (alive_ && records_.size() < commands.size()) {
    const Command& command = commands[records_.size()];
    const int64_t start = NowNs();
    Client::Reply reply = client_.Execute(command.line);
    Record record;
    record.rtt_ns = NowNs() - start;
    record.bytes = reply.bytes;
    ++attempted_;
    if (reply.status != Client::Status::kOk) {
      ++failed_;
      if (reply.status == Client::Status::kError) {
        ++errors_;
        Fail(command.line + " -> " + reply.body);
      } else {
        alive_ = false;
        Fail(command.line + (reply.status == Client::Status::kLost
                                 ? " -> connection lost"
                                 : " -> mis-framed reply"));
      }
    }
    if (command.kind == Kind::kFirstReport || command.kind == Kind::kReport ||
        command.kind == Kind::kFetch) {
      record.body = std::move(reply.body);
    }
    records_.push_back(std::move(record));
  }
}

std::string Runner::Side(const std::string& line) {
  if (!alive_) return "";
  ++attempted_;
  Client::Reply reply = client_.Execute(line);
  if (reply.status == Client::Status::kOk) return reply.body;
  ++failed_;
  if (reply.status == Client::Status::kError) {
    ++errors_;
  } else {
    alive_ = false;
  }
  Fail(line + " -> " + reply.body);
  return "";
}

std::vector<double> Runner::Latencies(Kind kind, double unit) const {
  std::vector<double> values;
  for (size_t i = timed_begin_; i < timed_end_; ++i) {
    if (stream_.commands()[i].kind == kind) {
      values.push_back(records_[i].rtt_ns / unit);
    }
  }
  return values;
}

Runner::Snapshot Runner::TakeSnapshot() {
  Snapshot snapshot;
  snapshot.global = ParseStats(Side("STATS"));
  for (uint32_t s = 0; s < options_.workload->sessions; ++s) {
    snapshot.sessions.push_back(
        ParseStats(Side("STATS " + stream_.SessionId(s))));
  }
  return snapshot;
}

// Each workload must keep measuring what it exists for.
void Runner::CheckInvariants(const Snapshot& before, const Snapshot& after) {
  const Workload& workload = *options_.workload;
  const double reports =
      static_cast<double>(Latencies(Kind::kReport, 1).size());
  if (std::string(workload.name) == "exact_delta") {
    for (const auto& session : after.sessions) {
      if (session.at("builds") != 1) Fail("exact_delta: a session rebuilt");
    }
    if (after.global.at("evictions") != 0) {
      Fail("exact_delta: an engine was evicted");
    }
  } else if (std::string(workload.name) == "exact_readmit") {
    if (after.global.at("misses") - before.global.at("misses") != reports) {
      Fail("exact_readmit: a burst's first report did not rebuild");
    }
  } else if (after.global.at("builds") != 0) {
    Fail("approx_sampling: an exact engine was built");
  }
  if (!workload.approx) {
    for (size_t i = timed_begin_; i < timed_end_; ++i) {
      if (stream_.commands()[i].kind == Kind::kFull &&
          records_[i].bytes <= 8192) {
        Fail("a full table fits in 8 KB");
        break;
      }
    }
  }
  for (size_t s = 0; s < before.sessions.size(); ++s) {
    if (before.sessions[s].at("facts") != after.sessions[s].at("facts") ||
        before.sessions[s].at("endo") != after.sessions[s].at("endo")) {
      Fail("session " + stream_.SessionId(static_cast<uint32_t>(s)) +
           " changed size during the timed phase");
    }
  }
}

int Runner::Run() {
  if (!client_.Connect(options_.port)) {
    std::fprintf(stderr, "serverbench: cannot connect to port %u\n",
                 options_.port);
    return 1;
  }
  stream_.AppendSetup();
  Drain();
  const int64_t setup_end_ns = NowNs();

  std::ostringstream json;
  json << "{\"setup_end_ns\": " << setup_end_ns;
  Metrics e2e;
  std::vector<double> counts(4, 0);  // samples per timed kind
  Metrics per_layer;
  std::vector<double> tenths;  // recomputed-report medians, in time order
  size_t rounds = 0;
  if (!options_.setup_only) {
    // Untimed warm-up rounds: the server's heap and caches, and the host's
    // clock speed, settle before the clock starts.
    const Workload& workload = *options_.workload;
    for (size_t r = 0; alive_ && r < workload.rounds / kWarmupDivisor; ++r) {
      stream_.AppendRound(/*timed=*/false);
      Drain();
    }
    const Snapshot before = TakeSnapshot();
    timed_begin_ = records_.size();
    // A fixed number of rounds, so every metric (peak RSS too) covers the
    // same stream whatever the speed; --seconds only caps it.
    const int64_t start = NowNs();
    const int64_t cap = start + static_cast<int64_t>(options_.seconds * 1e9);
    int64_t end = start;
    while (alive_ && rounds < workload.rounds && end < cap) {
      stream_.AppendRound(/*timed=*/true);
      Drain();
      end = NowNs();
      ++rounds;
    }
    timed_end_ = records_.size();
    const Snapshot after = TakeSnapshot();
    stream_.AppendFetch();
    Drain();
    if (!alive_) {
      Fail("run incomplete");
    } else {
      CheckInvariants(before, after);
      for (const std::string& failure : CheckOutputs(stream_, records_)) {
        Fail(failure);
      }
    }

    const std::vector<double> reports = Latencies(Kind::kReport, 1e6);
    const std::vector<double> fulls = Latencies(Kind::kFull, 1e6);
    const std::vector<double> polls = Latencies(Kind::kPoll, 1e3);
    const std::vector<double> deltas = Latencies(Kind::kDelta, 1e3);
    // The tails are the highest percentiles that repeated within their
    // bound across seeds (README.md): p75 for recomputed reports, p98 for
    // polls and DELTAs. The p99s did not.
    e2e = {
        {"report_p50_ms", Percentile(reports, 0.50)},
        {"report_p75_ms", Percentile(reports, 0.75)},
        {"full_report_p50_ms", Percentile(fulls, 0.50)},
        {"poll_p50_us", Percentile(polls, 0.50)},
        {"poll_p98_us", Percentile(polls, 0.98)},
        {"delta_p50_us", Percentile(deltas, 0.50)},
        {"delta_p98_us", Percentile(deltas, 0.98)},
        {"cmds_per_s", (timed_end_ - timed_begin_) / ((end - start) / 1e9)},
    };
    counts = {static_cast<double>(reports.size()),
              static_cast<double>(fulls.size()),
              static_cast<double>(polls.size()),
              static_cast<double>(deltas.size())};
    for (size_t t = 0; t < 10; ++t) {
      tenths.push_back(Percentile(
          std::vector<double>(reports.begin() + t * reports.size() / 10,
                              reports.begin() + (t + 1) * reports.size() / 10),
          0.5));
    }
    if (options_.trace && alive_) {
      // The first quarter of the timed phase: the stream is stationary, and
      // the traced pass costs about twice the server's own work.
      const size_t count = timed_begin_ + (timed_end_ - timed_begin_) / 4;
      per_layer = TraceReplay(stream_, records_, count, options_.scratch,
                              options_.spans, &failures_);
    }
  }

  const Metrics samples = {{"report", counts[0]},
                           {"full_report", counts[1]},
                           {"poll", counts[2]},
                           {"delta", counts[3]}};
  json << ", \"rounds\": " << rounds << ", \"planned_rounds\": "
       << (options_.setup_only ? 0 : options_.workload->rounds)
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"errors\": " << errors_ << ", \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    json << (i ? ", " : "") << JsonString(failures_[i]);
  }
  json << "], \"e2e\": " << JsonObject(e2e)
       << ", \"per_layer\": " << JsonObject(per_layer)
       << ", \"samples\": " << JsonObject(samples)
       << ", \"report_tenths_ms\": [";
  for (size_t i = 0; i < tenths.size(); ++i) {
    json << (i ? ", " : "") << JsonNumber(tenths[i]);
  }
  json << "]}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: serverbench server-args --workload W\n"
               "       serverbench run --workload W --seed N --port P "
               "[--setup-only] [--seconds S]\n"
               "                       [--trace 0|1 --scratch DIR --spans "
               "FILE]\n");
  return 2;
}

}  // namespace
}  // namespace serverbench

int main(int argc, char** argv) {
  using namespace serverbench;
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  Options options;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      options.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = FindWorkload(value);
      if (options.workload == nullptr) {
        std::fprintf(stderr, "serverbench: unknown workload %s\n",
                     value.c_str());
        return 2;
      }
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--port") {
      options.port = static_cast<uint16_t>(std::atoi(value.c_str()));
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--scratch") {
      options.scratch = value;
    } else if (flag == "--spans") {
      options.spans = value;
    } else {
      return Usage();
    }
  }
  if (options.workload == nullptr) return Usage();
  if (mode == "server-args") {
    for (const std::string& arg : ServerArgs(*options.workload)) {
      std::printf("%s\n", arg.c_str());
    }
    return 0;
  }
  if (mode != "run" || options.port == 0) return Usage();
  if (options.trace && (options.scratch.empty() || options.spans.empty())) {
    return Usage();
  }
  Runner runner(options);
  return runner.Run();
}
