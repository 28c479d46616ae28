// In-process replays of a stream the socket run executed: the output check
// against mirror databases, and the traced layer breakdown.

#ifndef SERVERBENCH_REPLAY_H_
#define SERVERBENCH_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workload.h"

namespace serverbench {

/// What the socket run saw for one command of the stream.
struct Record {
  int64_t rtt_ns = 0;  // send of the line to the end of its response
  size_t bytes = 0;    // whole response
  std::string body;    // reports: the rendered table
};

/// Replays every mutation of the stream on mirror databases and checks the
/// served reports: each recomputed exact report's efficiency total against
/// q(D) - q(Dx) on the mirror at that point, and each final full table
/// against RenderReport(BuildAttributionReport(q, mirror)) — a fresh CntSat
/// build, or the same sampling spec and seed. Returns one line per
/// mismatch; empty means correct.
std::vector<std::string> CheckOutputs(const Stream& stream,
                                      const std::vector<Record>& records);

using Metrics = std::vector<std::pair<std::string, double>>;

/// Replays the first `count` commands of the stream in-process twice on a
/// CommandLoop configured like the server (own log directories under
/// `scratch_dir`): once untraced, once with a root span around every
/// ExecuteLine and the same command replayed on mirror sessions through the
/// core calls as child spans. Writes the spans to `spans_path` and returns
/// the per-layer metrics over the replayed timed commands. Replay errors
/// are appended to `failures`.
Metrics TraceReplay(const Stream& stream, const std::vector<Record>& records,
                    size_t count, const std::string& scratch_dir,
                    const std::string& spans_path,
                    std::vector<std::string>* failures);

/// Steady-clock nanoseconds: the clock of every round trip and span.
int64_t NowNs();

/// Linear-interpolated percentile (q in [0,1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

}  // namespace serverbench

#endif  // SERVERBENCH_REPLAY_H_
