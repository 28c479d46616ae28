// Seeded, stationary command streams for the attribution-server benchmark.
//
// A stream is the exact sequence of protocol lines one client sends: a
// setup phase (OPEN, the base facts as DELTA lines, one first REPORT per
// session), untimed warm-up rounds, the workload's fixed number of timed
// rounds, and a final full-table fetch per session for the output check.
// The same workload and seed always give the same lines, so the socket run,
// the output check and the traced in-process replay all see one stream.
//
// Rounds keep every session stationary: a round swaps one registration of
// one student for the student's spare course (the student keeps its
// registration count) and moves one TA flag from a TA to a non-TA (the TA
// count stays fixed). Rounds only ever insert facts the setup already
// inserted and deleted once, so a resident engine does not grow either.
// Session size, orbit structure and hence per-report cost do not drift
// over a run, however long it lasts.

#ifndef SERVERBENCH_WORKLOAD_H_
#define SERVERBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace serverbench {

/// What a command is for; each timed kind gets its own latency metric.
enum class Kind : uint8_t {
  kOpen,         // setup: OPEN
  kLoad,         // setup: one base fact as a DELTA insert
  kFirstReport,  // setup: the session's first REPORT (first build)
  kDelta,        // round: DELTA of a swap
  kReport,       // round: top_k=10 REPORT right after deltas (recompute)
  kFull,         // round: full-table REPORT right after a recompute
  kPoll,         // round: top_k=10 REPORT with no delta since (cache hit)
  kFetch,        // after timing: full table for the output check
};

/// True for the kinds that are REPORT commands.
bool IsReport(Kind kind);

struct Command {
  Kind kind;
  uint32_t session;
  std::string line;  // protocol line, no trailing newline
  bool timed;        // inside the timed interval (not setup or warm-up)
};

/// One benchmark workload: the traffic mix and the server flags it needs.
struct Workload {
  const char* name;
  const char* query;
  bool approx;              // approx-only sessions (sampling tier)
  size_t sessions;
  size_t students;          // per session; their facts are endogenous
  size_t degrees;           // registrations per student cycle 1..degrees
  size_t context_students;  // per session; exogenous Stud, TA and Reg only
  size_t courses;           // course pool per session
  bool cycle;               // visit sessions in order instead of at random
  size_t stripes;           // server --stripes (0 = server default)
  size_t max_resident;      // server --max-resident (0 = unlimited)
  size_t rounds;            // rounds in the timed phase
};

/// The workload with this name, or nullptr.
const Workload* FindWorkload(const std::string& name);

/// Flags the server is started with for this workload (besides --listen
/// and --log-dir). The traced replay configures its loop from the same
/// fields.
std::vector<std::string> ServerArgs(const Workload& workload);

/// The command stream of one (workload, seed) pair, generated on demand.
class Stream {
 public:
  Stream(const Workload& workload, uint64_t seed);

  /// Appends the setup phase: every session opened, loaded and reported.
  void AppendSetup();
  /// Appends one round: a warm-up round before the timed phase (untimed),
  /// or a timed one.
  void AppendRound(bool timed);
  /// Appends one full-table fetch per session.
  void AppendFetch();

  const Workload& workload() const { return workload_; }
  const std::vector<Command>& commands() const { return commands_; }
  std::string SessionId(uint32_t session) const;
  /// The session's REPORT line: top-10 or full table, with the sampling
  /// spec on approx sessions (one fixed spec per session, so repeats hit
  /// the server's approx cache).
  std::string ReportLine(uint32_t session, bool top_k) const;

 private:
  struct Student {
    std::string name;
    bool ta = false;
    bool endo_stud = false;
    std::vector<std::string> regs;  // endogenous registrations
    std::string spare;              // the course a swap registers for
  };

  uint64_t Next();
  size_t Uniform(size_t bound);
  void Emit(Kind kind, uint32_t session, const std::string& line,
            bool timed = false);
  void Delta(Kind kind, uint32_t session, char op, const std::string& fact,
             bool timed = false);

  const Workload& workload_;
  uint64_t state_;
  uint64_t session_seed_;
  std::vector<std::vector<Student>> sessions_;  // students per session
  std::vector<Command> commands_;
  size_t rounds_ = 0;
};

}  // namespace serverbench

#endif  // SERVERBENCH_WORKLOAD_H_
