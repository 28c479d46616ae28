// Line-protocol surface of the attribution server: command grammar, output
// framing, and the error paths the server must survive (bad queries, bad
// mutations, unknown sessions) without corrupting registry state.

#include <cerrno>
#include <csignal>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/command_loop.h"

namespace shapcq {
namespace {

// Runs one line and returns its full output (echo included).
std::string Exec(CommandLoop* loop, const std::string& line) {
  std::string out;
  loop->ExecuteLine(line, &out);
  return out;
}

CommandLoop MakeLoop() {
  CommandLoopOptions options;
  return CommandLoop(options);
}

TEST(CommandLoopTest, OpenDeltaReportCloseHappyPath) {
  CommandLoop loop = MakeLoop();
  EXPECT_EQ(Exec(&loop, "OPEN s1 q() :- R(x)"),
            "> OPEN s1 q() :- R(x)\nok open s1\n");
  EXPECT_EQ(Exec(&loop, "DELTA s1 + R(a)*"),
            "> DELTA s1 + R(a)*\nok delta s1 facts=1 endo=1\n");
  const std::string report = Exec(&loop, "REPORT s1");
  EXPECT_NE(report.find("report s1 rows=1 endo=1\n"), std::string::npos);
  EXPECT_NE(report.find("engine: CntSat (incremental)\n"), std::string::npos);
  EXPECT_NE(report.find("R(a)*"), std::string::npos);
  EXPECT_NE(report.find("end report s1\n"), std::string::npos);
  EXPECT_EQ(Exec(&loop, "CLOSE s1"), "> CLOSE s1\nok close s1\n");
  EXPECT_EQ(loop.error_count(), 0u);
}

TEST(CommandLoopTest, BlankAndCommentLinesProduceNoOutput) {
  CommandLoop loop = MakeLoop();
  EXPECT_EQ(Exec(&loop, ""), "");
  EXPECT_EQ(Exec(&loop, "   \t"), "");
  EXPECT_EQ(Exec(&loop, "# a comment"), "");
  EXPECT_EQ(loop.error_count(), 0u);
}

TEST(CommandLoopTest, ReportOnEmptyDatabase) {
  // A session may be reported before any delta: zero rows, zero total.
  CommandLoop loop = MakeLoop();
  Exec(&loop, "OPEN s1 q() :- R(x), not S(x)");
  const std::string report = Exec(&loop, "REPORT s1");
  EXPECT_NE(report.find("report s1 rows=0 endo=0\n"), std::string::npos);
  EXPECT_NE(report.find("total"), std::string::npos);
  EXPECT_NE(report.find("end report s1\n"), std::string::npos);
  EXPECT_EQ(loop.error_count(), 0u);
}

TEST(CommandLoopTest, ReportHonorsTopKAndThreads) {
  CommandLoop loop = MakeLoop();
  Exec(&loop, "OPEN s1 q() :- R(x)");
  Exec(&loop, "DELTA s1 + R(a)*");
  Exec(&loop, "DELTA s1 + R(b)*");
  Exec(&loop, "DELTA s1 + R(c)*");
  const std::string full = Exec(&loop, "REPORT s1");
  EXPECT_NE(full.find("rows=3 endo=3"), std::string::npos);
  const std::string top = Exec(&loop, "REPORT s1 top_k=2");
  EXPECT_NE(top.find("rows=2 endo=3"), std::string::npos);
  // threads= changes nothing about the output values (threading contract).
  const std::string parallel = Exec(&loop, "REPORT s1 top_k=2 threads=4");
  EXPECT_EQ(top.substr(top.find('\n') + 1),
            parallel.substr(parallel.find('\n') + 1));
  EXPECT_EQ(loop.error_count(), 0u);
}

TEST(CommandLoopTest, OpenErrors) {
  CommandLoop loop = MakeLoop();
  EXPECT_NE(Exec(&loop, "OPEN").find("error: usage: OPEN"),
            std::string::npos);
  EXPECT_NE(Exec(&loop, "OPEN s1").find("error: usage: OPEN"),
            std::string::npos);
  EXPECT_NE(Exec(&loop, "OPEN s1 not a query").find("error: open s1:"),
            std::string::npos);
  // Non-hierarchical (but evaluable) query: admitted as an approx-only
  // session — the sampling tier serves it — and announced as such.
  EXPECT_EQ(Exec(&loop, "OPEN s0 q() :- R(x,y), S(x), T(y)"),
            "> OPEN s0 q() :- R(x,y), S(x), T(y)\nok open s0 approx-only\n");
  // Unsafe negation and self-joins stay rejected: no tier can serve them.
  EXPECT_NE(Exec(&loop, "OPEN s1 q() :- R(x), not S(x,y)").find("unsafe"),
            std::string::npos);
  EXPECT_NE(Exec(&loop, "OPEN s1 q() :- R(x), R(y)").find("self-join"),
            std::string::npos);
  // Duplicate session id.
  Exec(&loop, "OPEN s1 q() :- R(x)");
  EXPECT_NE(Exec(&loop, "OPEN s1 q() :- R(x)").find("already open"),
            std::string::npos);
  EXPECT_EQ(loop.error_count(), 6u);
}

TEST(CommandLoopTest, DeltaErrors) {
  CommandLoop loop = MakeLoop();
  Exec(&loop, "OPEN s1 q() :- R(x), not S(x)");
  EXPECT_NE(Exec(&loop, "DELTA s1").find("error: usage: DELTA"),
            std::string::npos);
  EXPECT_NE(Exec(&loop, "DELTA nosuch + R(a)*").find("no open session"),
            std::string::npos);
  EXPECT_NE(Exec(&loop, "DELTA s1 * R(a)").find("expected '+' or '-'"),
            std::string::npos);
  EXPECT_NE(Exec(&loop, "DELTA s1 + R(a").find("unterminated"),
            std::string::npos);
  EXPECT_NE(Exec(&loop, "DELTA s1 + R(a)* extra").find("trailing input"),
            std::string::npos);
  // Apply-time errors: duplicates, arity mismatches, deleting the absent.
  // Captured as strings so the resident-engine replay below can assert the
  // error surface is BYTE-identical regardless of residency.
  Exec(&loop, "DELTA s1 + R(a)*");
  const std::string dup = Exec(&loop, "DELTA s1 + R(a)*");
  EXPECT_NE(dup.find("duplicate fact in R"), std::string::npos);
  const std::string bad_arity = Exec(&loop, "DELTA s1 + R(a,b)*");
  EXPECT_NE(bad_arity.find("arity mismatch"), std::string::npos);
  // S has no facts, but the query atom pins its arity to 1.
  const std::string bad_atom_arity = Exec(&loop, "DELTA s1 + S(a,b)");
  EXPECT_NE(bad_atom_arity.find("arity mismatch"), std::string::npos);
  const std::string gone = Exec(&loop, "DELTA s1 - R(zzz)");
  EXPECT_NE(gone.find("no such fact R(zzz)"), std::string::npos);
  EXPECT_EQ(loop.error_count(), 9u);

  // The same apply-time errors once the engine is resident (post-REPORT):
  // transcripts must not depend on residency or eviction timing.
  Exec(&loop, "REPORT s1");
  EXPECT_EQ(Exec(&loop, "DELTA s1 + R(a)*"), dup);
  EXPECT_EQ(Exec(&loop, "DELTA s1 + R(a,b)*"), bad_arity);
  EXPECT_EQ(Exec(&loop, "DELTA s1 + S(a,b)"), bad_atom_arity);
  EXPECT_EQ(Exec(&loop, "DELTA s1 - R(zzz)"), gone);
  EXPECT_EQ(loop.error_count(), 13u);
}

TEST(CommandLoopTest, ReportStatsCloseErrors) {
  CommandLoop loop = MakeLoop();
  EXPECT_NE(Exec(&loop, "REPORT").find("error: usage: REPORT"),
            std::string::npos);
  EXPECT_NE(Exec(&loop, "REPORT nosuch").find("no open session"),
            std::string::npos);
  Exec(&loop, "OPEN s1 q() :- R(x)");
  // Every REPORT argument is a key=value pair; bare tokens are rejected.
  EXPECT_NE(Exec(&loop, "REPORT s1 3")
                .find("error: report s1: expected key=value argument, got '3'"),
            std::string::npos);
  EXPECT_NE(Exec(&loop, "REPORT s1 bogus")
                .find("expected key=value argument, got 'bogus'"),
            std::string::npos);
  EXPECT_NE(Exec(&loop, "REPORT s1 --threads 2")
                .find("expected key=value argument, got '--threads'"),
            std::string::npos);
  EXPECT_NE(Exec(&loop, "STATS nosuch").find("no open session"),
            std::string::npos);
  EXPECT_NE(Exec(&loop, "STATS s1 extra").find("error: usage: STATS"),
            std::string::npos);
  EXPECT_NE(Exec(&loop, "CLOSE nosuch").find("no open session"),
            std::string::npos);
  EXPECT_NE(Exec(&loop, "CLOSE").find("error: usage: CLOSE"),
            std::string::npos);
  EXPECT_NE(Exec(&loop, "FROB s1").find("unknown command 'FROB'"),
            std::string::npos);
  EXPECT_EQ(loop.error_count(), 10u);
}

TEST(CommandLoopTest, RunReturnsNonZeroOnErrors) {
  CommandLoop ok_loop = MakeLoop();
  std::istringstream good("OPEN s1 q() :- R(x)\nDELTA s1 + R(a)*\n");
  std::ostringstream good_out;
  EXPECT_EQ(ok_loop.Run(good, good_out), 0);

  CommandLoop bad_loop = MakeLoop();
  std::istringstream bad("OPEN s1 q() :- R(x)\nDELTA s1 + R(a\n");
  std::ostringstream bad_out;
  EXPECT_EQ(bad_loop.Run(bad, bad_out), 1);
  EXPECT_NE(bad_out.str().find("error:"), std::string::npos);
}

TEST(CommandLoopTest, CarriageReturnsAreTolerated) {
  // Session scripts written on Windows reach the loop with trailing '\r'.
  CommandLoop loop = MakeLoop();
  EXPECT_EQ(Exec(&loop, "OPEN s1 q() :- R(x)\r"),
            "> OPEN s1 q() :- R(x)\nok open s1\n");
  EXPECT_EQ(Exec(&loop, "DELTA s1 + R(a)*\r"),
            "> DELTA s1 + R(a)*\nok delta s1 facts=1 endo=1\n");
}

TEST(CommandLoopTest, OverlongLinesAreRejectedAndTheLoopContinues) {
  CommandLoopOptions options;
  options.max_line_bytes = 64;
  CommandLoop loop{options};
  Exec(&loop, "OPEN s1 q() :- R(x)");
  const std::string hostile(100, 'x');
  // The oversized line is refused without being echoed or parsed...
  EXPECT_EQ(Exec(&loop, hostile),
            "error: [E_LINE_TOO_LONG] input line of 100 bytes exceeds "
            "limit 64\n");
  // ...and the very next command works.
  EXPECT_EQ(Exec(&loop, "DELTA s1 + R(a)*"),
            "> DELTA s1 + R(a)*\nok delta s1 facts=1 endo=1\n");
  EXPECT_EQ(loop.error_count(), 1u);
}

TEST(CommandLoopTest, ReportArgumentParsingIsStrict) {
  CommandLoop loop = MakeLoop();
  Exec(&loop, "OPEN s1 q() :- R(x)");
  // A leading '+' is not a number (the old parser accepted "+5" via strtoul).
  EXPECT_NE(Exec(&loop, "REPORT s1 top_k=+5").find("bad top_k value '+5'"),
            std::string::npos);
  // 2^64: overflow must be detected, not silently saturated.
  EXPECT_NE(Exec(&loop, "REPORT s1 top_k=18446744073709551616")
                .find("bad top_k value '18446744073709551616'"),
            std::string::npos);
  EXPECT_NE(Exec(&loop, "REPORT s1 threads=99999999999999999999")
                .find("bad threads value '99999999999999999999'"),
            std::string::npos);
  EXPECT_NE(Exec(&loop, "REPORT s1 threads=-1")
                .find("bad threads value '-1'"),
            std::string::npos);
  // Past the thread ceiling: a pool would spawn every worker up front.
  EXPECT_NE(Exec(&loop, "REPORT s1 threads=1000000")
                .find("bad threads value '1000000' (at most 256)"),
            std::string::npos);
  // In-range values still parse after the strictness change.
  EXPECT_NE(Exec(&loop, "REPORT s1 top_k=5 threads=2").find("end report s1"),
            std::string::npos);
  EXPECT_EQ(loop.error_count(), 5u);
}

TEST(CommandLoopTest, UnboundedSampleCountIsAnErrorAndTheSessionServesOn) {
  // A tiny epsilon asks for more samples than one run may draw: past
  // size_t's range (approx=1e-10) or within it but far over the ceiling
  // (approx=0.000000001). Both answer an error line; the session serves on.
  CommandLoop loop = MakeLoop();
  EXPECT_NE(Exec(&loop, "OPEN s q() :- R(x,y), S(x), T(y)")
                .find("ok open s approx-only"),
            std::string::npos);
  Exec(&loop, "DELTA s + R(a,b)*");
  Exec(&loop, "DELTA s + S(a)*");
  Exec(&loop, "DELTA s + T(b)*");
  for (const char* epsilon : {"1e-10", "0.000000001"}) {
    const std::string out =
        Exec(&loop, std::string("REPORT s approx=") + epsilon);
    EXPECT_NE(out.find("\nerror: report s: approx needs "), std::string::npos)
        << out;
    EXPECT_NE(out.find("max_samples="), std::string::npos) << out;
  }
  EXPECT_NE(Exec(&loop, "REPORT s approx=0.1").find("end report s\n"),
            std::string::npos);
  EXPECT_EQ(loop.error_count(), 2u);
}

TEST(CommandLoopTest, DeltaAfterCloseIsAnError) {
  CommandLoop loop = MakeLoop();
  Exec(&loop, "OPEN s1 q() :- R(x)");
  Exec(&loop, "DELTA s1 + R(a)*");
  Exec(&loop, "CLOSE s1");
  EXPECT_EQ(Exec(&loop, "DELTA s1 + R(b)*"),
            "> DELTA s1 + R(b)*\nerror: delta s1: no open session s1\n");
  // The id is reusable: closing really forgot the session.
  EXPECT_NE(Exec(&loop, "OPEN s1 q() :- S(x)").find("ok open s1"),
            std::string::npos);
  EXPECT_EQ(loop.error_count(), 1u);
}

TEST(CommandLoopTest, EmptyAndCommentOnlyScriptsSucceed) {
  CommandLoop empty_loop = MakeLoop();
  std::istringstream empty("");
  std::ostringstream empty_out;
  EXPECT_EQ(empty_loop.Run(empty, empty_out), 0);
  EXPECT_EQ(empty_out.str(), "");

  CommandLoop comment_loop = MakeLoop();
  std::istringstream comments("# just\n\n  \t\n# comments\n");
  std::ostringstream comments_out;
  EXPECT_EQ(comment_loop.Run(comments, comments_out), 0);
  EXPECT_EQ(comments_out.str(), "");
}

TEST(CommandLoopTest, FactCapRejectsGrowthButAllowsDeletes) {
  CommandLoopOptions options;
  options.registry.max_session_facts = 2;
  CommandLoop loop{options};
  Exec(&loop, "OPEN s1 q() :- R(x)");
  Exec(&loop, "DELTA s1 + R(a)*");
  Exec(&loop, "DELTA s1 + R(b)*");
  EXPECT_EQ(Exec(&loop, "DELTA s1 + R(c)*"),
            "> DELTA s1 + R(c)*\n"
            "error: [E_FACT_CAP] delta s1: session at fact cap 2\n");
  // Deletes are always allowed (the way back under the cap), and the freed
  // slot can be refilled.
  EXPECT_NE(Exec(&loop, "DELTA s1 - R(a)").find("ok delta s1 facts=1"),
            std::string::npos);
  EXPECT_NE(Exec(&loop, "DELTA s1 + R(c)*").find("ok delta s1 facts=2"),
            std::string::npos);
  EXPECT_EQ(loop.error_count(), 1u);
}

TEST(CommandLoopTest, SnapshotRequiresDurability) {
  CommandLoop loop = MakeLoop();
  Exec(&loop, "OPEN s1 q() :- R(x)");
  EXPECT_NE(Exec(&loop, "SNAPSHOT").find("error: usage: SNAPSHOT <session>"),
            std::string::npos);
  EXPECT_EQ(Exec(&loop, "SNAPSHOT s1"),
            "> SNAPSHOT s1\n"
            "error: snapshot s1: durability is off (no --log-dir)\n");
  EXPECT_EQ(loop.error_count(), 2u);
}

TEST(CommandLoopTest, MultipleSessionsAreIndependent) {
  CommandLoop loop = MakeLoop();
  Exec(&loop, "OPEN a q() :- R(x)");
  Exec(&loop, "OPEN b q() :- S(x), not T(x)");
  Exec(&loop, "DELTA a + R(one)*");
  Exec(&loop, "DELTA b + S(two)*");
  const std::string report_a = Exec(&loop, "REPORT a");
  const std::string report_b = Exec(&loop, "REPORT b");
  EXPECT_NE(report_a.find("R(one)*"), std::string::npos);
  EXPECT_EQ(report_a.find("S(two)*"), std::string::npos);
  EXPECT_NE(report_b.find("S(two)*"), std::string::npos);
  Exec(&loop, "CLOSE a");
  // b survives a's close.
  EXPECT_NE(Exec(&loop, "STATS b").find("facts=1"), std::string::npos);
  EXPECT_EQ(loop.error_count(), 0u);
}

// A streambuf that serves scripted chunks, failing with errno == EINTR
// between them — what a read interrupted by a signal without SA_RESTART
// looks like through an istream (eofbit/failbit set, errno left at EINTR).
// An optional stop flag is raised when the interrupt fires, modeling a
// shutdown signal arriving mid-read.
class InterruptingStreamBuf : public std::streambuf {
 public:
  static constexpr const char* kInterrupt = "\x01INTERRUPT";

  explicit InterruptingStreamBuf(std::vector<std::string> chunks,
                                 volatile std::sig_atomic_t* stop = nullptr)
      : chunks_(std::move(chunks)), stop_(stop) {}

 protected:
  int_type underflow() override {
    while (next_ < chunks_.size()) {
      const std::string chunk = chunks_[next_++];
      if (chunk == kInterrupt) {
        if (stop_ != nullptr) *stop_ = 1;
        errno = EINTR;
        return traits_type::eof();
      }
      current_ = chunk;
      setg(current_.data(), current_.data(),
           current_.data() + current_.size());
      if (!current_.empty()) return traits_type::to_int_type(*gptr());
    }
    return traits_type::eof();  // genuine EOF: errno untouched
  }

 private:
  std::vector<std::string> chunks_;
  std::string current_;
  size_t next_ = 0;
  volatile std::sig_atomic_t* stop_ = nullptr;
};

TEST(CommandLoopTest, RunRetriesInterruptedReadsWithoutDroppingInput) {
  // Regression: any failed getline used to read as EOF, so an EINTR from a
  // signal that was not a shutdown silently ended the session with exit 0.
  // Worse, an interrupt can split a line: the partial extraction must be
  // kept and completed on retry, never executed truncated.
  InterruptingStreamBuf buf({"OPEN s1 q() :- R(x)\nDELTA s1 + R(a)*\nST",
                             InterruptingStreamBuf::kInterrupt, "ATS s1\n",
                             InterruptingStreamBuf::kInterrupt,
                             "CLOSE s1\n"});
  std::istream in(&buf);
  std::ostringstream out;
  CommandLoop loop = MakeLoop();
  EXPECT_EQ(loop.Run(in, out), 0);
  const std::string output = out.str();
  EXPECT_NE(output.find("> STATS s1\n"), std::string::npos);
  EXPECT_NE(output.find("stats s1 facts=1"), std::string::npos);
  EXPECT_NE(output.find("ok close s1\n"), std::string::npos);
  // The split line executed exactly once, whole: no truncated "ST" echo.
  EXPECT_EQ(output.find("> ST\n"), std::string::npos);
  EXPECT_EQ(output.find("error:"), std::string::npos);
  EXPECT_EQ(loop.error_count(), 0u);
}

TEST(CommandLoopTest, RunStopsOnInterruptWhenStopFlagIsRaised) {
  // The same EINTR during shutdown must NOT retry: the loop drains. The
  // partial line read so far is dropped — the command never ran, so the
  // transcript must not show it.
  volatile std::sig_atomic_t stop = 0;
  InterruptingStreamBuf buf({"OPEN s1 q() :- R(x)\nCLO",
                             InterruptingStreamBuf::kInterrupt, "SE s1\n"},
                            &stop);
  std::istream in(&buf);
  std::ostringstream out;
  CommandLoop loop = MakeLoop();
  EXPECT_EQ(loop.Run(in, out, &stop), 0);
  const std::string output = out.str();
  EXPECT_NE(output.find("ok open s1\n"), std::string::npos);
  EXPECT_EQ(output.find("CLOSE"), std::string::npos);
  EXPECT_EQ(output.find("CLO"), std::string::npos);
  EXPECT_EQ(loop.error_count(), 0u);
}

TEST(CommandLoopTest, RunTreatsStaleEintrErrnoAsEof) {
  // errno is zeroed before each read: a stale EINTR from some earlier
  // syscall must not turn a genuine EOF into an infinite retry loop.
  errno = EINTR;
  std::istringstream in("OPEN s1 q() :- R(x)\n");
  std::ostringstream out;
  CommandLoop loop = MakeLoop();
  EXPECT_EQ(loop.Run(in, out), 0);
  EXPECT_NE(out.str().find("ok open s1\n"), std::string::npos);
}

TEST(CommandLoopTest, RunExecutesFinalUnterminatedLine) {
  std::istringstream in("OPEN s1 q() :- R(x)\nSTATS");
  std::ostringstream out;
  CommandLoop loop = MakeLoop();
  EXPECT_EQ(loop.Run(in, out), 0);
  EXPECT_NE(out.str().find("stats sessions=1"), std::string::npos);
}

TEST(CommandLoopTest, StatsBytesOffOmitsThePlatformDependentField) {
  CommandLoopOptions options;
  options.stats_show_bytes = false;
  CommandLoop loop(options);
  Exec(&loop, "OPEN s1 q() :- R(x)");
  Exec(&loop, "DELTA s1 + R(a)*");
  Exec(&loop, "REPORT s1");
  // Fully deterministic: every field survives except the byte estimate.
  EXPECT_EQ(Exec(&loop, "STATS"),
            "> STATS\n"
            "stats sessions=1 resident=1 hits=0 cached=0 cached_exact=1 "
            "cached_approx=0 misses=1 evictions=0 builds=1 inflight=0\n");

  CommandLoop exact = MakeLoop();
  Exec(&exact, "OPEN s1 q() :- R(x)");
  Exec(&exact, "DELTA s1 + R(a)*");
  Exec(&exact, "REPORT s1");
  EXPECT_NE(Exec(&exact, "STATS").find(" bytes="), std::string::npos);
}

TEST(CommandLoopTest, ApproxOnlySessionLifecycle) {
  // The acceptance story: a query the exact tier refuses (non-hierarchical,
  // previously answerable only with --brute-force) is served end to end
  // through the sampling tier.
  CommandLoop loop = MakeLoop();
  EXPECT_EQ(Exec(&loop, "OPEN s1 q() :- R(x,y), S(x), T(y)"),
            "> OPEN s1 q() :- R(x,y), S(x), T(y)\nok open s1 approx-only\n");
  Exec(&loop, "DELTA s1 + R(a,b)*");
  Exec(&loop, "DELTA s1 + S(a)*");
  Exec(&loop, "DELTA s1 + T(b)*");

  // An exact report names the classification and the way out.
  const std::string exact = Exec(&loop, "REPORT s1");
  EXPECT_NE(exact.find("error: report s1:"), std::string::npos);
  EXPECT_NE(exact.find("not hierarchical"), std::string::npos);
  EXPECT_NE(exact.find("approx=EPS,DELTA"), std::string::npos);

  const std::string approx = Exec(&loop, "REPORT s1 approx=0.1,0.05 seed=7");
  EXPECT_NE(approx.find("report s1 rows=3 endo=3\n"), std::string::npos);
  EXPECT_NE(approx.find("engine: approx-fpras\n"), std::string::npos);
  EXPECT_NE(approx.find("approx: eps=0.1 delta=0.05 seed=7"),
            std::string::npos);
  EXPECT_NE(approx.find("+-ci"), std::string::npos);
  EXPECT_NE(approx.find("end report s1\n"), std::string::npos);
  // Deterministic and cached: the identical request reproduces byte for
  // byte (this serve comes from the approx report cache).
  EXPECT_EQ(Exec(&loop, "REPORT s1 approx=0.1,0.05 seed=7"), approx);

  const std::string global = Exec(&loop, "STATS");
  EXPECT_NE(global.find(" approx=2"), std::string::npos);
  EXPECT_NE(global.find(" cached_approx=1"), std::string::npos);
  const std::string session = Exec(&loop, "STATS s1");
  EXPECT_NE(session.find(" resident=no"), std::string::npos);
  EXPECT_NE(session.find(" tier=approx-only"), std::string::npos);
  EXPECT_NE(session.find(" cached_approx=1"), std::string::npos);
  EXPECT_EQ(loop.error_count(), 1u);  // only the exact REPORT refusal
}

TEST(CommandLoopTest, StructuredReportRequestRejectsPositional) {
  CommandLoop loop = MakeLoop();
  Exec(&loop, "OPEN s1 q() :- R(x)");
  Exec(&loop, "DELTA s1 + R(a)*");
  Exec(&loop, "DELTA s1 + R(b)*");
  Exec(&loop, "DELTA s1 + R(c)*");
  const std::string structured = Exec(&loop, "REPORT s1 top_k=2 threads=2");
  EXPECT_NE(structured.find("rows=2 endo=3"), std::string::npos);
  // The retired positional spelling of the same request is an error.
  EXPECT_EQ(Exec(&loop, "REPORT s1 2 --threads 2"),
            "> REPORT s1 2 --threads 2\n"
            "error: report s1: expected key=value argument, got '2'\n");

  // Parse errors surface through the loop's error frame.
  EXPECT_NE(Exec(&loop, "REPORT s1 topk=2")
                .find("error: report s1: unknown key 'topk'"),
            std::string::npos);
  EXPECT_NE(Exec(&loop, "REPORT s1 seed=3")
                .find("require approx=EPS[,DELTA]"),
            std::string::npos);
  // force_approx=1 flips an exact-capable session onto the sampling tier.
  const std::string forced =
      Exec(&loop, "REPORT s1 approx=0.2,0.05 force_approx=1");
  EXPECT_NE(forced.find("engine: approx-fpras\n"), std::string::npos);
  EXPECT_EQ(loop.error_count(), 3u);
}

TEST(CommandLoopTest, SharedModeLoopsSeeOneRegistry) {
  // Two connection loops over one registry: a session opened through one
  // is visible (and mutable) through the other — the socket server's
  // sharing model.
  CommandLoopOptions options;
  EngineRegistry registry(options.registry);
  CommandLoop a(options, &registry, nullptr);
  CommandLoop b(options, &registry, nullptr);
  EXPECT_EQ(Exec(&a, "OPEN s1 q() :- R(x)"),
            "> OPEN s1 q() :- R(x)\nok open s1\n");
  EXPECT_EQ(Exec(&b, "DELTA s1 + R(a)*"),
            "> DELTA s1 + R(a)*\nok delta s1 facts=1 endo=1\n");
  EXPECT_NE(Exec(&a, "REPORT s1").find("rows=1 endo=1"), std::string::npos);
  EXPECT_EQ(Exec(&b, "OPEN s1 q() :- R(x)"),
            "> OPEN s1 q() :- R(x)\n"
            "error: open s1: session s1 is already open\n");
  EXPECT_EQ(a.error_count(), 0u);
  EXPECT_EQ(b.error_count(), 1u);
}

}  // namespace
}  // namespace shapcq
