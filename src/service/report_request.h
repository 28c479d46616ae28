// The unified ReportRequest surface: one grammar, one parser, consumed by
// both the CLI (flags assemble key=value tokens) and the server's REPORT
// command — report parameters are validated in exactly one place.
//
// Grammar: zero or more key=value tokens, each key at most once:
//
//   top_k=K          keep only the K highest-ranked rows (0 = all)
//   threads=N        worker threads (1 = serial, 0 = hardware concurrency,
//                    at most kMaxReportThreads)
//   approx=EPS,DELTA sampling tier: additive error EPS at joint failure
//                    probability DELTA, both in (0,1); "approx=EPS" defaults
//                    DELTA to 0.05
//   seed=S           RNG seed of the sampling tier (default 0)
//   max_samples=M    per-orbit sample cap (0 = the full Hoeffding count;
//                    capping widens the reported intervals)
//   force_approx=0|1 sample even when an exact engine applies
//   deadline_ms=N    wall-clock budget for this report; expiry returns the
//                    structured [E_DEADLINE] error (or degrades, per
//                    on_deadline). 0 = no deadline — also overrides a
//                    server --default-deadline-ms
//   on_deadline=error|approx
//                    policy when an exact report's deadline expires:
//                    'error' (the default) fails with [E_DEADLINE],
//                    'approx' degrades to the sampling tier (CI-annotated
//                    rows, "approx:" provenance). Inert without a deadline
//                    in effect, so it composes with the server default

#ifndef SHAPCQ_SERVICE_REPORT_REQUEST_H_
#define SHAPCQ_SERVICE_REPORT_REQUEST_H_

#include <cstddef>
#include <string>

#include "core/report.h"
#include "util/result.h"

namespace shapcq {

/// Ceiling on a request's threads=N (and on the server's --threads
/// default): a pool spawns every worker up front, and values are
/// bit-identical at any count, so nothing is lost past the core count.
constexpr size_t kMaxReportThreads = 256;

/// A parsed report request. Fields not mentioned keep their defaults.
struct ReportRequest {
  size_t top_k = 0;
  size_t threads = 1;
  ApproxSpec approx;            // enabled iff an approx key was given
  size_t deadline_ms = 0;          // 0 = no deadline
  bool deadline_in_request = false;  // deadline_ms key was given (so
                                     // deadline_ms=0 can override a server
                                     // default)
  OnDeadline on_deadline = OnDeadline::kError;

  /// The engine-facing options (exo/brute-force knobs stay default — they
  /// are not part of the request surface).
  ReportOptions ToReportOptions() const {
    ReportOptions options;
    options.top_k = top_k;
    options.num_threads = threads;
    options.approx = approx;
    options.deadline_ms = deadline_ms;
    options.on_deadline = on_deadline;
    return options;
  }
};

/// Parses the argument tail of a REPORT command (everything after the
/// session id) or a CLI-assembled request string. `default_threads` seeds
/// ReportRequest::threads (a threads key overrides it). Errors carry no
/// command context — callers prefix "report <id>: " etc.
Result<ReportRequest> ParseReportRequest(const std::string& args,
                                         size_t default_threads);

}  // namespace shapcq

#endif  // SHAPCQ_SERVICE_REPORT_REQUEST_H_
