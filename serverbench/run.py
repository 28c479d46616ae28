#!/usr/bin/env python3
"""End-to-end benchmark of shapcq_server (see README.md).

Builds the server and the benchmark client from this checkout, starts a
fresh `shapcq_server --listen` per run (durable, its own log directory),
drives it through the named workload's seeded stream, checks the answers
and prints the metrics. The last line of stdout is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The timed phase is a fixed number of rounds
per workload; --seconds caps it.

  python3 serverbench/run.py --workload exact_delta --seed 1 --seconds 20 \
      --trace 0
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "serverbench"
SERVER = BUILD / "shapcq" / "shapcq_server"
TOOL = BUILD / "serverbench"
# Set-ups per untraced run: each starts its own server and loads the same
# base data; setup_s is their median.
SETUPS = 5
# A run must end within 180 s (after the build); stop everything before.
RUN_LIMIT_S = 170


class RunTimeout(Exception):
    pass


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 8))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs, "--target",
              "serverbench", "shapcq_server"]]
    if not (BUILD / "Makefile").exists():
        steps.insert(0, ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(BUILD / "build.log", "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                log.flush()
                tail = (BUILD / "build.log").read_text()[-4000:]
                raise RuntimeError("build failed:\n" + tail)


class Server:
    """One shapcq_server --listen process on an ephemeral port."""

    def __init__(self, args, log_dir):
        self.start_ns = time.monotonic_ns()
        self.proc = subprocess.Popen(
            [str(SERVER), "--listen", "127.0.0.1:0", "--log-dir",
             str(log_dir), *args],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        self.port = None
        for line in self.proc.stderr:
            match = re.search(r"listening on [^ ]*:(\d+)", line)
            if match:
                self.port = match.group(1)
                break
        if self.port is None:
            self.stop()
            raise RuntimeError("server did not start")

    def stop(self):
        """SIGTERM, reap; returns (peak RSS in MB, remaining stderr)."""
        if self.proc.returncode is not None:
            return 0.0, ""
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 10
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                deadline = float("inf")
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = self.proc.stderr.read()
        self.proc.stderr.close()
        return usage.ru_maxrss / 1024.0, stderr


def tool(args):
    done = subprocess.run([str(TOOL), *args], capture_output=True, text=True,
                          stdin=subprocess.DEVNULL)
    if done.returncode != 0:
        raise RuntimeError("serverbench failed: " + done.stderr)
    return done.stdout


def run(opts, spec, scratch):
    server_args = tool(["server-args", "--workload", opts.workload]).split()
    setups = 1 if opts.trace else SETUPS
    setup_s = []
    attempted = failed = 0
    failures = []
    for i in range(setups):
        last = i == setups - 1
        args = ["run", "--workload", opts.workload, "--seed", str(opts.seed)]
        if not last:
            args.append("--setup-only")
        else:
            args += ["--seconds", str(opts.seconds)]
            if opts.trace:
                (scratch / "trace").mkdir()
                args += ["--trace", "1", "--scratch", str(scratch / "trace"),
                         "--spans", str(BUILD / f"spans_{opts.workload}.tsv")]
        server = Server(server_args, scratch / f"log{i}")
        try:
            result = json.loads(tool(args + ["--port", server.port])
                                .strip().splitlines()[-1])
        finally:
            peak_rss_mb, stderr = server.stop()
        setup_s.append((result["setup_end_ns"] - server.start_ns) / 1e9)
        attempted += result["attempted"]
        failed += result["failed"]
        failures += result["failures"]
        # The server's own count of "error:" replies must match the client's.
        drained = re.search(r"client_errors=(\d+)", stderr)
        if not drained or int(drained.group(1)) != result["errors"]:
            failures.append("server drain line disagrees on client errors: "
                            + stderr.strip())

    if opts.trace:
        values = result["per_layer"]
        wanted = spec["per_layer"]
    else:
        values = dict(result["e2e"], setup_s=statistics.median(setup_s),
                      peak_rss_mb=peak_rss_mb)
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError("metric names disagree with BENCHMARK.json: "
                           + ", ".join(sorted(set(values) ^
                                              {m["name"] for m in wanted})))
    samples = " ".join(f"{k}={v}" for k, v in result["samples"].items())
    rounds = f"{result['rounds']} timed rounds"
    if result["rounds"] < result["planned_rounds"]:
        rounds += (f" (cut at the {opts.seconds:g} s cap, of "
                   f"{result['planned_rounds']})")
    print(f"{opts.workload} seed={opts.seed}: {rounds}; samples {samples}; "
          f"setup_s median of {setups}; recomputed-report medians by tenth "
          + " ".join(f"{t:.3g}" for t in result["report_tenths_ms"]))
    for failure in failures:
        print("FAIL " + failure)
    return {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    def timeout(signum, frame):
        raise RunTimeout(f"run exceeded {RUN_LIMIT_S} s")
    signal.signal(signal.SIGALRM, timeout)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if opts.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {opts.workload}")
    scratch = None
    try:
        build()  # the first build in a checkout may take minutes
        signal.alarm(RUN_LIMIT_S)
        scratch = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
        result = run(opts, spec, scratch)
        signal.alarm(0)
    except (RuntimeError, RunTimeout, OSError, ValueError, KeyError) as err:
        print(f"serverbench: {err}", file=sys.stderr)
        return 1
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
