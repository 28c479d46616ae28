#!/usr/bin/env python3
"""Alternating A/B pairs of the end-to-end benchmark: BASE_REV against the
working tree.

usage: ab_serverbench.py BASE_REV [--pairs N]

Exports BASE_REV with `git archive` into a temporary directory (nothing is
registered in the repository, so even a killed run leaves no stale
worktree) and runs BENCHMARK.json's command, `serverbench/run.py --trace 0`,
once per side for each workload and pair (N = 10 by default). Pair i runs
at seed i and puts the base side first when i is odd and the working tree
first when it is even, so slow drift on the host falls on both sides alike.
Each side builds its server from its own checkout.

Per workload and end-to-end metric it prints one row: both medians, each
side's IQR/median, the ratio change/base, how many pairs the change was
ahead in, and a verdict against the metric's BENCHMARK.json bound:

  worse       the change's median is worse than the base's by more than the
              bound;
  unresolved  a side's IQR/median exceeds the bound and not every change run
              beats every base run;
  gain        the change is ahead in at least 9 of 10 pairs and the medians
              differ by more than the base's IQR;
  flat        none of these.

Exits 1 if any run is incorrect (`"correct": false`, or run.py fails) and
2 on bad arguments; removes the exported tree on exit.
"""

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Stopped(Exception):
    pass


def export(rev, into):
    """Writes the tree of `rev` into the directory `into`."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(into)],
                           stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        sys.exit(f"error: could not export {rev}")


def run_once(root, command, workload, seed, seconds):
    """One untraced run.py run in checkout `root`: (correct, result or None,
    failure text)."""
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.Popen(args, cwd=root, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            stdin=subprocess.DEVNULL)
    try:
        out, err = proc.communicate()
    except BaseException:
        # run.py stops its server on SIGINT; give it the chance.
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return False, None, (err.strip() or out.strip())[-2000:]
    result = json.loads(lines[-1])
    failures = [line for line in lines if line.startswith("FAIL ")]
    return bool(result["correct"]), result, "\n".join(failures)


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(base, change, lower, bound):
    """The row for one metric: medians, spreads, ratio, ahead count and
    verdict, as in the module docstring."""
    mb, mc = statistics.median(base), statistics.median(change)
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    ahead = sum(better(c, b) for b, c in zip(base, change))
    spread_b = iqr(base) / mb if mb else 0.0
    spread_c = iqr(change) / mc if mc else 0.0
    if lower:
        worse = mc > mb * (1 + bound)
        every = max(change) < min(base)
    else:
        worse = mc < mb * (1 - bound)
        every = min(change) > max(base)
    if worse:
        word = "worse"
    elif max(spread_b, spread_c) > bound and not every:
        word = "unresolved"
    elif (10 * ahead >= 9 * len(base) and better(mc, mb)
          and abs(mc - mb) > iqr(base)):
        word = "gain"
    else:
        word = "flat"
    ratio = mc / mb if mb else float("nan")
    return mb, mc, spread_b, spread_c, ratio, ahead, word


def show(x):
    return (f"{x:.0f}" if abs(x) >= 1000 else f"{x:.1f}" if abs(x) >= 10
            else f"{x:.2f}" if abs(x) >= 1 else f"{x:.3f}")


def main(argv):
    parser = argparse.ArgumentParser(
        description="Alternating A/B pairs of serverbench/run.py: BASE_REV "
                    "against the working tree.")
    parser.add_argument("base_rev")
    parser.add_argument("--pairs", type=int, default=10)
    opts = parser.parse_args(argv)
    if opts.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    rev = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify",
         opts.base_rev + "^{commit}"],
        capture_output=True, text=True)
    if rev.returncode != 0:
        parser.error(f"unknown revision {opts.base_rev}")

    def stop(signum, frame):
        raise Stopped(f"stopped by signal {signum}")
    signal.signal(signal.SIGTERM, stop)

    base_root = Path(tempfile.mkdtemp(prefix="ab_serverbench."))
    pairs = {w: [] for w in workloads}  # [(base result, change result)]
    incorrect = []
    try:
        export(rev.stdout.strip(), base_root)
        roots = {"base": base_root, "change": ROOT}
        for seed in range(1, opts.pairs + 1):
            order = ("base", "change") if seed % 2 else ("change", "base")
            for workload in workloads:
                results = {}
                for side in order:
                    correct, results[side], failure = run_once(
                        roots[side], spec["command"], workload, seed,
                        spec["run_seconds"])
                    print(f"pair {seed}/{opts.pairs} {workload} {side}: "
                          f"{'correct' if correct else 'INCORRECT'}",
                          file=sys.stderr, flush=True)
                    if not correct:
                        incorrect.append(f"{workload} seed={seed} {side}: "
                                         f"{failure}")
                if None not in results.values():
                    pairs[workload].append((results["base"],
                                            results["change"]))
    except (Stopped, KeyboardInterrupt) as err:
        print(f"error: {err or 'interrupted'}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base_root, ignore_errors=True)

    print(f"{opts.pairs} alternating pairs, seeds 1-{opts.pairs}, base "
          f"{opts.base_rev} ({rev.stdout.strip()[:7]}) vs the working tree\n")
    print("| workload | metric | base | change | change/base | base IQR/med "
          "| change IQR/med | change ahead | verdict |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---|")
    for workload in workloads:
        sides = list(zip(*pairs[workload]))  # [base results, change results]
        if not sides:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            mb, mc, sb, sc, ratio, ahead, word = verdict(
                *[[r["metrics"][name]["value"] for r in side]
                  for side in sides],
                metric["better"] == "lower", metric["bound"])
            print(f"| {workload} | {name} | {show(mb)} | {show(mc)} | "
                  f"{ratio:.3f} | {sb:.2f} | {sc:.2f} | "
                  f"{ahead}/{len(sides[0])} | {word} |")
        ops = [f"{sum(r['failed'] for r in side)}/"
               f"{sum(r['attempted'] for r in side)}" for side in sides]
        print(f"| {workload} | failed ops | {ops[0]} | {ops[1]} "
              "| | | | | |")
    for line in incorrect:
        print(f"INCORRECT {line}", file=sys.stderr)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
