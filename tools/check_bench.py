#!/usr/bin/env python3
"""The benchmark gates: every perf and accuracy bound the recordings must hold.

usage: check_bench.py BENCH_JSON...

Pools the Google Benchmark rows of every file given (each row keeps its own
file's "context") and runs every gate in GATES. Exits 1 if a gate fails, if
a gate finds none of its rows, or if two files hold rows of the same
benchmark family, so a caller cannot skip a gate by passing fewer files.
Every ratio divides two rows of one run on one machine, so it is free of
cross-host drift.
"""

import json
import math
import operator
import sys

OPS = {">=": operator.ge, "<=": operator.le}


def load(paths):
    """family -> {first arg: row} over the non-aggregate rows of `paths`."""
    rows, source = {}, {}
    for path in paths:
        with open(path) as handle:
            report = json.load(handle)
        for row in report.get("benchmarks", []):
            if row.get("run_type") == "aggregate":
                continue
            family, _, args = row["name"].partition("/")
            if source.setdefault(family, path) != path:
                sys.exit(f"error: {family} rows in both {source[family]} "
                         f"and {path}")
            row["context"] = report.get("context", {})
            rows.setdefault(family, {})[args.split("/")[0]] = row
    return rows


def endo(row):
    """The endo=N count in a row's label (0 when the label has none)."""
    for token in row.get("label", "").split():
        if token.startswith("endo="):
            return int(token[len("endo="):])
    return 0


def show(x):
    return f"{x:.1f}" if x >= 10 else f"{x:.2f}" if x >= 1 else f"{x:.3f}"


def ratios(rows, num, den, keep=lambda arg, row: True):
    """[(arg, num real_time / den real_time)] at the args both families hold
    whose `den` row passes `keep`."""
    a, b = rows.get(num, {}), rows.get(den, {})
    return [(arg, a[arg]["real_time"] / b[arg]["real_time"])
            for arg in sorted(set(a) & set(b), key=int) if keep(arg, b[arg])]


def ratio_gate(rows, num, den, op, bound, keep=lambda arg, row: True):
    return [(f"{num} / {den} at {arg}: {show(r)} (need {op} {bound})",
             OPS[op](r, bound)) for arg, r in ratios(rows, num, den, keep)]


def geomean_gate(rows, num, den, at_least, min_arg):
    logs = [math.log(r) for _, r in
            ratios(rows, num, den, lambda arg, row: int(arg) >= min_arg)]
    if not logs:
        return []
    mean = math.exp(sum(logs) / len(logs))
    return [(f"geomean {num} / {den} over {len(logs)} args >= {min_arg}: "
             f"{show(mean)} (need >= {at_least})", mean >= at_least)]


def retention_gate(rows, family, bound):
    """Per-client throughput at the largest client count N against one
    client, cmds_per_sec[N] / (N * cmds_per_sec[1]), must reach
    bound * min(num_cpus, N) / N: the share of perfect scaling the host can
    physically give, so a 1-CPU host degrades the bar instead of failing."""
    load = rows.get(family, {})
    top = max(map(int, load), default=0)
    if "1" not in load or top < 2:
        return []
    base = load["1"].get("cmds_per_sec", 0.0)
    high = load[str(top)].get("cmds_per_sec", 0.0)
    cpus = int(load[str(top)]["context"].get("num_cpus", 1))
    retention = high / (top * base) if base > 0 else 0.0
    bar = bound * min(cpus, top) / top
    return [(f"{family} at {top} clients: retention {retention:.2f} (need "
             f">= {bar:.2f} = {bound} x min({cpus} cpus, {top}) / {top})",
             retention >= bar)]


def approx_gate(rows):
    width = rows.get("BM_ApproxCiWidth", {})
    rate = rows.get("BM_ApproxSamplesPerSec", {})
    gap = rows.get("BM_GapValueMagnitude", {})
    if not (width and rate and gap):
        return []
    checks, previous = [], math.inf
    for m in sorted(width, key=int):
        margin = width[m].get("cover_margin_min", -math.inf)
        ci = width[m]["ci_max"]
        checks.append((f"BM_ApproxCiWidth/{m}: cover_margin_min "
                       f"{margin:.4f} (need >= 0), ci_max {ci:.4f} "
                       f"(need < {previous:.4f})",
                       margin >= 0 and ci < previous))
        previous = ci
    best = max(row.get("samples_per_sec", 0.0) for row in rate.values())
    checks.append((f"BM_ApproxSamplesPerSec: best {best:.0f} samples/s "
                   "(need > 0)", best > 0))
    for n in sorted(gap, key=int):
        log2_value = gap[n].get("log2_value", 0.0)
        brute_match = gap[n].get("brute_match")
        checks.append((f"BM_GapValueMagnitude/{n}: log2_value "
                       f"{log2_value:.2f} (need <= -{n}), brute_match "
                       f"{brute_match} (need != 0)",
                       log2_value <= -int(n) and brute_match != 0))
    return checks


# Each gate maps the pooled rows to (line, passed) checks; no checks means
# its rows are missing, which fails the gate.
GATES = {
    # The all-facts engine for hierarchical CQ-not (Theorem 3.1) must stay
    # >= 50x ahead of the per-fact CntSat reduction it replaces, at the
    # endo >= 70 sizes where the shared sweep has real fan-out to amortize.
    # The 4-CPU recordings show 227-256x at endo 70 and 343-451x at 112.
    "arena": lambda rows: ratio_gate(
        rows, "BM_PerFactCountSatLoop", "BM_EngineAllFacts", ">=", 50,
        keep=lambda arg, row: endo(row) >= 70),
    # A single-fact delta must cost at most half a rebuild. The bound is
    # loose (measured ratios are under 0.1, i.e. >= 10x) so only real
    # regressions trip it, not runner noise.
    "incremental": lambda rows: ratio_gate(
        rows, "BM_IncrementalDelta", "BM_RebuildPerDelta", "<=", 0.5),
    # A warm (resident, report-cached) engine must serve a report >= 5x
    # faster than a cold per-request rebuild; the measured gap is orders of
    # magnitude, so only real regressions trip it.
    "server": lambda rows: ratio_gate(
        rows, "BM_ServerColdReport", "BM_ServerWarmReport", ">=", 5),
    # Multi-limb multiply (>= 4 limbs) must stay >= 1.5x faster, as a
    # geomean, than the retained 32-bit seed kernel (RefBigInt); the
    # measured gap is over 3x.
    "arith": lambda rows: geomean_gate(
        rows, "BM_RefBigIntMul", "BM_BigIntMul", 1.5, min_arg=4),
    # N socket clients on distinct sessions must keep >= 40% of perfect
    # per-client scaling; a registry serialized by one global lock
    # collapses toward 1/N and trips it.
    "service_load": lambda rows: retention_gate(
        rows, "BM_ServiceLoadMixed", 0.4),
    # The sampling tier's additive FPRAS: every exact value sits inside its
    # confidence interval (fixed seed, so a fixed outcome), intervals shrink
    # strictly as the per-orbit budget m grows (the 1/sqrt(m) shape), and
    # sampling runs. The gap family's values stay at or below 2^-n, and
    # brute force agrees with n!n!/(2n+1)!: the Theorem 5.1 reason no
    # multiplicative FPRAS exists under negation.
    "approx": approx_gate,
}


def main(paths):
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    rows = load(paths)
    failed = []
    for name, gate in GATES.items():
        checks = gate(rows) or [("no rows found", False)]
        for line, passed in checks:
            print(f"{name}: {line} [{'OK' if passed else 'FAIL'}]")
        if not all(passed for _, passed in checks):
            failed.append(name)
    if failed:
        print(f"error: gates failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all {len(GATES)} gates OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
