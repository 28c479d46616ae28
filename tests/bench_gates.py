#!/usr/bin/env python3
"""Gate coverage for tools/check_bench.py, on the checked-in recordings.

The BENCH_*.json files at the repository root must pass every gate. Then,
for each gate, doctored copies of them must fail with exit 1 and name the
gate: one copy per family (or row) the gate needs with those rows removed,
and one copy whose recorded values are pushed just past the gate's bound.
The same values pushed just inside the bound must pass again, so the test
pins every bound in both directions: no gate can get looser (or stricter)
or stop running unnoticed.

usage: bench_gates.py REPO_ROOT
"""

import copy
import glob
import json
import math
import os
import subprocess
import sys
import tempfile

PAST, INSIDE = "past", "inside"
EPS = 1e-6


def families(reports):
    """family -> {first arg: row}, plus family -> the context of its file."""
    rows, contexts = {}, {}
    for report in reports.values():
        for row in report["benchmarks"]:
            family, _, args = row["name"].partition("/")
            rows.setdefault(family, {})[args.split("/")[0]] = row
            contexts[family] = report.get("context", {})
    return rows, contexts


def label_endo(row):
    for token in row.get("label", "").split():
        if token.startswith("endo="):
            return int(token[len("endo="):])
    return 0


def set_ratio(num, den, bound, at_least, keep=lambda arg, row: True,
              geomean=False):
    """Moves num/den to just inside `bound` at every arg the gate reads,
    except that on side PAST the smallest such arg goes past it, by enough
    to take a geomean past too. Args the gate skips go far past the bound,
    so a filter that reads them (or skips the smallest read one) shows."""
    sign = 1 if at_least else -1

    def doctor(rows, contexts, side):
        common = sorted(set(rows[num]) & set(rows[den]), key=int)
        gated = [arg for arg in common if keep(arg, rows[den][arg])]
        for arg in common:
            step = EPS if arg in gated else -5.0
            if arg == gated[0] and side == PAST:
                step = -EPS * (2 * len(gated) - 1 if geomean else 1)
            rows[num][arg]["real_time"] = (rows[den][arg]["real_time"] *
                                           bound * math.exp(sign * step))
    doctor.__name__ = f"set_ratio({num} / {den})"
    return doctor


def set_retention(cpus=None):
    """Moves the largest client count's retention around its bar; with
    `cpus`, as recorded on a host with that many CPUs."""
    def doctor(rows, contexts, side):
        context = contexts["BM_ServiceLoadMixed"]
        if cpus is not None:
            context["num_cpus"] = cpus
        load = rows["BM_ServiceLoadMixed"]
        top = max(map(int, load))
        bar = 0.4 * min(int(context.get("num_cpus", 1)), top) / top
        load[str(top)]["cmds_per_sec"] = (
            top * load["1"]["cmds_per_sec"] * bar *
            (1 + (-EPS if side == PAST else EPS)))
    doctor.__name__ = f"set_retention(num_cpus={cpus or 'as recorded'})"
    return doctor


def last(family_rows):
    return family_rows[max(family_rows, key=int)]


def set_cover_margin(rows, contexts, side):
    last(rows["BM_ApproxCiWidth"])["cover_margin_min"] = (
        -1e-9 if side == PAST else 0.0)


def set_ci_shrink(rows, contexts, side):
    widths = [rows["BM_ApproxCiWidth"][m]
              for m in sorted(rows["BM_ApproxCiWidth"], key=int)]
    previous = widths[-2]["ci_max"]
    widths[-1]["ci_max"] = previous if side == PAST else previous * (1 - 1e-9)


def set_throughput(rows, contexts, side):
    for row in rows["BM_ApproxSamplesPerSec"].values():
        row["samples_per_sec"] = 0.0 if side == PAST else 1e-9


def set_gap_magnitude(rows, contexts, side):
    n = max(rows["BM_GapValueMagnitude"], key=int)
    rows["BM_GapValueMagnitude"][n]["log2_value"] = (
        -int(n) + (1e-9 if side == PAST else 0.0))


def set_brute_match(rows, contexts, side):
    last(rows["BM_GapValueMagnitude"])["brute_match"] = (
        0.0 if side == PAST else -1.0)


# gate -> (row name prefixes it needs, doctors that move its bound). The
# bounds here restate the ones in tools/check_bench.py on purpose.
GATES = {
    "arena": (["BM_PerFactCountSatLoop", "BM_EngineAllFacts"], [set_ratio(
        "BM_PerFactCountSatLoop", "BM_EngineAllFacts", 50, at_least=True,
        keep=lambda arg, row: label_endo(row) >= 70)]),
    "incremental": (["BM_IncrementalDelta", "BM_RebuildPerDelta"], [set_ratio(
        "BM_IncrementalDelta", "BM_RebuildPerDelta", 0.5, at_least=False)]),
    "server": (["BM_ServerColdReport", "BM_ServerWarmReport"], [set_ratio(
        "BM_ServerColdReport", "BM_ServerWarmReport", 5, at_least=True)]),
    "arith": (["BM_RefBigIntMul", "BM_BigIntMul"], [set_ratio(
        "BM_RefBigIntMul", "BM_BigIntMul", 1.5, at_least=True,
        keep=lambda arg, row: int(arg) >= 4, geomean=True)]),
    "service_load": (["BM_ServiceLoadMixed", "BM_ServiceLoadMixed/1"],
                     [set_retention(), set_retention(cpus=1)]),
    "approx": (["BM_ApproxCiWidth", "BM_ApproxSamplesPerSec",
                "BM_GapValueMagnitude"],
               [set_cover_margin, set_ci_shrink, set_throughput,
                set_gap_magnitude, set_brute_match]),
}


def run(script, reports, workdir):
    """Writes `reports` under `workdir` and runs the gates on them."""
    paths = []
    for name, report in reports.items():
        paths.append(os.path.join(workdir, name))
        with open(paths[-1], "w") as handle:
            json.dump(report, handle)
    done = subprocess.run([sys.executable, script] + paths,
                          capture_output=True, text=True)
    for path in paths:
        os.remove(path)
    return done.returncode, done.stdout + done.stderr


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = sys.argv[1]
    script = os.path.join(root, "tools", "check_bench.py")
    recorded = {}
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        with open(path) as handle:
            recorded[os.path.basename(path)] = json.load(handle)

    failures = []

    def expect(what, reports, code, gate):
        """Runs the gates; exit 1 must name exactly `gate` as failed."""
        with tempfile.TemporaryDirectory() as workdir:
            got, output = run(script, reports, workdir)
        failed = output.partition("gates failed: ")[2].split("\n")[0]
        if got != code or (code == 1 and failed.split(", ") != [gate]):
            failures.append(f"{what}: want exit {code}, got {got}:\n{output}")

    expect("checked-in recordings", recorded, 0, None)
    for gate, (prefixes, doctors) in GATES.items():
        for prefix in prefixes:
            stripped = copy.deepcopy(recorded)
            for report in stripped.values():
                report["benchmarks"] = [
                    row for row in report["benchmarks"]
                    if not (row["name"] + "/").startswith(prefix + "/")]
            expect(f"{gate} without {prefix}", stripped, 1, gate)
        for doctor in doctors:
            for side in (PAST, INSIDE):
                doctored = copy.deepcopy(recorded)
                doctor(*families(doctored), side)
                expect(f"{gate} {doctor.__name__} {side} the bound", doctored,
                       1 if side == PAST else 0, gate)

    # One family in two files is refused: a caller could otherwise shadow a
    # fresh recording with a stale one.
    twice = dict(recorded)
    twice["BENCH_copy.json"] = recorded["BENCH_server.json"]
    with tempfile.TemporaryDirectory() as workdir:
        got, output = run(script, twice, workdir)
    if got != 1 or "BM_Server" not in output:
        failures.append(f"duplicate family: want exit 1, got {got}:\n{output}")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
