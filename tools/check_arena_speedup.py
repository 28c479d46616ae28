#!/usr/bin/env python3
"""CI gate for the all-facts engine perf claim.

Reads the Google Benchmark JSON produced by bench_shapley_all and compares
the engine's all-facts rows (BM_EngineAllFacts: the arena's value sweep on a
freshly built engine; Build is excluded and tracked by BM_EngineBuildOnly in
the same JSON) against the per-fact CntSat loop recorded in the same run
(BM_PerFactCountSatLoop: one ShapleyViaCountSat call, i.e. two full CntSat
runs over copied databases, per endogenous fact). Because both rows run on
the same machine in the same process, the ratio is free of cross-host
drift.

Fails (exit 1) if the speedup at any size with endo >= --min-endo (default
70, where the shared sweep has real fan-out to amortize) falls below
--min-speedup (default 50x; the 4-CPU recording in BENCH_shapley.json shows
256x at endo=70 and 343x at endo=112).

usage: check_arena_speedup.py BENCH_JSON [--min-speedup 50] [--min-endo 70]
"""

import argparse
import json
import sys

ENGINE = "BM_EngineAllFacts/"
PER_FACT = "BM_PerFactCountSatLoop/"


def rows_by_arg(benchmarks, prefix):
    """arg -> (real_time, endo) for the non-aggregate rows of one family."""
    out = {}
    for row in benchmarks:
        name = row.get("name", "")
        if not name.startswith(prefix) or row.get("run_type") == "aggregate":
            continue
        arg = name[len(prefix):].split("/")[0]
        label = row.get("label", "")
        endo = None
        for token in label.split():
            if token.startswith("endo="):
                endo = int(token[len("endo="):])
        out[arg] = (float(row["real_time"]), endo)
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("bench_json")
    parser.add_argument("--min-speedup", type=float, default=50.0)
    parser.add_argument("--min-endo", type=int, default=70)
    args = parser.parse_args()

    with open(args.bench_json) as handle:
        report = json.load(handle)
    benchmarks = report.get("benchmarks", [])
    engine = rows_by_arg(benchmarks, ENGINE)
    per_fact = rows_by_arg(benchmarks, PER_FACT)

    gated = []
    for arg in sorted(set(engine) & set(per_fact), key=int):
        engine_ns, endo = engine[arg]
        per_fact_ns, _ = per_fact[arg]
        if endo is None or endo < args.min_endo:
            continue
        gated.append((arg, endo, per_fact_ns / engine_ns, engine_ns,
                      per_fact_ns))
    if not gated:
        print("error: no comparable BM_EngineAllFacts/BM_PerFactCountSatLoop "
              f"rows with endo >= {args.min_endo} found", file=sys.stderr)
        return 1

    failed = False
    for arg, endo, speedup, engine_ns, per_fact_ns in gated:
        verdict = "OK" if speedup >= args.min_speedup else "REGRESSION"
        print(f"all-facts arg {arg} (endo={endo}): engine {engine_ns:.0f} ns "
              f"vs per-fact loop {per_fact_ns:.0f} ns -> speedup "
              f"{speedup:.1f}x [{verdict}]")
        failed = failed or speedup < args.min_speedup
    if failed:
        print(f"error: engine speedup over the per-fact loop fell below the "
              f"{args.min_speedup:.0f}x floor at endo >= {args.min_endo}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
