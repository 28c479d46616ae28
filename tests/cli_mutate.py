#!/usr/bin/env python3
"""shapcq_cli --mutate end to end: the delta replay serves an exact table
from the incremental engine, so it must refuse the report keys that engine
cannot honour (force_approx=1, a deadline) instead of dropping them, and
still serve the keys it can (top_k, threads).

usage: cli_mutate.py SHAPCQ_CLI
"""

import os
import subprocess
import sys
import tempfile

DB = ("Stud(Adam) Stud(Ben) TA(Adam)* TA(Ben)* Reg(Adam,OS)* Reg(Adam,AI)* "
      "Reg(Ben,OS)*")
QUERY = "q1() :- Stud(x), not TA(x), Reg(x,y)"
DELTAS = "- TA(Ben)*\n+ Reg(Ben,DB)*\n"


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    failures = []
    with tempfile.TemporaryDirectory() as workdir:
        delta_path = os.path.join(workdir, "deltas.txt")
        with open(delta_path, "w") as handle:
            handle.write(DELTAS)

        def cli(*flags):
            return subprocess.run(
                [sys.argv[1], "--db", DB, "--query", QUERY, "--mutate",
                 delta_path] + list(flags),
                capture_output=True, text=True, timeout=60)

        for flags, key in [(["--approx", "0.1,0.05", "--force-approx"],
                            "force_approx"),
                           (["--deadline-ms", "1000"], "deadline_ms")]:
            run = cli(*flags)
            if run.returncode != 2 or f"bad report request: {key}" not in \
                    run.stderr or "engine:" in run.stdout:
                failures.append(f"{flags}: want exit 2 naming {key}, got "
                                f"{run.returncode}:\n{run.stdout}{run.stderr}")

        run = cli("--top-k", "2", "--threads", "2")
        if (run.returncode != 0 or
                "engine: CntSat (incremental)" not in run.stdout or
                "applied 2 deltas" not in run.stdout or
                len([line for line in run.stdout.splitlines()
                     if line.startswith("Reg(") or
                     line.startswith("TA(")]) != 2):
            failures.append(f"--top-k 2 --threads 2: want a 2-row table, got "
                            f"{run.returncode}:\n{run.stdout}{run.stderr}")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
