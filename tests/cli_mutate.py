#!/usr/bin/env python3
"""shapcq_cli --mutate end to end: the report after the delta replay goes
through the same BuildAttributionReport call as every other report, served
from the replayed engine, so every report key applies: force_approx=1 serves
a sampled table, a deadline an exact one, top_k and threads as usual. Each
table must include the replayed insert Reg(Ben,DB)*.

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

        for flags, engine in [(["--approx", "0.1,0.05", "--force-approx"],
                               "approx-fpras"),
                              (["--deadline-ms", "1000"],
                               "CntSat (incremental)")]:
            run = cli(*flags)
            if (run.returncode != 0 or
                    f"engine: {engine}\n" not in run.stdout or
                    "applied 2 deltas" not in run.stdout or
                    not any(line.startswith("Reg(Ben,DB)*")
                            for line in run.stdout.splitlines())):
                failures.append(f"{flags}: want an '{engine}' table with "
                                f"Reg(Ben,DB)*, got "
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
