#!/usr/bin/env python3
"""The golden transcript: replays tools/sessions/golden_session.txt through
shapcq_server --script with --max-resident 1 --stats-bytes=off and compares
stdout byte for byte with tools/sessions/golden_session.golden. The session
holds two deliberate protocol errors, so the server must exit 1. Prints a
unified diff on a mismatch.

usage: golden_session.py SERVER
"""

import difflib
import os
import subprocess
import sys

SESSIONS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "tools", "sessions")


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    script = os.path.join(SESSIONS, "golden_session.txt")
    golden = os.path.join(SESSIONS, "golden_session.golden")
    run = subprocess.run(
        [sys.argv[1], "--script", script, "--max-resident", "1",
         "--stats-bytes=off"],
        capture_output=True, timeout=120)
    with open(golden, "rb") as handle:
        want = handle.read()
    failures = 0
    if run.returncode != 1:
        print(f"FAIL exit code {run.returncode}, want 1:\n"
              f"{run.stderr.decode(errors='replace')}", file=sys.stderr)
        failures += 1
    if run.stdout != want:
        diff = difflib.unified_diff(
            want.decode(errors="replace").splitlines(keepends=True),
            run.stdout.decode(errors="replace").splitlines(keepends=True),
            fromfile="golden_session.golden", tofile="transcript")
        sys.stderr.writelines(diff)
        print("FAIL transcript differs from golden_session.golden",
              file=sys.stderr)
        failures += 1
    print(f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
