#!/usr/bin/env python3
"""Show that every workload's output check fires.

    python3 perfbench/selftest.py

Runs each workload briefly with the binary's --corrupt flag, which flips
one bit of one output (for dse-vgge, of one sweep's digest) before it is
checked. Passes when every run exits non-zero and reports exactly one
failed operation and "correct": false. Builds like run.py does.
"""

import json
import subprocess
import sys

import run

SECONDS = "6"  # enough for the third operation, which is the corrupted one


def main():
    binary = run.build()
    ok = True
    for wl in run.WORKLOADS:
        p = subprocess.run([binary, "--workload", wl, "--seed", "1",
                            "--seconds", SECONDS, "--trace", "0",
                            "--corrupt"],
                           capture_output=True, text=True,
                           timeout=run.RUN_TIMEOUT_S)
        res = json.loads(p.stdout.strip().splitlines()[-1])
        fired = (p.returncode != 0 and res["failed"] == 1
                 and res["correct"] is False)
        ok &= fired
        print(f"{wl:12s} exit {p.returncode}, {res['attempted']} attempted, "
              f"{res['failed']} failed: {'fired' if fired else 'DID NOT FIRE'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
