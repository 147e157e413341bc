#!/usr/bin/env python3
"""Build the benchmark binary from this checkout and run one workload.

    python3 perfbench/run.py --workload vgg5-image --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The binary and the repository's
libraries are built with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs rebuild incrementally.
Build output goes to build.log there, and the binary's report is passed
through, so the last line of standard output is the binary's JSON
result. Traced runs (--trace 1) also write their spans to
spans-<workload>-<seed>.json in the build directory.

The result must name exactly the metrics BENCHMARK.json lists for the
mode: its end_to_end metrics untraced, its per_layer metrics traced,
each in its listed unit.

Exit status: the binary's (0 when every output check passed); 2 when
the checkout holds no sources to build or the build fails, and 3 when
the result does not match BENCHMARK.json; in those two cases no result
is printed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

WORKLOADS = ("vgg5-image", "serve-mixed", "dse-vgge", "accel-sim")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
# A run must end within 180 s; the binary itself stops well inside that.
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the binary; returns its path."""
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources under {REPO_ROOT}; nothing to build")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    # One build at a time per build directory.
    with open(os.path.join(out, ".lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT
                              ).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")
    return os.path.join(out, "perfbench")


def check_result(line, trace):
    """Why @p line is not a result naming the manifest's metrics for the
    mode, or None if it is."""
    try:
        res = json.loads(line)
    except ValueError:
        return "is not JSON"
    if not isinstance(res, dict) or sorted(res) != [
            "attempted", "correct", "failed", "metrics"]:
        return "does not hold exactly correct, attempted, failed, metrics"
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    want = {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return (f"does not match BENCHMARK.json: missing {missing}, "
                f"unlisted {extra}, other unit {units}")
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir(), f"spans-{args.workload}-{args.seed}.json")]
    try:
        p = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                           text=True)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark binary did not finish within {RUN_TIMEOUT_S} s")
    lines = p.stdout.rstrip("\n").split("\n")
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    sys.stdout.flush()
    problem = check_result(lines[-1], args.trace)
    if problem:
        print(f"perfbench: result line {problem}", file=sys.stderr)
        sys.exit(3)
    print(lines[-1])
    sys.exit(p.returncode)


if __name__ == "__main__":
    main()
