#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_sparse --seed 1 \
        --seconds 20 --trace 0

Builds the simulator and the benchmark program from source into
.bench_build/ (CMake, RelWithDebInfo), runs its metric-maths
self-test, then runs one workload and passes its output through. The
last line of stdout is the JSON result. With --trace 1 the traced spans
are written to .bench_build/spans/<workload>-<seed>.json.

The result line must carry exactly the metrics BENCHMARK.json declares
for the mode (end_to_end with --trace 0, per_layer with --trace 1), with
the declared units; a result that does not is withheld.

Exit status is non-zero when the build, the self-test, any of the
benchmark's correctness checks or that validation fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, check=True)
        except (OSError, subprocess.CalledProcessError) as err:
            print(f"build failed: {err}", file=sys.stderr)
            return False
    return True


def check_result(line, declared):
    """Return an error message, or None when @line is a well-formed
    result carrying exactly the @declared {name: unit} metrics."""
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from the contract"
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        wrong = sorted(k for k in got if k in declared
                       and got[k] != declared[k])
        return (f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"undeclared {extra}, unit mismatch {wrong}")
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              stdout=sys.stderr)
    if selftest.returncode != 0:
        print("metric-maths self-test failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD, "apc_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    error = check_result(lines[-1], declared)
    if error:
        print(f"result withheld: {error}", file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
