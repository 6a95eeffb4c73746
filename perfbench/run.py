#!/usr/bin/env python3
"""Build and run the cloudwf benchmark harness for one workload.

    python3 perfbench/run.py --workload refine|execute|campaign \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
perfbench/ (a standalone CMake project that compiles ../src in Release)
into .bench_build/perfbench; later calls only rebuild what changed.

stdout carries one `name value unit` line per metric, a JSON line of
reader statistics (per-kind p50 and tail, throughput, pinned switches),
and last the result object {"correct", "attempted", "failed", "metrics"}.
The report, layer and span files land in .bench_build/perfbench-out/.
Exits non-zero, without a result line, when the build or the run fails.

    python3 perfbench/run.py --write-expected

re-records perfbench/expected_digests.json from the checked reference pass
at the default seed (only after a deliberate change of program output).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
EXPECTED = HERE / "expected_digests.json"
WORKLOADS = ("refine", "execute", "campaign")
DEFAULT_SEED = 1  # kDefaultSeed in src/workloads.hpp
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no cloudwf sources at {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return BUILD / "perfbench"


def write_expected(binary):
    digests = {}
    for workload in WORKLOADS:
        subprocess.run([str(binary), "--workload", workload, "--seed", str(DEFAULT_SEED),
                        "--seconds", "0.1", "--trace", "0", "--out-dir", str(OUT)],
                       stdout=subprocess.DEVNULL, timeout=RUN_GRACE_S, check=True)
        report = json.loads((OUT / f"{workload}-seed{DEFAULT_SEED}-report.json").read_text())
        digests[workload] = report["reference_digests"]
        if not all(digests[workload].values()):
            fail(f"{workload}: the reference pass failed; nothing written")
    EXPECTED.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.write_expected:
        write_expected(binary)
        return
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--expected", str(EXPECTED), "--out-dir", str(OUT)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + RUN_GRACE_S, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"harness exited with {done.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("harness printed a malformed result")
    for line in lines[:-1]:
        print(line)
    print(f"files: {OUT}/{args.workload}-seed{args.seed}{'-trace' if args.trace == '1' else ''}-*.json")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
