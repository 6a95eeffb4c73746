#!/usr/bin/env python3
"""Process-level self-tests of the benchmark harness.

    test_process.py path/to/perfbench path/to/expected_digests.json

- Two processes given the same seed produce the same output digests.
- The last stdout line is the result object, with every end-to-end metric
  of BENCHMARK.json untraced and every per-layer metric traced, each with
  the unit BENCHMARK.json declares.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def run(binary, expected, out_dir, workload, seed, trace):
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
         "--trace", str(trace), "--expected", expected, "--out-dir", out_dir],
        stdout=subprocess.PIPE, text=True, check=True, timeout=300)
    lines = done.stdout.splitlines()
    report = json.loads(lines[-2])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, result
    return report, result


def check_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}, result["metrics"].keys()
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m


def main():
    binary, expected = sys.argv[1], sys.argv[2]
    spec = json.loads(BENCHMARK.read_text())
    with tempfile.TemporaryDirectory(dir=".") as out:
        first, result = run(binary, expected, out, "campaign", 5, 0)
        second, _ = run(binary, expected, out, "campaign", 5, 0)
        assert first["reference_digests"] == second["reference_digests"]
        check_metrics(result, spec["end_to_end"])
        a, _ = run(binary, expected, out, "refine", 5, 0)
        b, traced = run(binary, expected, out, "refine", 5, 1)
        assert a["reference_digests"] == b["reference_digests"]
        check_metrics(traced, spec["per_layer"])
        assert (Path(out) / "refine-seed5-trace-spans.json").exists()
        assert (Path(out) / "refine-seed5-trace-layers.json").exists()
    print("perfbench process tests: ok")


if __name__ == "__main__":
    main()
