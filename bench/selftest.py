"""Fast self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload at the tiny size, untraced and traced, through
run.py, and checks that each run exits 0 with correct outputs and emits
exactly the metrics BENCHMARK.json declares for its mode. Takes about
half a minute on two cores.
"""

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                   "--seed", "3", "--seconds", "0", "--trace", str(trace), "--scale", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            where = f"{workload} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            declared = {m["name"]: m["unit"] for m in spec[kind]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: checks failed\n{proc.stdout}")
            if emitted != declared:
                extra = sorted(set(emitted) - set(declared))
                missing = sorted(set(declared) - set(emitted))
                problems.append(f"{where}: undeclared {extra}, missing {missing}")
            print(f"ok  {where}: {len(emitted)} metrics, {result['attempted']} checks", flush=True)
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
