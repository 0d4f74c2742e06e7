"""racelab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload as repeats, each in a fresh process (repeat.py), until
at least MIN_ROUNDS rounds have run and the timed parts of all repeats
add up to S seconds. With --trace 0 a round is one untraced repeat and the metrics
are the end-to-end ones of BENCHMARK.json, as medians over repeats. With
--trace 1 a round is an untraced and a traced repeat, and the metrics are
the per-layer ones; the tracing overhead is the difference between the
two kinds' median wall_s.

Every repeat's outputs are checked: its exit code, the workload's own
checks, and a fingerprint of its outputs that must be identical across
all repeats of one invocation. Human-readable lines come first; the last
line of standard output is the JSON result. Repeat directories and a
result.json with machine facts and per-repeat figures go under
.benchrun/ in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
MIN_ROUNDS = {0: 3, 1: 2}
# Start no round that could end after this many seconds: the whole run
# must finish within 180 s.
BUDGET_S = 140.0
KEEP = ("result.json", "spans.json", "log.txt")


def run_repeat(args, index, traced, deadline):
    directory = os.path.join(args.out, f"repeat{index:02d}-{'traced' if traced else 'plain'}")
    os.makedirs(directory)
    cmd = [sys.executable, os.path.join(BENCH, "repeat.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)), "--scale", args.scale,
           "--dir", directory]
    with open(os.path.join(directory, "log.txt"), "w", encoding="utf-8") as log:
        try:
            code = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - time.monotonic())).returncode
        except subprocess.TimeoutExpired:
            code = None
    result = None
    if code == 0:
        with open(os.path.join(directory, "result.json"), "r", encoding="utf-8") as fh:
            result = json.load(fh)
    for entry in os.listdir(directory):
        if entry not in KEEP:
            path = os.path.join(directory, entry)
            shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
    return code, result


def run_rounds(args, deadline):
    """Repeats as (traced, exit code, result or None), in the order run."""
    plan = (False, True) if args.trace else (False,)
    repeats = []
    rounds, measured, longest = 0, 0.0, 0.0
    while rounds < MIN_ROUNDS[args.trace] or measured < args.seconds:
        if rounds and time.monotonic() + longest > deadline:
            break
        t0 = time.monotonic()
        for traced in plan:
            code, result = run_repeat(args, len(repeats), traced, deadline + 30.0)
            repeats.append((traced, code, result))
            if result is not None:
                measured += result["wall_s"]
        rounds += 1
        longest = max(longest, time.monotonic() - t0)
    return repeats


def tally(repeats):
    """Checks attempted, the failed ones, and the first repeat's fingerprint,
    which every repeat must match."""
    attempted, failures = 0, []
    fingerprint = next((r["fingerprint"] for _, _, r in repeats if r is not None), None)
    for i, (_, code, result) in enumerate(repeats):
        checks = {"exit_zero": code == 0}
        if result is not None:
            checks.update(result["checks"])
            checks["same_fingerprint"] = result["fingerprint"] == fingerprint
        attempted += len(checks)
        failures += [f"repeat {i}: {name}" for name, ok in checks.items() if not ok]
    return attempted, failures, fingerprint


def layer_metrics(traced, plain):
    """Per-layer metrics from the traced repeats' span summaries."""
    med = statistics.median
    out = {}
    for name in traced[0]["layers"]:
        per_repeat = [r["layers"][name] for r in traced]
        out[f"{name}_s"] = med(a["total_s"] for a in per_repeat)
        out[f"{name}_self_s"] = med(a["self_s"] for a in per_repeat)
        out[f"{name}_calls"] = med(a["calls"] for a in per_repeat)
        out[f"{name}_ms_p50"] = med(a["ms_p50"] for a in per_repeat)
    steps = sum(r["layers"]["bet.train_step"]["calls"] for r in traced)
    tensors = sum(r["layers"]["bet.train_step"]["tensors"] for r in traced)
    out["autodiff.tensors_per_train_step"] = tensors / steps if steps else 0.0
    out["nets.checkpoint_bytes"] = med(r["checkpoint_bytes"] for r in traced)
    out["trace.unspanned_share"] = 100.0 * med(r["unspanned_share"] for r in traced)
    out["trace.overhead_s"] = (med(r["wall_s"] for r in traced)
                               - med(r["wall_s"] for r in plain))
    return out


def e2e_metrics(plain):
    med = statistics.median
    return {
        "setup_s": med(r["setup_s"] for r in plain),
        "wall_s": med(r["wall_s"] for r in plain),
        "work_per_s": med(r["work"] / r["wall_s"] for r in plain),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
    }


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny exercises the harness only (selftest.py)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "racelab", "__init__.py")):
        print(f"error: no racelab package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}

    args.out = os.path.join(ROOT, ".benchrun",
                            f"{args.workload}-s{args.seed}-t{args.trace}-{args.scale}")
    shutil.rmtree(args.out, ignore_errors=True)
    os.makedirs(args.out)

    started = time.monotonic()
    repeats = run_rounds(args, started + BUDGET_S)
    attempted, failures, fingerprint = tally(repeats)
    failed = len(failures)

    plain = [r for t, _, r in repeats if r is not None and not t]
    traced = [r for t, _, r in repeats if r is not None and t]
    if not plain or (args.trace and not traced):
        print(f"error: no repeat of {args.workload} completed; see {args.out}", file=sys.stderr)
        return 1
    computed = layer_metrics(traced, plain) if args.trace else e2e_metrics(plain)
    metrics = {name: {"value": value, "unit": declared[name]["unit"]}
               for name, value in computed.items()}
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"error: declared metrics not computed: {missing}", file=sys.stderr)
        return 1

    first = plain[0]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": first["machine"],
        "work_unit": first["work_unit"],
        "failed_share": failed / attempted,
        "failures": failures,
        "fingerprint": fingerprint,
        "extra": first["extra"],
        "repeats": [dict(r, traced=t, exit_code=c) if r else {"traced": t, "exit_code": c}
                    for t, c, r in repeats],
        "metrics": metrics,
        "elapsed_s": time.monotonic() - started,
    }
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(plain)} plain and {len(traced)} traced repeats")
    print("machine " + json.dumps(first["machine"], sort_keys=True))
    print(f"work unit: {first['work_unit']}; extra "
          + json.dumps(first["extra"], sort_keys=True))
    print(f"checks: {attempted - failed}/{attempted} passed, failed_share {failed / attempted:.4f}"
          + "".join(f"\n  FAILED {f}" for f in failures))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:6s} "
              f"({declared[name]['better']} is better)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
