"""Lap-completion evaluation and report files.

A fixed batch of cars is placed evenly around the lap at a seeded
offset, seeded with the demonstrators' local speeds, and driven by the
deterministic policy for a step budget; the caller sets both sizes. A car crosses when its
accumulated progress first reaches the lap length; its lap time is that
step count times the control period. A lap only counts as a success
when the car never touched a wall before crossing — contact invalidates
the lap, as on a real circuit, so bouncing down the barriers at speed
cannot score. Lap-time statistics cover valid laps only. Steering
smoothness is the pooled statistic of per-step changes in the physical
road-wheel angle, each car contributing its steps up to lap completion
(all steps if unfinished).

Reports serialize byte-stably: identical inputs give identical files.
"""

import csv
import dataclasses
import hashlib
import json
import os

import numpy as np

from .env import RaceEnv
from .nets import params_checksum
from .seeding import stream


@dataclasses.dataclass
class EvalReport:
    """Per-car outcomes plus the three aggregate metrics."""

    finished: list  # crossed the line within budget
    clean: list  # crossed without any wall contact (the scoring outcome)
    lap_times: list  # seconds per car; None where unfinished
    success_rate: float  # fraction of clean laps
    lap_time_mean: float  # over clean laps; None when there are none
    lap_time_std: float  # over clean laps; None when there are none
    steering_change_mean: float
    steering_change_std: float
    n_cars: int
    seed: int
    tag: int
    policy_id: str
    track_id: str

    def to_dict(self):
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(d):
        return EvalReport(**d)


def steering_change(deltas):
    """Pooled (mean, std) of |delta_t - delta_{t-1}| in radians.

    deltas is one angle sequence or a list of per-car sequences; each
    needs at least two entries. Population statistics over the pooled
    per-step changes.
    """
    seqs = [np.asarray(deltas)] if np.asarray(deltas[0]).ndim == 0 else [np.asarray(d) for d in deltas]
    changes = []
    for seq in seqs:
        if len(seq) < 2:
            raise ValueError("steering sequence needs at least 2 steps")
        changes.append(np.abs(np.diff(seq.astype(np.float64))))
    pooled = np.concatenate(changes)
    return float(pooled.mean()), float(pooled.std())


def track_id(track):
    digest = hashlib.sha256(np.ascontiguousarray(track.points).tobytes()).hexdigest()[:12]
    preset = track.meta.get("preset", "track")
    return f"{preset}-{digest}"


def evaluate(stack, track, vparams, ecfg, demos, n_cars, max_steps, seed=0, tag=0):
    """Run the lap protocol for n_cars cars and at most max_steps steps.

    Returns an EvalReport. stack is anything with ``reset()``,
    ``eval_policy(env)`` and ``params()``: a policy stack, or a scripted
    controller with no parameters. The training config owns both sizes
    (``eval_cars``, ``eval_max_steps``). The demo set demos supplies
    the placement speeds. Placement uses the (seed, tag) evaluation
    stream, so a given checkpoint re-evaluates identically. Policy
    parameters are checksummed before and after; evaluation must not
    change them.
    """
    env = RaceEnv(track, vparams, ecfg)
    obs = env.reset_eval(n_cars, stream(seed, "eval", tag), demos.speed_lookup(track.length))
    stack.reset()
    policy = stack.eval_policy(env)
    named = stack.params()
    before = params_checksum(named) if named else "scripted"

    lap_steps = np.zeros(n_cars, dtype=np.int64)
    finished = np.zeros(n_cars, dtype=bool)
    touched = np.zeros(n_cars, dtype=bool)
    steer = np.zeros((n_cars, max_steps), dtype=np.float64)
    t_used = 0
    for t in range(1, max_steps + 1):
        actions, _ = policy(obs)
        obs, _, _, wall = env.step(actions)
        steer[:, t - 1] = np.clip(np.asarray(actions, dtype=np.float64)[:, 0], -1.0, 1.0) * vparams.max_steer
        touched |= (~finished) & (wall > 0)
        newly = (~finished) & (env.cum_progress >= track.length)
        lap_steps[newly] = t
        finished |= newly
        t_used = t
        if finished.all():
            break
    if named and params_checksum(stack.params()) != before:
        raise AssertionError("evaluation mutated policy parameters")

    clean = finished & ~touched
    lap_times = [round(int(k) * ecfg.dt, 10) if f else None
                 for f, k in zip(finished.tolist(), lap_steps.tolist())]
    valid_times = [t for t, ok in zip(lap_times, clean.tolist()) if ok]
    seqs = [steer[i, : (lap_steps[i] if finished[i] else t_used)] for i in range(n_cars)]
    sc_mean, sc_std = steering_change(seqs)
    return EvalReport(
        finished=finished.tolist(),
        clean=clean.tolist(),
        lap_times=lap_times,
        success_rate=float(np.sum(clean)) / float(n_cars),
        lap_time_mean=float(np.mean(valid_times)) if valid_times else None,
        lap_time_std=float(np.std(valid_times)) if valid_times else None,
        steering_change_mean=sc_mean,
        steering_change_std=sc_std,
        n_cars=n_cars,
        seed=int(seed),
        tag=int(tag),
        policy_id=before[:16],
        track_id=track_id(track),
    )


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(report, training_curve, out_dir, meta=None):
    """Write the per-car CSV, the training-curve CSV, and the JSON summary.

    Returns the three paths. Output bytes are a pure function of the
    inputs (fixed column order, repr-formatted floats, sorted JSON keys).
    """
    os.makedirs(out_dir, exist_ok=True)
    cars_path = os.path.join(out_dir, "eval_cars.csv")
    with open(cars_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["car", "finished", "clean", "lap_time_s"])
        for i, (fin, ok, lap) in enumerate(zip(report.finished, report.clean, report.lap_times)):
            writer.writerow([i, _fmt(bool(fin)), _fmt(bool(ok)), _fmt(lap)])
    curve_path = os.path.join(out_dir, "training_curve.csv")
    curve_cols = ["iteration", "env_steps", "success_rate", "lap_time_mean",
                  "steering_change_mean"]
    with open(curve_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(curve_cols)
        for row in training_curve or []:
            writer.writerow([_fmt(row.get(c)) for c in curve_cols])
    summary_path = os.path.join(out_dir, "summary.json")
    summary = {
        "report": report.to_dict(),
        "training_curve": training_curve or [],
        **(meta or {}),
    }
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return cars_path, curve_path, summary_path


def load_summary(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
