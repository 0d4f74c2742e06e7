"""Lap-completion evaluation and report files.

A fixed batch of cars is placed evenly around the lap at a seeded
offset, seeded with the demonstrators' local speeds, and driven by the
deterministic policy for a step budget; the caller sets both sizes. The
environment's lap record (``RaceEnv.lap_step`` and ``touched``) decides
each car's outcome: a car finishes at its lap step, and its lap time is
that step count times the control period. A lap only counts as a
success when the car touched no wall up to and including that step —
contact invalidates the lap, as on a real circuit, so bouncing down the
barriers at speed cannot score. Lap-time statistics cover valid laps
only. Steering smoothness is the pooled statistic of per-step changes
in the physical road-wheel angle, each car contributing its steps up to
lap completion (all steps if unfinished).

Reports serialize byte-stably: identical inputs give identical files.
"""

import csv
import dataclasses
import hashlib
import json
import os

import numpy as np

from .env import RaceEnv
from .nets import params_checksum, replacing
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

    def curve_point(self, iteration, env_steps):
        """This evaluation as a record of the training curve, taken after
        the given iteration count and env steps."""
        return {"iteration": iteration, "env_steps": env_steps,
                "success_rate": self.success_rate, "lap_time_mean": self.lap_time_mean,
                "steering_change_mean": self.steering_change_mean}


def steering_change(seqs):
    """Pooled (mean, std) of |delta_t - delta_{t-1}| in radians.

    seqs is a list of per-car angle sequences; each needs at least two
    entries. Population statistics over the pooled per-step changes.
    """
    changes = []
    for seq in seqs:
        if len(seq) < 2:
            raise ValueError("steering sequence needs at least 2 steps")
        changes.append(np.abs(np.diff(np.asarray(seq, dtype=np.float64))))
    pooled = np.concatenate(changes)
    return float(pooled.mean()), float(pooled.std())


def track_id(track):
    digest = hashlib.sha256(np.ascontiguousarray(track.points).tobytes()).hexdigest()[:12]
    preset = track.meta.get("preset", "track")
    return f"{preset}-{digest}"


def evaluate(stack, track, vparams, ecfg, demos, n_cars, max_steps, seed=0, tag=0):
    """Run the lap protocol for n_cars cars and at most max_steps steps.

    Returns an EvalReport. stack is anything with ``reset()``,
    ``eval_policy(env)`` and ``params()``: a policy stack, or the scripted
    ``expert.ExpertController``, which has no parameters. The training
    config owns both sizes (``eval_cars``, ``eval_max_steps``). The demo
    set demos supplies the placement speeds. Placement uses the (seed,
    tag) evaluation stream, so a given checkpoint re-evaluates
    identically. Finished and clean flags, lap times and each car's
    steering horizon are read from the environment's lap record, and the
    drive stops once every car's lap step is set. Policy parameters are
    checksummed before and after; evaluation must not change them.
    """
    env = RaceEnv(track, vparams, ecfg)
    obs = env.reset_eval(n_cars, stream(seed, "eval", tag), demos.speed_lookup(track.length))
    stack.reset()
    policy = stack.eval_policy(env)
    named = stack.params()
    before = params_checksum(named) if named else "scripted"

    steer = np.zeros((n_cars, max_steps), dtype=np.float64)
    for t in range(max_steps):
        actions, _ = policy(obs)
        obs, _, _ = env.step(actions)
        steer[:, t] = np.clip(np.asarray(actions, dtype=np.float64)[:, 0], -1.0, 1.0) * vparams.max_steer
        if env.lap_step.all():
            break
    if named and params_checksum(stack.params()) != before:
        raise AssertionError("evaluation mutated policy parameters")

    lap_steps = env.lap_step.tolist()
    finished = env.lap_step > 0
    clean = finished & ~env.touched
    lap_times = [round(k * ecfg.dt, 10) if k else None for k in lap_steps]
    valid_times = [t for t, ok in zip(lap_times, clean.tolist()) if ok]
    seqs = [steer[i, : k or env.step_idx] for i, k in enumerate(lap_steps)]
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
    # Written last and by replace: a run whose summary.json exists is finished.
    with replacing(summary_path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return cars_path, curve_path, summary_path
