"""Batched racing environment: dynamics, observations, logging.

Observation layout, with N curvature samples and n lookahead points
(defaults N=10, n=5 give dimension 50). ``obs_dim`` computes the width
from the episode; every network that reads observations, the BeT
included, takes its input width from it, so the counts are set only here:

    [0:3)      body velocity (v_x, v_y, 0)
    [3:6)      body acceleration, backward difference over dt (third 0)
    [6]        world yaw, wrapped to [-pi, pi]
    [7]        yaw rate, backward difference over dt
    [8:8+N)    signed curvature preview over a speed-scaled horizon
    [8+N:10+N) cos and sin of heading error against the local track
    [10+N:...) lookahead points in the body frame: n left-wall points,
               then n right-wall points, then n centerline points, each
               as (x, y)

The backward differences use a zeroed previous velocity at episode start
(so the first acceleration reads v/dt) and a copied previous yaw (so the
first yaw rate reads 0).

State and actions are quantized to the float32 grid at every step
boundary; all trajectory logs store float32, which makes open-loop replay
of a logged episode bit-exact. Internal dynamics math runs in float64.

Lap record. The environment keeps the one lap rule that evaluation and
demonstration recording read. A car's lap ends at the first step,
counted from the last reset, at which its accumulated progress reaches
the track length: ``lap_step`` holds that step, and 0 while the lap is
open. ``touched`` says whether the car was in wall contact at any step up
to and including that one; after it, contact no longer changes the
record. ``reset`` clears both.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import vehicle as veh
from .nets import load_params, save_params
from .track import left_normal, wrap_angle

__all__ = [
    "EpisodeConfig",
    "Normalizer",
    "RaceEnv",
    "RolloutError",
    "obs_dim",
    "rollout",
    "save_trajectory_log",
    "load_trajectory_log",
]

TRAJ_FORMAT = "racelab-traj-v1"


class RolloutError(RuntimeError):
    """Raised when a policy emits unusable actions: ``RaceEnv.step`` names
    the step and the car."""


@dataclasses.dataclass(frozen=True)
class EpisodeConfig:
    """Stepping and feature extraction settings.

    dt is the control period in seconds. curvature_count and
    lookahead_count are N and n of the observation layout;
    preview_horizon is the preview span in seconds of travel at the
    current speed. Episode lengths and car counts belong to the training
    config.
    """

    dt: float = 0.1
    curvature_count: int = 10
    lookahead_count: int = 5
    preview_horizon: float = 5.0


def obs_dim(cfg):
    """Observation dimensionality implied by the feature counts."""
    return 10 + cfg.curvature_count + 6 * cfg.lookahead_count


def _quant(x):
    """Snap values to the float32 grid, keeping float64 storage."""
    return np.asarray(x, dtype=np.float64).astype(np.float32).astype(np.float64)


OBS_CLIP = 10.0


@dataclasses.dataclass
class Normalizer:
    """Per-dimension affine whitening fitted on demonstration data.

    ``transform`` is the only whitening step: every network that reads
    observations reads its output, which saturates at +/- OBS_CLIP.
    Off-distribution states (stalls, wall scrapes) can push single
    features hundreds of standard deviations out; bounded inputs keep
    every network in a sane regime there.
    """

    mean: np.ndarray
    std: np.ndarray

    @staticmethod
    def fit(data):
        data = np.asarray(data, dtype=np.float64)
        mean = data.mean(axis=0)
        std = np.maximum(data.std(axis=0), 1e-6)
        return Normalizer(mean.astype(np.float32), std.astype(np.float32))

    def transform(self, x):
        """Whitened x as float32, saturated at +/- OBS_CLIP."""
        z = ((np.asarray(x, dtype=np.float32) - self.mean) / self.std).astype(np.float32)
        return np.clip(z, -OBS_CLIP, OBS_CLIP)

    def to_dict(self):
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @staticmethod
    def from_dict(d):
        return Normalizer(
            np.asarray(d["mean"], dtype=np.float32), np.asarray(d["std"], dtype=np.float32)
        )


class RaceEnv:
    """Synchronous batch of cars on one track.

    reset() or reset_eval() must be called before step(). All public
    outputs (observations, progress, wall flags) are float32-exact; the
    held state is float32-quantized after every transition. lap_step and
    touched are the per-car lap record of the module docstring.
    """

    def __init__(self, track, params, cfg):
        self.track = track
        self.params = params
        self.cfg = cfg
        self.state = None
        self.s = None
        self.track_heading = None
        self.prev_vel = None
        self.prev_yaw = None
        self.cum_progress = None
        self.lap_step = None
        self.touched = None
        self.step_idx = 0
        # The preview fractions of the speed-scaled horizon: the curvature
        # samples, then the lookahead points.
        n_curv, n_look = cfg.curvature_count, cfg.lookahead_count
        self._preview = np.concatenate((np.arange(1, n_curv + 1) / n_curv,
                                        np.arange(1, n_look + 1) / n_look))

    def reset(self, positions, yaws, speeds, v_y=None, yaw_rate=None):
        """Place cars explicitly, in steady motion.

        v_y and yaw_rate describe the motion the cars are already in
        (defaults: straight-line cruise). The first observation reports
        zero acceleration and the given yaw rate, exactly as if the cars
        had been driving that way.
        """
        state = veh.initial_state(_quant(positions), _quant(yaws), _quant(speeds))
        if v_y is not None:
            state.v_y = _quant(np.asarray(v_y, dtype=np.float64))
        s, _, h, _ = self.track.project_many(state.position)
        self.state = state
        self.s = s
        self.track_heading = h
        self.prev_vel = np.empty((len(s), 2))
        self.prev_vel[:, 0] = state.v_x
        self.prev_vel[:, 1] = state.v_y
        self.prev_yaw = state.yaw.copy()
        if yaw_rate is not None:
            self.prev_yaw = self.prev_yaw - np.asarray(yaw_rate, dtype=np.float64) * self.cfg.dt
        self.cum_progress = np.zeros(len(s), dtype=np.float64)
        self.lap_step = np.zeros(len(s), dtype=np.int64)
        self.touched = np.zeros(len(s), dtype=bool)
        self.step_idx = 0
        return self._observe()

    def reset_eval(self, n_cars, offset_rng, speed_lookup):
        """Evenly spaced flying start along the lap.

        Cars are placed on the centerline at arclengths offset + k * L / n
        for a seeded uniform offset, at the speed the demonstrations used
        near that arclength, in the steady cornering state the local
        curvature implies (matching attitude, lateral speed, yaw rate).
        """
        offset = float(offset_rng.uniform(0.0, self.track.length))
        s0 = np.mod(offset + np.arange(n_cars) * self.track.length / n_cars, self.track.length)
        pos, heading, curv = self.track.frames(s0)
        speeds = speed_lookup(s0)
        delta = np.arctan(self.params.wheelbase * curv)
        beta, yaw_rate = veh.slip_and_yaw_rate(delta, speeds, self.params)
        return self.reset(pos, heading - beta, speeds,
                          v_y=speeds * np.tan(beta), yaw_rate=yaw_rate)

    def step(self, actions):
        """Advance one control period.

        actions (B, 2) are taken as float32. Returns (obs, progress,
        wall_flags), each a float32-exact array over cars. progress is the
        wrapped arclength advance in meters; wall_flags is 1 for cars in
        wall contact, 0 otherwise. Raises RolloutError naming the step
        (counted from the last reset) and the first car if an action is
        not finite.
        """
        actions = np.asarray(actions, dtype=np.float32)
        if not np.isfinite(actions).all():
            bad = int(np.argmin(np.isfinite(actions).all(axis=1)))
            raise RolloutError(f"non-finite action from policy at step {self.step_idx} for car {bad}")
        # veh.step widens the actions to float64 and clips them there,
        # which gives the commands a clip in float32 would: the bounds and
        # every float32 value are exact in float64.
        prev = self.state
        state = veh.step(prev, actions, self.params, self.cfg.dt)
        state.position = _quant(state.position)
        state.yaw = _quant(state.yaw)
        state.v_x = _quant(state.v_x)
        state.v_y = _quant(state.v_y)
        # Last step's arclength narrows the nearest-vertex search.
        s, e, h, center = self.track.project_many(state.position, s_hint=self.s)
        state = veh.enforce_track_limits(state, self.track, self.params, e, h, center)
        if state.wall_contact.any():
            state.position = _quant(state.position)
            state.v_x = _quant(state.v_x)
        progress = self.track.progress_delta(s, self.s)
        # veh.step returns new arrays, so the previous state's are not
        # written again and need no copy.
        self.prev_vel[:, 0] = prev.v_x
        self.prev_vel[:, 1] = prev.v_y
        self.prev_yaw = prev.yaw
        self.state = state
        self.s = s
        self.track_heading = h
        self.cum_progress += progress
        self.step_idx += 1
        lap_open = self.lap_step == 0
        self.touched |= lap_open & (state.wall_contact > 0)
        self.lap_step[lap_open & (self.cum_progress >= self.track.length)] = self.step_idx
        obs = self._observe()
        return obs, progress.astype(np.float32), state.wall_contact.astype(np.float32)

    def _observe(self):
        cfg = self.cfg
        state = self.state
        b = len(state.yaw)
        n_curv = cfg.curvature_count
        n_ahead = len(self._preview)
        out = np.zeros((b, obs_dim(cfg)), dtype=np.float64)
        out[:, 0] = state.v_x
        out[:, 1] = state.v_y
        out[:, 3:5] = (out[:, 0:2] - self.prev_vel) / cfg.dt
        out[:, 6] = state.yaw
        out[:, 7] = wrap_angle(state.yaw - self.prev_yaw) / cfg.dt
        # Speed-scaled preview arclengths, one row per car: the curvature
        # samples, then the lookahead points, in one frames pass.
        span = np.maximum(state.v_x, 0.0) * cfg.preview_horizon
        s_ahead = self.s[:, None] + self._preview[None, :] * span[:, None]
        centers, hs, curv = self.track.frames(s_ahead.reshape(-1))
        out[:, 8 : 8 + n_curv] = curv.reshape(b, n_ahead)[:, :n_curv]
        psi = wrap_angle(state.yaw - self.track_heading)
        out[:, 8 + n_curv] = np.cos(psi)
        out[:, 9 + n_curv] = np.sin(psi)
        centers = centers.reshape(b, n_ahead, 2)[:, n_curv:]
        wall = self.track.half_width * left_normal(hs.reshape(b, n_ahead)[:, n_curv:])
        # Left-wall, right-wall and centerline points as one (B, 3n, 2)
        # block, whose body-frame (x, y) pairs fill the columns in order:
        # the reshape of a column block of out is a view of it.
        world = np.concatenate((centers + wall, centers - wall, centers), axis=1)
        veh.to_body(world - state.position[:, None, :], state.yaw[:, None],
                    out[:, 10 + n_curv :].reshape(b, -1, 2))
        return out.astype(np.float32)


def rollout(env, policy, steps):
    """Drive the batch for a fixed number of steps.

    policy(obs) maps the latest float32 observations (B, D) to
    (actions (B, 2) float32, extras dict of per-car arrays, the same keys
    at every step); extras are logged over time. ``RaceEnv.step`` raises
    RolloutError if the policy emits non-finite actions.

    The returned dict holds obs (B, T+1, D), actions (B, T, 2), progress
    and wall (each (B, T)) and the extras, each (B, T, ...). Every array is
    allocated once, when its first value is known, and each step writes
    its values in place.
    """
    obs = env._observe()
    b = len(obs)
    log = {"obs": np.empty((b, steps + 1, obs.shape[1]), dtype=np.float32),
           "actions": np.empty((b, steps, 2), dtype=np.float32),
           "progress": np.empty((b, steps), dtype=np.float32),
           "wall": np.empty((b, steps), dtype=np.float32)}
    log["obs"][:, 0] = obs
    for t in range(steps):
        actions, extras = policy(obs)
        actions = np.asarray(actions, dtype=np.float32)
        obs, progress, wall = env.step(actions)
        log["obs"][:, t + 1] = obs
        log["actions"][:, t] = actions
        log["progress"][:, t] = progress
        log["wall"][:, t] = wall
        for key, val in extras.items():
            val = np.asarray(val)
            if t == 0:
                log[key] = np.empty((b, steps) + val.shape[1:], dtype=val.dtype)
            log[key][:, t] = val
    return log


def save_trajectory_log(path, log, meta):
    """Persist a rollout log; float32 arrays plus a JSON metadata header."""
    arrays = {k: np.asarray(v, dtype=np.float32) for k, v in log.items()}
    save_params(path, arrays, {"format": TRAJ_FORMAT, **meta})


def load_trajectory_log(path):
    meta, arrays = load_params(path)
    if meta.get("format") != TRAJ_FORMAT:
        raise ValueError(f"not a trajectory log: {path}")
    return meta, dict(arrays)
