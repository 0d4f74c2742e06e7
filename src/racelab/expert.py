"""Scripted demonstrator: pure-pursuit steering with preview braking.

The expert steers toward a speed-scaled goal point on the centerline,
low-passes the steering command, and plans target speed from the
curvature preview with a braking-distance feasibility sweep. A small
per-lap multiplicative jitter on its gains makes the demonstration
corpus mildly diverse without changing the driving style.

Demonstrations are recorded through the same environment as training and
evaluation, so their logs replay bit-exactly through the simulator.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .env import Normalizer, RaceEnv, obs_dim
from .nets import CheckpointError, load_params, save_params
from .seeding import stream
from .vehicle import to_body

__all__ = [
    "ExpertParams",
    "ExpertController",
    "DemoSet",
    "SpeedLookup",
    "generate_demos",
]

DEMO_FORMAT = "racelab-demos-v1"

# The steps within which every demonstration lap must finish.
DEMO_MAX_STEPS = 4000

# The state a demonstration lap records at each of its T+1 steps.
LAP_STATE = ("position", "yaw", "v_x", "v_y", "s")


@dataclasses.dataclass(frozen=True)
class ExpertParams:
    """Driving-style knobs for the scripted demonstrator."""

    pursuit_time: float = 1.0
    min_lookahead: float = 7.0
    corner_accel: float = 10.0
    speed_scale: float = 0.95
    v_max: float = 34.0
    brake_margin: float = 0.85
    throttle_gain: float = 0.55
    steer_smooth: float = 0.35
    jitter: float = 0.08
    action_noise: float = 0.02
    preview_points: int = 24
    preview_horizon: float = 6.0


class ExpertController:
    """Stateful batched controller (keeps the low-passed steering).

    It also drives the evaluator's protocol (``reset()``,
    ``eval_policy(env)`` and ``params()``), so the scripted expert is
    scored like any policy stack. The controller is privileged: it reads
    the true vehicle state from the environment and ignores the
    observation vector.
    """

    def __init__(self, track, vparams, xparams, speed_mult, pursuit_mult):
        self.track = track
        self.vparams = vparams
        self.xp = xparams
        self.speed_mult = np.asarray(speed_mult, dtype=np.float64)
        self.pursuit_mult = np.asarray(pursuit_mult, dtype=np.float64)
        self.prev_steer = np.zeros_like(self.speed_mult)

    def reset(self):
        self.prev_steer = np.zeros_like(self.speed_mult)

    def params(self):
        """The scripted controller has no parameters."""
        return {}

    def eval_policy(self, env):
        def policy(obs):
            return self.act(env.state, env.s).astype(np.float32), {}

        return policy

    def target_speed(self, s, v_x):
        """Braking-feasible speed from the curvature preview."""
        xp = self.xp
        b_eff = xp.brake_margin * self.vparams.b_max
        count = xp.preview_points
        dist = (np.arange(count + 1) / count)[None, :] * (
            np.maximum(v_x, 5.0) * xp.preview_horizon
        )[:, None]
        s_samples = np.asarray(s)[:, None] + dist
        _, _, curv = self.track.frames(s_samples.reshape(-1))
        curv = np.abs(curv.reshape(dist.shape))
        v_allow = np.minimum(xp.v_max, np.sqrt(xp.corner_accel / np.maximum(curv, 1e-6)))
        v_allow = v_allow * (xp.speed_scale * self.speed_mult)[:, None]
        feasible = np.sqrt(v_allow**2 + 2.0 * b_eff * dist)
        return feasible.min(axis=1)

    def act(self, state, s):
        """One batched control step; returns float64 commands in [-1, 1]."""
        xp = self.xp
        v = state.v_x
        look = np.maximum(xp.min_lookahead, v * xp.pursuit_time * self.pursuit_mult)
        goal, _, _ = self.track.frames(np.asarray(s) + look)
        gx, gy = to_body(goal - state.position, state.yaw).T
        d_sq = np.maximum(gx * gx + gy * gy, 1e-6)
        kappa = 2.0 * gy / d_sq
        steer_cmd = np.arctan(self.vparams.wheelbase * kappa) / self.vparams.max_steer
        steer_cmd = np.clip(steer_cmd, -1.0, 1.0)
        steer = (1.0 - xp.steer_smooth) * self.prev_steer + xp.steer_smooth * steer_cmd
        self.prev_steer = steer
        throttle = np.clip(xp.throttle_gain * (self.target_speed(s, v) - v), -1.0, 1.0)
        return np.stack([steer, throttle], axis=1)


class SpeedLookup:
    """Nearest-arclength demonstration speed, wrap-aware."""

    def __init__(self, s, v, length):
        order = np.argsort(s)
        self.s = np.asarray(s, dtype=np.float64)[order]
        self.v = np.asarray(v, dtype=np.float64)[order]
        self.length = float(length)

    def __call__(self, query):
        query = np.mod(np.asarray(query, dtype=np.float64), self.length)
        idx = np.searchsorted(self.s, query)
        lo = (idx - 1) % len(self.s)
        hi = idx % len(self.s)
        d_lo = np.abs(query - self.s[lo])
        d_lo = np.minimum(d_lo, self.length - d_lo)
        d_hi = np.abs(query - self.s[hi])
        d_hi = np.minimum(d_hi, self.length - d_hi)
        return np.where(d_lo <= d_hi, self.v[lo], self.v[hi])


def _whitener(laps):
    """The observation whitener of a set of laps, fitted over every recorded row."""
    return Normalizer.fit(np.concatenate([lap["obs"] for lap in laps], axis=0))


class DemoSet:
    """Recorded demonstration laps plus the fitted observation whitener.

    laps is a list of dicts with float32 arrays: obs (T+1, D),
    actions (T, 2), and the LAP_STATE fields position (T+1, 2) and yaw,
    v_x, v_y, s (T+1,).
    """

    def __init__(self, laps, normalizer, meta):
        self.laps = laps
        self.normalizer = normalizer
        self.meta = meta

    @property
    def obs_dim(self):
        return self.laps[0]["obs"].shape[1]

    def transitions(self):
        """All (obs, action) pairs stacked: (M, D) and (M, 2), raw obs."""
        obs = np.concatenate([lap["obs"][:-1] for lap in self.laps], axis=0)
        act = np.concatenate([lap["actions"] for lap in self.laps], axis=0)
        return obs, act

    def window_index(self, k):
        """Every (lap, start) pair with k consecutive actions available."""
        pairs = []
        for li, lap in enumerate(self.laps):
            t = lap["actions"].shape[0]
            for start in range(t - k + 1):
                pairs.append((li, start))
        return pairs

    def sample_windows(self, pairs, rng, batch, k):
        """Uniformly sampled sub-trajectories: obs (B, k, D), act (B, k, 2)."""
        picks = rng.integers(0, len(pairs), size=batch)
        obs = np.empty((batch, k, self.obs_dim), dtype=np.float32)
        act = np.empty((batch, k, 2), dtype=np.float32)
        for row, p in enumerate(picks):
            li, start = pairs[p]
            lap = self.laps[li]
            obs[row] = lap["obs"][start : start + k]
            act[row] = lap["actions"][start : start + k]
        return obs, act

    def speed_lookup(self, track_length):
        s = np.concatenate([lap["s"][:-1] for lap in self.laps])
        v = np.concatenate([lap["v_x"][:-1] for lap in self.laps])
        return SpeedLookup(s, v, track_length)

    def lap_times(self, dt):
        return [lap["actions"].shape[0] * dt for lap in self.laps]

    @staticmethod
    def merge(demosets):
        """Pool laps from several sets; refit the whitener over the pool."""
        laps = [lap for ds in demosets for lap in ds.laps]
        return DemoSet(laps, _whitener(laps), {"merged": [ds.meta for ds in demosets]})

    def save(self, path):
        arrays = {}
        for i, lap in enumerate(self.laps):
            for key, val in lap.items():
                arrays[f"lap{i:03d}.{key}"] = np.asarray(val, dtype=np.float32)
        meta = {
            "format": DEMO_FORMAT,
            "n_laps": len(self.laps),
            "normalizer": self.normalizer.to_dict(),
            **self.meta,
        }
        save_params(path, arrays, meta)

    @staticmethod
    def load(path):
        meta, arrays = load_params(path)
        if meta.get("format") != DEMO_FORMAT:
            raise CheckpointError(f"not a demonstration file: {path}")
        laps = []
        for i in range(meta["n_laps"]):
            prefix = f"lap{i:03d}."
            lap = {
                key[len(prefix) :]: val for key, val in arrays.items() if key.startswith(prefix)
            }
            laps.append(lap)
        norm = Normalizer.from_dict(meta["normalizer"])
        extra = {k: v for k, v in meta.items() if k not in ("format", "n_laps", "normalizer")}
        return DemoSet(laps, norm, extra)


def generate_demos(track, vparams, ecfg, xparams, n_laps, seed):
    """Drive n_laps demonstration laps, one jittered controller per lap.

    All laps run as one batch; each car starts at a seeded arclength at
    its locally appropriate speed and records up to its lap step in the
    environment's lap record (``RaceEnv.lap_step``): the step at which it
    has covered one full lap. A lap with no lap step after DEMO_MAX_STEPS
    is a RuntimeError. Returns the DemoSet with a normalizer fitted on all
    recorded observations.
    """
    rngs = [stream(seed, "demo", lap) for lap in range(n_laps)]
    s0 = np.asarray([rng.uniform(0.0, track.length) for rng in rngs])
    speed_mult = np.asarray([1.0 + xparams.jitter * rng.standard_normal() for rng in rngs])
    pursuit_mult = np.asarray([1.0 + xparams.jitter * rng.standard_normal() for rng in rngs])
    controller = ExpertController(track, vparams, xparams, speed_mult, pursuit_mult)
    env = RaceEnv(track, vparams, ecfg)
    pos, heading, _ = track.frames(s0)
    v_start = controller.target_speed(s0, np.full(n_laps, 10.0))
    # Start well below cruise so every lap records an acceleration
    # segment; clones then know how to recover from low speed. One row
    # per recorded step: the observation, then the LAP_STATE fields.
    rows = [(env.reset(pos, heading, np.minimum(v_start, xparams.v_max * 0.5)), *_lap_state(env))]
    actions = []
    # Small command noise makes the recordings cover a tube around the
    # racing line together with the controller's corrective responses.
    noise_rng = stream(seed, "demo", n_laps)
    for _ in range(DEMO_MAX_STEPS):
        act = controller.act(env.state, env.s)
        if xparams.action_noise > 0.0:
            act = act + xparams.action_noise * noise_rng.standard_normal(act.shape)
        actions.append(np.clip(act, -1.0, 1.0).astype(np.float32))
        rows.append((env.step(actions[-1])[0], *_lap_state(env)))
        if env.lap_step.all():
            break
    if not env.lap_step.all():
        bad = int(np.argmin(env.lap_step))
        raise RuntimeError(f"demonstration lap {bad} did not finish within {DEMO_MAX_STEPS} steps")
    stacked = {key: np.stack(col, axis=1) for key, col in zip(("obs", *LAP_STATE), zip(*rows))}
    stacked["actions"] = np.stack(actions, axis=1)
    # A lap of T actions keeps T+1 rows of everything else. Copies, so the
    # laps do not hold the whole batch alive.
    laps = [{key: val[i, : end + (key != "actions")].copy() for key, val in stacked.items()}
            for i, end in enumerate(env.lap_step.tolist())]
    meta = {
        "seed": int(seed),
        "track": track.meta,
        "expert": dataclasses.asdict(xparams),
        "vehicle": dataclasses.asdict(vparams),
        "episode": dataclasses.asdict(ecfg),
        "obs_dim": int(obs_dim(ecfg)),
    }
    return DemoSet(laps, _whitener(laps), meta)


def _lap_state(env):
    """The env's LAP_STATE fields as float32 copies, one row per car."""
    st = env.state
    return [np.array(x, dtype=np.float32) for x in (st.position, st.yaw, st.v_x, st.v_y, env.s)]

