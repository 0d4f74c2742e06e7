"""Tests for the batched environment: observations, stepping, rollouts."""

import numpy as np
import pytest

from conftest import circle_track
from racelab.env import (
    EpisodeConfig,
    Normalizer,
    OBS_CLIP,
    RaceEnv,
    RolloutError,
    load_trajectory_log,
    obs_dim,
    rollout,
    save_trajectory_log,
)
from racelab.expert import ExpertController, ExpertParams
from racelab.track import Track, gen_track
from racelab.vehicle import VehicleParams

RNG = np.random.default_rng


@pytest.fixture(scope="module")
def circle_env():
    track = circle_track(100.0)
    return RaceEnv(track, VehicleParams(), EpisodeConfig())


def _reset_line(env, n=3, speed=20.0):
    track = env.track
    s0 = np.linspace(0.0, track.length * 0.3, n)
    pos, heading, _ = track.frames(s0)
    return env.reset(pos, heading, np.full(n, speed))


# ---------------------------------------------------------------------------
# Observation vector

def test_obs_dim_matches_layout():
    cfg = EpisodeConfig()
    assert obs_dim(cfg) == 10 + cfg.curvature_count + 6 * cfg.lookahead_count == 50


def test_first_observation_reports_steady_motion(circle_env):
    obs = _reset_line(circle_env, speed=25.0)
    assert obs.shape == (3, 50)
    np.testing.assert_allclose(obs[:, 0], 25.0, atol=1e-4)  # body-frame forward speed
    np.testing.assert_allclose(obs[:, 3:5], 0.0, atol=1e-6)  # no acceleration at placement
    np.testing.assert_allclose(obs[:, 7], 0.0, atol=1e-6)  # straight placement: no yaw rate


def test_curvature_preview_sees_the_circle(circle_env):
    obs = _reset_line(circle_env, speed=20.0)
    cfg = circle_env.cfg
    preview = obs[:, 8 : 8 + cfg.curvature_count]
    np.testing.assert_allclose(preview, 1.0 / 100.0, rtol=0.05)


def test_attitude_features_are_cos_sin_of_track_angle(circle_env):
    obs = _reset_line(circle_env)
    cfg = circle_env.cfg
    cos_psi = obs[:, 8 + cfg.curvature_count]
    sin_psi = obs[:, 9 + cfg.curvature_count]
    np.testing.assert_allclose(cos_psi**2 + sin_psi**2, 1.0, atol=1e-5)
    np.testing.assert_allclose(cos_psi, 1.0, atol=1e-5)  # placed along the tangent


def test_lookahead_points_are_ahead_and_bounded(circle_env):
    obs = _reset_line(circle_env, speed=20.0)
    cfg = circle_env.cfg
    base = 10 + cfg.curvature_count
    n = cfg.lookahead_count
    for block in range(3):
        cols = base + block * 2 * n
        bx = obs[:, cols : cols + 2 * n : 2]
        assert np.all(bx > 0.0)  # forward of the car in body frame
        assert np.all(bx <= 20.0 * cfg.preview_horizon + circle_env.track.half_width)


def test_acceleration_feature_tracks_velocity_change(circle_env):
    _reset_line(circle_env, speed=20.0)
    obs, _, _ = circle_env.step(np.tile(np.array([[0.0, 1.0]], np.float32), (3, 1)))
    # forward acceleration reported equals (v - v_prev) / dt within f32 noise
    v_now = obs[:, 0]
    accel = obs[:, 3]
    assert np.all(accel > 0.5)  # full throttle from 20 m/s accelerates
    np.testing.assert_allclose(accel, (v_now - 20.0) / 0.1, atol=0.05)


def test_eval_reset_places_steady_cornering_state(circle_env):
    """On a constant-curvature track the first steps add no transient:
    yaw rate stays near v * curvature from step one."""
    lookup = lambda s: np.full(len(np.atleast_1d(s)), 22.0)
    obs = circle_env.reset_eval(4, RNG(0), lookup)
    np.testing.assert_allclose(obs[:, 7], 22.0 / 100.0, rtol=0.05)
    # holding the curvature-matched steering keeps the attitude settled
    vp = circle_env.params
    cmd = np.arctan(vp.wheelbase / 100.0) / vp.max_steer
    act = np.tile(np.array([[cmd, 0.0]], np.float32), (4, 1))
    for _ in range(5):
        obs, _, _ = circle_env.step(act)
    cfg = circle_env.cfg
    sin_psi = obs[:, 9 + cfg.curvature_count]
    assert np.all(np.abs(sin_psi) < 0.05)


def test_eval_reset_spacing_is_even(circle_env):
    circle_env.reset_eval(5, RNG(3), lambda s: np.full(len(np.atleast_1d(s)), 15.0))
    gaps = np.sort(np.mod(np.diff(np.sort(circle_env.s)), circle_env.track.length))
    np.testing.assert_allclose(gaps, circle_env.track.length / 5, rtol=0.01)


# ---------------------------------------------------------------------------
# Stepping, progress, wall handling

def test_progress_accumulates_forward_motion(circle_env):
    _reset_line(circle_env, speed=20.0)
    total = np.zeros(3)
    for _ in range(10):
        _, progress, wall = circle_env.step(np.zeros((3, 2), np.float32))
        total += progress
        assert np.all(wall == 0.0)
    # ~2 m/step at 20 m/s with drag; quantization keeps it close
    assert np.all(total > 15.0) and np.all(total < 21.0)
    np.testing.assert_allclose(circle_env.cum_progress, total, atol=1e-6)


def test_wall_contact_flags_and_clamps_the_car(circle_env):
    """Steering hard into the barrier flags contact and clamps the car to
    the edge."""
    _reset_line(circle_env, speed=20.0)
    hit = False
    for _ in range(40):
        _, _, wall = circle_env.step(
            np.tile(np.array([[-1.0, 0.2]], np.float32), (3, 1)))
        if np.any(wall > 0):
            hit = True
            break
    assert hit, "full lock into the wall never made contact"
    # clamped cars sit exactly at the boundary
    _, e, _ = circle_env.track.project_many(circle_env.state.position)
    assert np.all(np.abs(e[wall > 0]) <= circle_env.track.half_width + 1e-6)


def test_lap_record_equals_one_kept_by_hand():
    """Car 0 scrapes the wall and then finishes, car 1 finishes clean and
    then scrapes, car 2 scrapes and stalls; reset clears the record."""
    track = circle_track(40.0)
    vparams = VehicleParams()
    env = RaceEnv(track, vparams, EpisodeConfig())
    ctrl = ExpertController(track, vparams, ExpertParams(), np.ones(3), np.ones(3))
    pos, heading, _ = track.frames(np.array([0.0, 80.0, 160.0]))
    env.reset(pos, heading, np.full(3, 15.0))
    walls, cum = [], []
    for t in range(1, 251):
        act = ctrl.act(env.state, env.s)
        if t <= 10:
            act[0] = [-1.0, 0.0]
        if env.lap_step[1]:
            act[1] = [-1.0, 1.0]
        act[2] = [-1.0, 0.0] if t <= 12 else [0.0, -1.0]
        walls.append(env.step(act.astype(np.float32))[2] > 0)
        cum.append(env.cum_progress.copy())
    walls, cum = np.array(walls).T, np.array(cum).T
    # Step k's flags sit at column k - 1; an open lap counts every step.
    done = cum >= track.length
    lap_step = np.where(done.any(axis=1), np.argmax(done, axis=1) + 1, 0)
    touched = [walls[i, : k or None].any() for i, k in enumerate(lap_step)]
    np.testing.assert_array_equal(env.lap_step, lap_step)
    np.testing.assert_array_equal(env.touched, touched)
    assert env.lap_step[0] > 0 and env.touched[0]
    assert env.lap_step[1] > 0 and not env.touched[1] and walls[1].any()
    assert env.lap_step[2] == 0 and env.touched[2]
    env.reset(pos, heading, np.full(3, 15.0))
    assert not env.lap_step.any() and not env.touched.any()


def _steer_rollout(track, steps=80):
    """64 cars from an evenly spaced flying start: every fourth holds full
    lock into a wall, the rest steer towards the first centerline
    lookahead point."""
    cfg = EpisodeConfig()
    env = RaceEnv(track, VehicleParams(), cfg)
    env.reset_eval(64, RNG(5), lambda s: np.full(len(np.atleast_1d(s)), 20.0))
    lock = np.where(np.arange(64) % 8 == 0, 1.0, -1.0)
    into_wall = np.arange(64) % 4 == 0
    y_ahead = 11 + cfg.curvature_count + 4 * cfg.lookahead_count

    def policy(obs):
        steer = np.where(into_wall, lock, np.clip(0.3 * obs[:, y_ahead], -1.0, 1.0))
        return np.stack([steer, np.zeros(64)], axis=1).astype(np.float32), {}

    return rollout(env, policy, steps)


def test_projection_hint_leaves_the_rollout_bitwise_unchanged(monkeypatch):
    track = gen_track("random", seed=21)
    project_many = Track.project_many
    hints = []

    def spy(self, pts, s_hint=None):
        hints.append(s_hint is not None)
        return project_many(self, pts, s_hint)

    monkeypatch.setattr(Track, "project_many", spy)
    hinted = _steer_rollout(track)
    assert hints == [False] + [True] * 80  # reset, then every step
    monkeypatch.setattr(Track, "project_many", lambda self, pts, s_hint=None: project_many(self, pts))
    dense = _steer_rollout(track)
    walls = hinted["wall"].sum(axis=1)
    assert (walls > 0).sum() >= 16 and (walls == 0).sum() >= 16
    for key in ("obs", "progress", "wall"):
        assert hinted[key].tobytes() == dense[key].tobytes(), key


def _observe_with_the_loop(env):
    """RaceEnv._observe as it was written before the one-call body-frame
    rotation: angles wrapped inline, the wall normal built in place, and
    one rotation per lookahead block."""
    cfg = env.cfg
    state = env.state
    b = len(state.yaw)
    n_curv = cfg.curvature_count
    n_look = cfg.lookahead_count
    out = np.zeros((b, obs_dim(cfg)), dtype=np.float64)
    vel = np.stack([state.v_x, state.v_y], axis=1)
    out[:, 0:2] = vel
    out[:, 3:5] = (vel - env.prev_vel) / cfg.dt
    out[:, 6] = state.yaw
    dyaw = np.mod(state.yaw - env.prev_yaw + np.pi, 2 * np.pi) - np.pi
    out[:, 7] = dyaw / cfg.dt
    span = np.maximum(state.v_x, 0.0) * cfg.preview_horizon
    frac = np.concatenate((np.arange(1, n_curv + 1) / n_curv, np.arange(1, n_look + 1) / n_look))
    s_ahead = env.s[:, None] + frac[None, :] * span[:, None]
    centers, hs, curv = env.track.frames(s_ahead.reshape(-1))
    out[:, 8 : 8 + n_curv] = curv.reshape(b, len(frac))[:, :n_curv]
    psi = np.mod(state.yaw - env.track_heading + np.pi, 2 * np.pi) - np.pi
    out[:, 8 + n_curv] = np.cos(psi)
    out[:, 9 + n_curv] = np.sin(psi)
    centers = centers.reshape(b, len(frac), 2)[:, n_curv:]
    hs = hs.reshape(b, len(frac))[:, n_curv:]
    normal = np.stack([-np.sin(hs), np.cos(hs)], axis=2)
    hw = env.track.half_width
    base = 10 + n_curv
    cos_y = np.cos(state.yaw)[:, None]
    sin_y = np.sin(state.yaw)[:, None]
    for block, world in enumerate((centers + hw * normal, centers - hw * normal, centers)):
        rel = world - state.position[:, None, :]
        bx = rel[..., 0] * cos_y + rel[..., 1] * sin_y
        by = -rel[..., 0] * sin_y + rel[..., 1] * cos_y
        cols = base + block * 2 * n_look
        out[:, cols : cols + 2 * n_look : 2] = bx
        out[:, cols + 1 : cols + 2 * n_look : 2] = by
    return out.astype(np.float32)


@pytest.mark.parametrize("batch", [1, 4, 20, 256])
def test_observation_equals_the_per_block_loop_bitwise(batch):
    # Cars start on stretches where the track heading is near +-pi,
    # facing +-pi to within 0.05 rad, and most of them past a wall: the
    # first step clamps those, and hard steering carries the yaw of
    # others across the wrap.
    track = gen_track("random", seed=7)
    rng = RNG(batch)
    near_pi = track.s_points[:-1][np.abs(track.headings) > np.pi - 0.2]
    s0 = rng.choice(near_pi, batch)
    pos, heading, _ = track.frames(s0)
    normal = np.stack([-np.sin(heading), np.cos(heading)], axis=1)
    offset = rng.choice([-1.0, 1.0], batch) * rng.uniform(0.5, 1.5, batch) * track.half_width
    yaw = np.where(heading > 0, np.pi, -np.pi) - np.sign(heading) * rng.uniform(0.0, 0.05, batch)
    env = RaceEnv(track, VehicleParams(), EpisodeConfig())
    obs = env.reset(pos + offset[:, None] * normal, yaw, rng.uniform(5.0, 30.0, batch))
    assert obs.tobytes() == _observe_with_the_loop(env).tobytes()
    walls = near = 0
    for _ in range(6):
        act = np.stack([rng.choice([-1.0, 1.0], batch), rng.uniform(-1.0, 1.0, batch)], axis=1)
        obs, _, wall = env.step(act.astype(np.float32))
        assert obs.tobytes() == _observe_with_the_loop(env).tobytes()
        walls += int(wall.sum())
        near += int((np.abs(env.state.yaw) > np.pi - 0.1).sum())
    assert walls > 0 and near > 0


def test_step_requires_reset(circle_env):
    env = RaceEnv(circle_env.track, VehicleParams(), EpisodeConfig())
    with pytest.raises(AttributeError):
        env.step(np.zeros((3, 2), np.float32))


def test_observations_are_float32_exact(circle_env):
    obs = _reset_line(circle_env)
    assert obs.dtype == np.float32
    obs2, prog, wall = circle_env.step(np.zeros((3, 2), np.float32))
    for arr in (obs2, prog, wall):
        assert arr.dtype == np.float32


# ---------------------------------------------------------------------------
# Whitening and saturation

def test_normalizer_fit_transform_roundtrip():
    data = RNG(1).normal(3.0, 2.0, size=(500, 4)).astype(np.float32)
    norm = Normalizer.fit(data)
    z = norm.transform(data)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-2)
    np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-2)
    back = Normalizer.from_dict(norm.to_dict())
    np.testing.assert_array_equal(back.transform(data), z)


def test_normalizer_floors_degenerate_spread():
    data = np.ones((50, 3), dtype=np.float32)
    norm = Normalizer.fit(data)
    assert np.all(norm.std >= 1e-6)
    assert np.all(np.isfinite(norm.transform(data)))


def test_normalizer_saturates_only_outliers():
    z = np.array([[-1e6, -3.0, 0.0, 3.0, 1e6]], dtype=np.float32)
    out = Normalizer(np.zeros(5, dtype=np.float32), np.ones(5, dtype=np.float32)).transform(z)
    np.testing.assert_array_equal(out[0], [-OBS_CLIP, -3.0, 0.0, 3.0, OBS_CLIP])
    assert out.dtype == np.float32


def test_normalizer_saturates_wild_features():
    """Features far outside the demonstrations whiten to exactly the bound."""
    norm = Normalizer(mean=np.zeros(6, np.float32), std=np.full(6, 0.5, np.float32))
    sign = np.array([[1.0], [-1.0]], dtype=np.float32)
    wild = 1e8 * sign * np.ones(6, np.float32)
    np.testing.assert_array_equal(norm.transform(wild), OBS_CLIP * sign * np.ones(6))


# ---------------------------------------------------------------------------
# Rollout driver

def test_rollout_shapes_and_extras(circle_env):
    _reset_line(circle_env, n=2, speed=15.0)

    def policy(obs):
        return np.zeros((2, 2), np.float32), {"tag": np.arange(2, dtype=np.float32)}

    roll = rollout(circle_env, policy, 7)
    assert roll["obs"].shape == (2, 8, 50)
    assert roll["actions"].shape == (2, 7, 2)
    assert roll["progress"].shape == (2, 7)
    assert roll["wall"].shape == (2, 7)
    assert roll["tag"].shape == (2, 7)


def test_rollout_of_no_steps_keeps_its_shapes(circle_env):
    _reset_line(circle_env, n=2, speed=15.0)
    first = circle_env._observe()

    def policy(obs):
        raise AssertionError("a rollout of no steps asks for no action")

    roll = rollout(circle_env, policy, 0)
    assert list(roll) == ["obs", "actions", "progress", "wall"]
    assert roll["obs"].shape == (2, 1, 50) and roll["obs"].dtype == np.float32
    np.testing.assert_array_equal(roll["obs"][:, 0], first)
    assert roll["actions"].shape == (2, 0, 2) and roll["actions"].dtype == np.float32
    assert roll["progress"].shape == roll["wall"].shape == (2, 0)
    assert roll["progress"].dtype == roll["wall"].dtype == np.float32


def test_rollout_rejects_non_finite_actions(circle_env):
    _reset_line(circle_env, n=2)

    def bad_policy(obs):
        a = np.zeros((2, 2), np.float32)
        a[1, 0] = np.nan
        return a, {}

    with pytest.raises(RolloutError, match="car 1"):
        rollout(circle_env, bad_policy, 3)


def test_trajectory_log_roundtrip(tmp_path, circle_env):
    _reset_line(circle_env, n=2)
    roll = rollout(circle_env, lambda o: (np.zeros((2, 2), np.float32), {}), 3)
    path = str(tmp_path / "traj.ckpt")
    save_trajectory_log(path, roll, {"note": "test"})
    meta, arrays = load_trajectory_log(path)
    assert meta["note"] == "test"
    np.testing.assert_array_equal(arrays["obs"], roll["obs"])
    np.testing.assert_array_equal(arrays["actions"], roll["actions"])


def test_trajectory_log_rejects_foreign_file(tmp_path):
    from racelab.nets import save_params

    path = str(tmp_path / "other.ckpt")
    save_params(path, {"a": np.zeros(1, np.float32)}, {"format": "other"})
    with pytest.raises(ValueError):
        load_trajectory_log(path)
