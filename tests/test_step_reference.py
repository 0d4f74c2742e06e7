"""The simulator step and the scripted expert against reference copies of
their former code.

``RaceEnv.step`` and ``_observe``, ``Track.frames`` and ``project_many``,
``vehicle.step``, ``enforce_track_limits`` and ``ExpertController.act``
were rewritten to make far fewer numpy calls per step: a per-segment
table, ufunc clamps, filled two-column arrays and the projection's own
centerline point for wall clamping. The copies below are the code as it
was before; every output must keep its bits, at every batch size, through
wall contacts, yaw wraps, the grip limit and stopped cars.
"""

import numpy as np
import pytest

from racelab import config, expert
from racelab.env import EpisodeConfig, RaceEnv, obs_dim
from racelab.expert import DEMO_MAX_STEPS, LAP_STATE, ExpertController, ExpertParams
from racelab.seeding import stream
from racelab.track import CLEAR_SKIP, WINDOW, gen_track, wrap_angle
from racelab.vehicle import VehicleParams, VehicleState, enforce_track_limits, initial_state, step

RNG = np.random.default_rng
BATCHES = [1, 4, 20, 256]


# ---------------------------------------------------------------------------
# Reference copies

def _left_normal_ref(h):
    return np.stack([-np.sin(h), np.cos(h)], axis=-1)


def _locate_ref(track, s):
    s = track.wrap(np.asarray(s, dtype=np.float64))
    idx = np.searchsorted(track.s_points, s, side="right") - 1
    idx = np.clip(idx, 0, len(track.points) - 1)
    s0 = track.s_points[idx]
    u = (s - s0) / (track.s_points[idx + 1] - s0)
    return idx, (idx + 1) % len(track.points), u


def _frames_ref(track, s):
    idx, nxt, u = _locate_ref(track, s)
    p = track.points[idx] + u[:, None] * (track.points[nxt] - track.points[idx])
    h = wrap_angle(track.headings[idx] + u * wrap_angle(track.headings[nxt] - track.headings[idx]))
    c = track.curvatures[idx] + u * (track.curvatures[nxt] - track.curvatures[idx])
    return p, h, c


def _centerline_ref(track, s):
    idx, nxt, u = _locate_ref(track, s)
    return track.points[idx] + u[:, None] * (track.points[nxt] - track.points[idx])


def _nearest_windowed_ref(track, pts, s_hint):
    n = len(track.points)
    first = np.searchsorted(track.s_points, track.wrap(s_hint), side="right") - (1 + WINDOW)
    win = np.sort((first[:, None] + np.arange(2 * WINDOW + 2)) % n, axis=1)
    verts = track.points[win]
    d2 = (pts[:, None, 0] - verts[..., 0]) ** 2 + (pts[:, None, 1] - verts[..., 1]) ** 2
    col = d2.argmin(axis=1)
    rows = np.arange(len(pts))
    nearest, near_d2 = win[rows, col], d2[rows, col]
    inside = (nearest - first) % n
    exact = ((inside >= CLEAR_SKIP) & (inside <= 2 * WINDOW + 1 - CLEAR_SKIP)
             & (4.0 * near_d2 < track.clearance_sq[nearest] * (1.0 - 1e-9)))
    if not exact.all():
        miss = ~exact
        nearest[miss], near_d2[miss] = track._nearest_dense(pts[miss])
    return nearest, near_d2


def _project_ref(track, pts, s_hint=None):
    """(s, e, heading) as project_many returned them."""
    pts = np.asarray(pts, dtype=np.float64)
    n = len(track.points)
    if s_hint is None:
        nearest, near_d2 = track._nearest_dense(pts)
    else:
        nearest, near_d2 = _nearest_windowed_ref(track, pts, s_hint)
    if np.sqrt(near_d2).max() > 10.0 * track.half_width:
        raise ValueError("far")
    i = (nearest[:, None] + np.arange(-2, 2)) % n
    a = track.points[i]
    ab = track.points[(i + 1) % n] - a
    denom = (ab * ab).sum(axis=2)
    t = np.clip(((pts[:, None] - a) * ab).sum(axis=2) / denom, 0.0, 1.0)
    q = a + t[..., None] * ab
    rows = np.arange(len(pts))
    best = ((pts[:, None] - q) ** 2).sum(axis=2).argmin(axis=1)
    s = track.wrap(track.s_points[i[rows, best]] + t[rows, best] * np.sqrt(denom[rows, best]))
    best_q = q[rows, best]
    _, h, _ = _frames_ref(track, s)
    normal = _left_normal_ref(h)
    d = pts - best_q
    e = normal[:, 0] * d[:, 0] + normal[:, 1] * d[:, 1]
    return s, e, h


def _to_body_ref(rel, yaw):
    cos_y, sin_y = np.cos(yaw), np.sin(yaw)
    return np.stack([rel[..., 0] * cos_y + rel[..., 1] * sin_y,
                     -rel[..., 0] * sin_y + rel[..., 1] * cos_y], axis=-1)


def _vehicle_step_ref(state, actions, params, dt):
    act = np.clip(np.asarray(actions, dtype=np.float64), -1.0, 1.0)
    accel_cmd = act[:, 1]
    delta = act[:, 0] * params.max_steer
    beta = np.arctan(params.lr_ratio * np.tan(delta))
    yaw_rate = (state.v_x / params.wheelbase) * np.tan(delta) * np.cos(beta)
    lat = np.abs(state.v_x * yaw_rate)
    over = lat > params.grip_limit
    yaw_rate = np.where(over, yaw_rate * params.grip_limit / np.maximum(lat, 1e-12), yaw_rate)
    accel = np.where(accel_cmd >= 0.0, accel_cmd * params.a_max, accel_cmd * params.b_max)
    accel = accel - params.c_drag * state.v_x * state.v_x
    v_x = np.clip(state.v_x + accel * dt, 0.0, params.v_cap)
    yaw = wrap_angle(state.yaw + yaw_rate * dt)
    v_y = v_x * np.tan(beta)
    cos_y, sin_y = np.cos(yaw), np.sin(yaw)
    vel_world = np.stack([v_x * cos_y - v_y * sin_y, v_x * sin_y + v_y * cos_y], axis=1)
    position = state.position + vel_world * dt
    return VehicleState(position, yaw, v_x, v_y, np.zeros_like(v_x))


def _enforce_ref(state, track, params, s, e, heading):
    outside = np.abs(e) > track.half_width
    if outside.any():
        clamped = (_centerline_ref(track, s)
                   + np.sign(e)[:, None] * track.half_width * _left_normal_ref(heading))
        state.position = np.where(outside[:, None], clamped, state.position)
        state.v_x = np.where(outside, state.v_x * params.wall_speed_loss, state.v_x)
        state.v_y = np.where(outside, 0.0, state.v_y)
    state.wall_contact = outside.astype(np.float64)
    return state


def _quant_ref(x):
    return np.asarray(x, dtype=np.float64).astype(np.float32).astype(np.float64)


def _observe_ref(env):
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
    out[:, 7] = wrap_angle(state.yaw - env.prev_yaw) / cfg.dt
    span = np.maximum(state.v_x, 0.0) * cfg.preview_horizon
    frac = np.concatenate((np.arange(1, n_curv + 1) / n_curv, np.arange(1, n_look + 1) / n_look))
    s_ahead = env.s[:, None] + frac[None, :] * span[:, None]
    centers, hs, curv = _frames_ref(env.track, s_ahead.reshape(-1))
    out[:, 8 : 8 + n_curv] = curv.reshape(b, len(frac))[:, :n_curv]
    psi = wrap_angle(state.yaw - env.track_heading)
    out[:, 8 + n_curv] = np.cos(psi)
    out[:, 9 + n_curv] = np.sin(psi)
    centers = centers.reshape(b, len(frac), 2)[:, n_curv:]
    wall = env.track.half_width * _left_normal_ref(hs.reshape(b, len(frac))[:, n_curv:])
    world = np.concatenate((centers + wall, centers - wall, centers), axis=1)
    out[:, 10 + n_curv :] = _to_body_ref(world - state.position[:, None, :],
                                         state.yaw[:, None]).reshape(b, -1)
    return out.astype(np.float32)


def _env_step_ref(env, actions):
    """RaceEnv.step as it was, on a RaceEnv's own fields."""
    actions = np.asarray(actions, dtype=np.float32)
    act = _quant_ref(np.clip(actions, -1.0, 1.0))
    prev_vel = np.stack([env.state.v_x, env.state.v_y], axis=1)
    prev_yaw = env.state.yaw.copy()
    state = _vehicle_step_ref(env.state, act, env.params, env.cfg.dt)
    state.position = _quant_ref(state.position)
    state.yaw = _quant_ref(state.yaw)
    state.v_x = _quant_ref(state.v_x)
    state.v_y = _quant_ref(state.v_y)
    s, e, h = _project_ref(env.track, state.position, s_hint=env.s)
    state = _enforce_ref(state, env.track, env.params, s, e, h)
    if state.wall_contact.any():
        state.position = _quant_ref(state.position)
        state.v_x = _quant_ref(state.v_x)
    progress = env.track.progress_delta(s, env.s)
    env.prev_vel = prev_vel
    env.prev_yaw = prev_yaw
    env.state = state
    env.s = s
    env.track_heading = h
    env.cum_progress += progress
    env.step_idx += 1
    lap_open = env.lap_step == 0
    env.touched |= lap_open & (state.wall_contact > 0)
    env.lap_step[lap_open & (env.cum_progress >= env.track.length)] = env.step_idx
    return _observe_ref(env), progress.astype(np.float32), state.wall_contact.astype(np.float32)


def _target_speed_ref(ctrl, s, v_x):
    xp = ctrl.xp
    b_eff = xp.brake_margin * ctrl.vparams.b_max
    count = xp.preview_points
    dist = (np.arange(count + 1) / count)[None, :] * (
        np.maximum(v_x, 5.0) * xp.preview_horizon)[:, None]
    s_samples = np.asarray(s)[:, None] + dist
    _, _, curv = _frames_ref(ctrl.track, s_samples.reshape(-1))
    curv = np.abs(curv.reshape(dist.shape))
    v_allow = np.minimum(xp.v_max, np.sqrt(xp.corner_accel / np.maximum(curv, 1e-6)))
    v_allow = v_allow * (xp.speed_scale * ctrl.speed_mult)[:, None]
    feasible = np.sqrt(v_allow**2 + 2.0 * b_eff * dist)
    return feasible.min(axis=1)


def _act_ref(ctrl, state, s):
    """ExpertController.act as it was; updates ctrl.prev_steer."""
    xp = ctrl.xp
    v = state.v_x
    look = np.maximum(xp.min_lookahead, v * xp.pursuit_time * ctrl.pursuit_mult)
    goal, _, _ = _frames_ref(ctrl.track, np.asarray(s) + look)
    gx, gy = _to_body_ref(goal - state.position, state.yaw).T
    d_sq = np.maximum(gx * gx + gy * gy, 1e-6)
    kappa = 2.0 * gy / d_sq
    steer_cmd = np.arctan(ctrl.vparams.wheelbase * kappa) / ctrl.vparams.max_steer
    steer_cmd = np.clip(steer_cmd, -1.0, 1.0)
    steer = (1.0 - xp.steer_smooth) * ctrl.prev_steer + xp.steer_smooth * steer_cmd
    ctrl.prev_steer = steer
    throttle = np.clip(xp.throttle_gain * (_target_speed_ref(ctrl, s, v) - v), -1.0, 1.0)
    return np.stack([steer, throttle], axis=1)


def _generate_demos_ref(track, vparams, ecfg, xparams, n_laps, seed):
    """generate_demos' recording loop as it was, on the reference step and
    controller; returns the laps."""
    rngs = [stream(seed, "demo", lap) for lap in range(n_laps)]
    s0 = np.asarray([rng.uniform(0.0, track.length) for rng in rngs])
    speed_mult = np.asarray([1.0 + xparams.jitter * rng.standard_normal() for rng in rngs])
    pursuit_mult = np.asarray([1.0 + xparams.jitter * rng.standard_normal() for rng in rngs])
    ctrl = ExpertController(track, vparams, xparams, speed_mult, pursuit_mult)
    env = RaceEnv(track, vparams, ecfg)
    pos, heading, _ = _frames_ref(track, s0)
    v_start = _target_speed_ref(ctrl, s0, np.full(n_laps, 10.0))

    def lap_state():
        st = env.state
        return [np.array(x, dtype=np.float32) for x in (st.position, st.yaw, st.v_x, st.v_y, env.s)]

    rows = [(env.reset(pos, heading, np.minimum(v_start, xparams.v_max * 0.5)), *lap_state())]
    actions = []
    noise_rng = stream(seed, "demo", n_laps)
    for _ in range(DEMO_MAX_STEPS):
        act = _act_ref(ctrl, env.state, env.s)
        if xparams.action_noise > 0.0:
            act = act + xparams.action_noise * noise_rng.standard_normal(act.shape)
        actions.append(np.clip(act, -1.0, 1.0).astype(np.float32))
        rows.append((_env_step_ref(env, actions[-1])[0], *lap_state()))
        if env.lap_step.all():
            break
    stacked = {key: np.stack(col, axis=1) for key, col in zip(("obs", *LAP_STATE), zip(*rows))}
    stacked["actions"] = np.stack(actions, axis=1)
    return [{key: val[i, : end + (key != "actions")].copy() for key, val in stacked.items()}
            for i, end in enumerate(env.lap_step.tolist())]


# ---------------------------------------------------------------------------
# Comparisons

def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _state_fields(state):
    return (state.position, state.yaw, state.v_x, state.v_y, state.wall_contact)


def _wrapping_start(track, batch, rng):
    """Cars on stretches whose heading is near +-pi, facing +-pi to within
    0.05 rad, most of them past a wall: the first step clamps those, and
    hard steering carries the yaw of others across the wrap."""
    near_pi = track.s_points[:-1][np.abs(track.headings) > np.pi - 0.2]
    s0 = rng.choice(near_pi, batch) + rng.uniform(0.0, 2.0, batch)
    pos, heading, _ = _frames_ref(track, s0)
    normal = _left_normal_ref(heading)
    offset = rng.choice([-1.0, 1.0], batch) * rng.uniform(0.5, 1.5, batch) * track.half_width
    yaw = np.where(heading > 0, np.pi, -np.pi) - np.sign(heading) * rng.uniform(0.0, 0.05, batch)
    speed = rng.uniform(0.0, 40.0, batch)
    # Car 0 starts past a wall at a speed that turns it across the wrap
    # within a few steps at full lock.
    offset[0], speed[0] = 1.3 * track.half_width, 25.0
    return pos + offset[:, None] * normal, yaw, speed


def _actions(rng, batch):
    """Full lock, hard braking and commands outside [-1, 1], with some
    exact zeros."""
    steer = rng.choice([-1.5, -1.0, 0.0, 0.3, 1.0, 1.5], batch) * rng.uniform(0.5, 1.0, batch)
    pedal = rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0, 1.3], batch)
    return np.stack([steer, pedal], axis=1).astype(np.float32)


@pytest.fixture(scope="module")
def course():
    return gen_track("random", seed=7)


@pytest.mark.parametrize("batch", BATCHES)
def test_frames_equals_the_reference_bitwise(course, batch):
    rng = RNG(batch)
    s = np.concatenate([rng.uniform(-course.length, 2.0 * course.length, batch),
                        course.s_points[rng.integers(0, len(course.s_points), batch)],
                        [0.0, course.length, -1e-17, -0.0]])
    for got, want in zip(course.frames(s), _frames_ref(course, s)):
        _same(got, want)


@pytest.mark.parametrize("batch", BATCHES)
def test_projection_and_wall_clamp_equal_the_reference_bitwise(course, batch):
    rng = RNG(batch)
    s0 = rng.uniform(0.0, course.length, batch)
    pos, heading, _ = _frames_ref(course, s0)
    offset = rng.uniform(-1.6, 1.6, batch) * course.half_width
    pts = pos + offset[:, None] * _left_normal_ref(heading)
    hint = course.wrap(s0 - rng.uniform(-3.0, 4.5, batch))
    for s_hint in (None, hint):
        s, e, h, center = course.project_many(pts, s_hint=s_hint)
        for got, want in zip((s, e, h), _project_ref(course, pts, s_hint)):
            _same(got, want)
        _same(center, _centerline_ref(course, s))
        speeds = rng.uniform(0.0, 40.0, batch)
        got = enforce_track_limits(initial_state(pts, heading, speeds), course, VehicleParams(),
                                   e, h, center)
        want = _enforce_ref(initial_state(pts, heading, speeds), course, VehicleParams(), s, e, h)
        for a, b in zip(_state_fields(got), _state_fields(want)):
            _same(a, b)
    assert 0 < got.wall_contact.sum() < batch or batch == 1


@pytest.mark.parametrize("batch", BATCHES)
def test_vehicle_step_equals_the_reference_bitwise(batch):
    # Each round draws fresh cars. Car 0 takes, in turn, full lock at the
    # speed cap (the grip limit binds), braking at rest, signed zeros, and
    # commands past both bounds at a crawl (the car stops).
    rng = RNG(batch)
    params = VehicleParams()
    car0 = [(45.0, 1.0, 1.0), (0.0, 0.0, -1.0), (-0.0, -0.0, -0.0), (0.05, 1.5, -2.0)]
    for v0, steer0, pedal0 in car0 * 2:
        v_x = rng.choice([0.0, -0.0, 0.01, 20.0, 44.9, 45.0], batch) * rng.uniform(0.9, 1.0, batch)
        v_x[0] = v0
        state = initial_state(rng.normal(0.0, 50.0, (batch, 2)),
                              rng.choice([-np.pi, np.pi], batch) * rng.uniform(0.99, 1.0, batch),
                              v_x)
        state.v_y = rng.normal(0.0, 1.0, batch)
        act = _actions(rng, batch)
        act[0] = steer0, pedal0
        got = step(state, act, params, 0.1)
        want = _vehicle_step_ref(state, act, params, 0.1)
        for a, b in zip(_state_fields(got), _state_fields(want)):
            _same(a, b)
        if v0 == 45.0:
            turn = abs(wrap_angle(got.yaw[0] - state.yaw[0]))
            assert turn <= 0.1 * params.grip_limit / v0 * (1 + 1e-9)
        if v0 == 0.05:
            assert got.v_x[0] == 0.0


@pytest.mark.parametrize("batch", BATCHES)
def test_env_step_equals_the_reference_bitwise(course, batch):
    rng = RNG(100 + batch)
    pos, yaw, speed = _wrapping_start(course, batch, rng)
    envs = [RaceEnv(course, VehicleParams(), EpisodeConfig()) for _ in range(2)]
    for env in envs:
        env.reset(pos, yaw, speed)
    _same(envs[0]._observe(), _observe_ref(envs[1]))
    walls = wraps = 0
    for _ in range(12):
        act = _actions(rng, batch)
        act[0] = np.sign(envs[0].state.yaw[0]), 0.2
        prev_yaw = envs[0].state.yaw
        got = envs[0].step(act)
        want = _env_step_ref(envs[1], act)
        for a, b in zip(got, want):
            _same(a, b)
        for a, b in zip(_state_fields(envs[0].state), _state_fields(envs[1].state)):
            _same(a, b)
        for name in ("s", "track_heading", "prev_vel", "prev_yaw", "cum_progress", "lap_step",
                     "touched"):
            _same(getattr(envs[0], name), getattr(envs[1], name))
        walls += int(got[2].sum())
        wraps += int((np.abs(envs[0].state.yaw - prev_yaw) > np.pi).sum())
    assert walls > 0 and wraps > 0


@pytest.mark.parametrize("batch", BATCHES)
def test_expert_act_equals_the_reference_bitwise(course, batch):
    rng = RNG(200 + batch)
    pos, yaw, speed = _wrapping_start(course, batch, rng)
    env = RaceEnv(course, VehicleParams(), EpisodeConfig())
    env.reset(pos, yaw, speed)
    mults = [1.0 + 0.08 * rng.standard_normal(batch) for _ in range(2)]
    ctrls = [ExpertController(course, VehicleParams(), ExpertParams(), *mults) for _ in range(2)]
    for _ in range(10):
        got = ctrls[0].act(env.state, env.s)
        want = _act_ref(ctrls[1], env.state, env.s)
        _same(got, want)
        _same(ctrls[0].prev_steer, ctrls[1].prev_steer)
        _same(ctrls[0].target_speed(env.s, env.state.v_x),
              _target_speed_ref(ctrls[1], env.s, env.state.v_x))
        env.step((got + 0.3 * rng.standard_normal(got.shape)).astype(np.float32))


def test_desk_demonstrations_equal_the_reference_bitwise():
    cfg = config.build_config({"profile": "desk", "challenge": "maggiore-like", "mode": "betail",
                               "seed": 0})
    spec = dict(cfg.track_spec)
    course = gen_track(spec.pop("preset"), **spec)
    demos = expert.generate_demos(course, cfg.vehicle, cfg.episode, cfg.expert, cfg.demo_laps,
                                  cfg.demo_seed)
    want = _generate_demos_ref(course, cfg.vehicle, cfg.episode, cfg.expert, cfg.demo_laps,
                               cfg.demo_seed)
    assert cfg.demo_laps == len(demos.laps) == len(want) == 8
    for lap, ref in zip(demos.laps, want):
        assert list(lap) == list(ref)
        for key in lap:
            _same(lap[key], ref[key])
