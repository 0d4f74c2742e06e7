"""Closed-form dynamics oracles for the kinematic bicycle."""

import copy

import numpy as np

from conftest import circle_track
from racelab.vehicle import VehicleParams, enforce_track_limits, initial_state, step


def run_constant(params, steer, accel, v0, steps, dt):
    state = initial_state(np.zeros((1, 2)), np.zeros(1), np.asarray([v0]))
    traj = [state.position[0].copy()]
    act = np.asarray([[steer, accel]])
    for _ in range(steps):
        state = step(state, act, params, dt)
        traj.append(state.position[0].copy())
    return state, np.asarray(traj)


class TestTurningCircle:
    def test_radius_matches_closed_form(self):
        """Constant steer at constant speed traces a circle of radius
        wheelbase / (tan(delta) * cos(beta)^2), fit by least squares."""
        params = VehicleParams(c_drag=0.0, grip_limit=1e9)
        v0 = 15.0
        steer = 0.6
        dt = 1e-3
        state, traj = run_constant(params, steer, 0.0, v0, steps=30000, dt=dt)
        delta = steer * params.max_steer
        l_r = params.wheelbase * params.lr_ratio
        beta = np.arctan(l_r / params.wheelbase * np.tan(delta))
        expected = params.wheelbase / (np.tan(delta) * np.cos(beta) ** 2)
        # Algebraic circle fit (Kasa): solve for center and radius.
        x, y = traj[:, 0], traj[:, 1]
        a_mat = np.stack([x, y, np.ones_like(x)], axis=1)
        b_vec = x * x + y * y
        sol, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
        cx, cy = sol[0] / 2, sol[1] / 2
        radius = np.sqrt(sol[2] + cx * cx + cy * cy)
        assert abs(radius - abs(expected)) / abs(expected) < 1e-3

    def test_left_steer_turns_left(self):
        params = VehicleParams()
        _, traj = run_constant(params, 1.0, 0.0, 10.0, steps=500, dt=0.01)
        # Heading starts along +x; positive steer should curl toward +y.
        assert traj[-1, 1] > 1.0


class TestLongitudinal:
    def test_drag_limited_acceleration_matches_tanh_profile(self):
        """Full throttle from rest: v(t) = v_t * tanh(a_max t / v_t) with
        terminal speed v_t = sqrt(a_max / c_drag)."""
        params = VehicleParams(v_cap=1e9)
        dt = 1e-4
        t_end = 4.0
        state = initial_state(np.zeros((1, 2)), np.zeros(1), np.zeros(1))
        act = np.asarray([[0.0, 1.0]])
        for _ in range(int(t_end / dt)):
            state = step(state, act, params, dt)
        v_t = np.sqrt(params.a_max / params.c_drag)
        expected = v_t * np.tanh(params.a_max * t_end / v_t)
        assert abs(state.v_x[0] - expected) / expected < 1e-3

    def test_braking_stops_at_zero_not_below(self):
        params = VehicleParams()
        state = initial_state(np.zeros((1, 2)), np.zeros(1), np.asarray([3.0]))
        act = np.asarray([[0.0, -1.0]])
        for _ in range(100):
            state = step(state, act, params, 0.1)
        assert state.v_x[0] == 0.0

    def test_speed_cap_enforced(self):
        params = VehicleParams(c_drag=0.0, v_cap=20.0)
        state = initial_state(np.zeros((1, 2)), np.zeros(1), np.asarray([19.9]))
        act = np.asarray([[0.0, 1.0]])
        for _ in range(50):
            state = step(state, act, params, 0.1)
        assert state.v_x[0] <= 20.0 + 1e-12

    def test_throttle_and_brake_scales_differ(self):
        params = VehicleParams(c_drag=0.0)
        s_fwd = initial_state(np.zeros((1, 2)), np.zeros(1), np.asarray([10.0]))
        s_fwd = step(s_fwd, np.asarray([[0.0, 0.5]]), params, 0.1)
        assert abs(s_fwd.v_x[0] - (10.0 + 0.5 * params.a_max * 0.1)) < 1e-12
        s_brk = initial_state(np.zeros((1, 2)), np.zeros(1), np.asarray([10.0]))
        s_brk = step(s_brk, np.asarray([[0.0, -0.5]]), params, 0.1)
        assert abs(s_brk.v_x[0] - (10.0 - 0.5 * params.b_max * 0.1)) < 1e-12


class TestGrip:
    def test_lateral_acceleration_capped(self):
        params = VehicleParams()
        state = initial_state(np.zeros((1, 2)), np.zeros(1), np.asarray([40.0]))
        act = np.asarray([[1.0, 0.0]])
        nxt = step(state, act, params, 0.1)
        yaw_rate = (nxt.yaw[0] - state.yaw[0]) / 0.1
        assert abs(state.v_x[0] * yaw_rate) <= params.grip_limit + 1e-9

    def test_slow_cornering_not_clamped(self):
        params = VehicleParams()
        v0 = 5.0
        state = initial_state(np.zeros((1, 2)), np.zeros(1), np.asarray([v0]))
        act = np.asarray([[1.0, 0.0]])
        nxt = step(state, act, params, 0.1)
        delta = params.max_steer
        l_r = params.wheelbase * params.lr_ratio
        beta = np.arctan(l_r / params.wheelbase * np.tan(delta))
        expected_rate = v0 / params.wheelbase * np.tan(delta) * np.cos(beta)
        measured = (nxt.yaw[0] - state.yaw[0]) / 0.1
        assert abs(measured - expected_rate) < 1e-12


class TestDeterminismAndClipping:
    def test_step_is_bitwise_deterministic(self):
        params = VehicleParams()
        rng = np.random.default_rng(0)
        state_a = initial_state(rng.normal(0, 5, (8, 2)), rng.normal(0, 1, 8), rng.uniform(0, 30, 8))
        state_b = copy.deepcopy(state_a)
        act = rng.uniform(-1, 1, (8, 2))
        out_a = step(state_a, act, params, 0.1)
        out_b = step(state_b, act, params, 0.1)
        assert np.array_equal(out_a.position, out_b.position)
        assert np.array_equal(out_a.yaw, out_b.yaw)
        assert np.array_equal(out_a.v_x, out_b.v_x)

    def test_out_of_range_commands_clipped(self):
        params = VehicleParams(c_drag=0.0)
        state = initial_state(np.zeros((1, 2)), np.zeros(1), np.asarray([10.0]))
        wild = step(state, np.asarray([[5.0, 5.0]]), params, 0.1)
        tame = step(state, np.asarray([[1.0, 1.0]]), params, 0.1)
        assert np.array_equal(wild.position, tame.position)
        assert wild.v_x[0] == tame.v_x[0]

    def test_yaw_stays_wrapped(self):
        params = VehicleParams()
        state = initial_state(np.zeros((1, 2)), np.asarray([3.1]), np.asarray([20.0]))
        for _ in range(200):
            state = step(state, np.asarray([[0.8, 0.0]]), params, 0.1)
            assert -np.pi <= state.yaw[0] <= np.pi


class TestWallContact:
    def test_outside_car_clamped_to_wall(self):
        track = circle_track(100.0)
        params = VehicleParams()
        # Radius 100 circle: a car at radius 92 is 8 m inside (left),
        # beyond the 6 m half width.
        state = initial_state(np.asarray([[92.0, 0.0]]), np.asarray([np.pi / 2]), np.asarray([20.0]))
        out = enforce_track_limits(state, track, params, *track.project_many(state.position)[1:])
        assert out.wall_contact[0] == 1.0
        _, (e,), _, _ = track.project_many(out.position)
        # Reprojection through interpolated frames reintroduces sub-mm
        # error; the clamp itself is exact in its own projection frame.
        assert abs(abs(e) - track.half_width) < 5e-3
        assert abs(out.v_x[0] - 20.0 * params.wall_speed_loss) < 1e-9

    def test_inside_car_untouched(self):
        track = circle_track(100.0)
        params = VehicleParams()
        pos = np.asarray([[99.0, 0.0]])
        state = initial_state(pos, np.asarray([np.pi / 2]), np.asarray([20.0]))
        before = state.position.copy()
        out = enforce_track_limits(state, track, params, *track.project_many(pos)[1:])
        assert out.wall_contact[0] == 0.0
        assert np.array_equal(out.position, before)
        assert out.v_x[0] == 20.0

    def test_never_terminates_only_flags(self):
        track = circle_track(100.0)
        params = VehicleParams()
        state = initial_state(np.asarray([[110.0, 0.0]]), np.asarray([np.pi / 2]), np.asarray([30.0]))
        out = enforce_track_limits(state, track, params, *track.project_many(state.position)[1:])
        # The car remains usable: another step works fine.
        nxt = step(out, np.asarray([[0.0, 0.5]]), params, 0.1)
        assert np.isfinite(nxt.position).all()
