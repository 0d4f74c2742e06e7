"""Kinematic bicycle dynamics with grip, drag, and wall handling.

State evolves for a whole batch of cars at once. Integration is
semi-implicit Euler: longitudinal speed and yaw update first, then the
position advances using the updated values. Steering and throttle are
commanded in [-1, 1] and scaled by the parameter limits.

Wall contact never terminates an episode: the car is clamped back onto
the boundary and loses a fraction of its speed.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["VehicleParams", "VehicleState", "initial_state", "step", "enforce_track_limits"]


@dataclasses.dataclass(frozen=True)
class VehicleParams:
    """Physical limits of the car.

    max_steer scales the unit steering command to a road-wheel angle in
    radians; grip_limit caps lateral acceleration (|v_x * yaw_rate|);
    wall_speed_loss is the longitudinal speed retained on wall contact.
    """

    wheelbase: float = 2.6
    lr_ratio: float = 0.5
    max_steer: float = float(np.pi / 30.0)
    a_max: float = 5.5
    b_max: float = 11.0
    c_drag: float = 0.0035
    v_cap: float = 45.0
    grip_limit: float = 12.0
    wall_speed_loss: float = 0.9

    @staticmethod
    def from_dict(d):
        return VehicleParams(**d)

    def to_dict(self):
        return dataclasses.asdict(self)


@dataclasses.dataclass
class VehicleState:
    """Batched car state; every field has leading dimension B.

    v_x is the longitudinal (body-frame) speed, always >= 0; v_y is the
    lateral speed implied by the current slip angle. wall_contact flags
    cars that were clamped to a wall on the latest transition.
    """

    position: np.ndarray
    yaw: np.ndarray
    v_x: np.ndarray
    v_y: np.ndarray
    wall_contact: np.ndarray

    def copy(self):
        return VehicleState(
            self.position.copy(),
            self.yaw.copy(),
            self.v_x.copy(),
            self.v_y.copy(),
            self.wall_contact.copy(),
        )


def initial_state(positions, yaws, speeds):
    """Cars at rest laterally, moving forward at the given speeds."""
    b = len(positions)
    return VehicleState(
        np.asarray(positions, dtype=np.float64).reshape(b, 2),
        np.asarray(yaws, dtype=np.float64).reshape(b),
        np.asarray(speeds, dtype=np.float64).reshape(b),
        np.zeros(b, dtype=np.float64),
        np.zeros(b, dtype=np.float64),
    )


def _wrap_angle(a):
    return np.mod(a + np.pi, 2.0 * np.pi) - np.pi


def step(state, actions, params, dt):
    """Advance every car one step; pure function of its inputs.

    actions is (B, 2): column 0 steering, column 1 throttle/brake, both
    in [-1, 1] (clipped here as a final guard).
    """
    act = np.clip(np.asarray(actions, dtype=np.float64), -1.0, 1.0)
    steer_cmd = act[:, 0]
    accel_cmd = act[:, 1]
    delta = steer_cmd * params.max_steer
    l_r = params.wheelbase * params.lr_ratio
    beta = np.arctan((l_r / params.wheelbase) * np.tan(delta))
    yaw_rate = (state.v_x / params.wheelbase) * np.tan(delta) * np.cos(beta)
    # Grip: cap lateral acceleration |v_x * yaw_rate| by rescaling.
    lat = np.abs(state.v_x * yaw_rate)
    over = lat > params.grip_limit
    yaw_rate = np.where(over, yaw_rate * params.grip_limit / np.maximum(lat, 1e-12), yaw_rate)
    accel = np.where(accel_cmd >= 0.0, accel_cmd * params.a_max, accel_cmd * params.b_max)
    accel = accel - params.c_drag * state.v_x * state.v_x
    v_x = np.clip(state.v_x + accel * dt, 0.0, params.v_cap)
    yaw = _wrap_angle(state.yaw + yaw_rate * dt)
    v_y = v_x * np.tan(beta)
    cos_y, sin_y = np.cos(yaw), np.sin(yaw)
    vel_world = np.stack([v_x * cos_y - v_y * sin_y, v_x * sin_y + v_y * cos_y], axis=1)
    position = state.position + vel_world * dt
    return VehicleState(position, yaw, v_x, v_y, np.zeros_like(v_x))


def enforce_track_limits(state, track, params, s=None, e=None, heading=None):
    """Clamp off-track cars to the boundary and slow them down.

    Projection results (``track.project_many`` of the positions) may be
    passed in to avoid recomputing them; when omitted they are computed
    here. Returns the corrected state (the input is modified in place)
    with wall_contact set for clamped cars.
    """
    if s is None:
        s, e, heading = track.project_many(state.position)
    outside = np.abs(e) > track.half_width
    if outside.any():
        # The projection's heading is the centerline heading at s.
        normal = np.stack([-np.sin(heading), np.cos(heading)], axis=1)
        clamped = track.centerline(s) + np.sign(e)[:, None] * track.half_width * normal
        state.position = np.where(outside[:, None], clamped, state.position)
        state.v_x = np.where(outside, state.v_x * params.wall_speed_loss, state.v_x)
        state.v_y = np.where(outside, 0.0, state.v_y)
    state.wall_contact = outside.astype(np.float64)
    return state
