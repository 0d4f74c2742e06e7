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

from .track import left_normal, wrap_angle

__all__ = ["VehicleParams", "VehicleState", "initial_state", "slip_and_yaw_rate", "step",
           "enforce_track_limits", "to_body"]


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


def slip_and_yaw_rate(delta, v_x, params):
    """Kinematic-bicycle slip angle and yaw rate at road-wheel angle delta
    and longitudinal speed v_x, with the center of mass lr_ratio of the
    wheelbase ahead of the rear axle."""
    tan_delta = np.tan(delta)
    beta = np.arctan(params.lr_ratio * tan_delta)
    return beta, (v_x / params.wheelbase) * tan_delta * np.cos(beta)


def to_body(rel, yaw, out):
    """World-frame offsets rel (..., 2) in the frame of a car heading yaw:
    x forward, y to the left. yaw broadcasts against rel[..., 0]. The
    result is written into out, of rel's shape, and returned."""
    cos_y, sin_y = np.cos(yaw), np.sin(yaw)
    np.add(rel[..., 0] * cos_y, rel[..., 1] * sin_y, out=out[..., 0])
    np.subtract(rel[..., 1] * cos_y, rel[..., 0] * sin_y, out=out[..., 1])
    return out


def step(state, actions, params, dt):
    """Advance every car one step; pure function of its inputs.

    actions is (B, 2): column 0 steering, column 1 throttle/brake, both
    in [-1, 1] (clipped here as a final guard).
    """
    act = np.minimum(np.maximum(-1.0, np.asarray(actions, dtype=np.float64)), 1.0)
    accel_cmd = act[:, 1]
    beta, yaw_rate = slip_and_yaw_rate(act[:, 0] * params.max_steer, state.v_x, params)
    # Grip: cap lateral acceleration |v_x * yaw_rate| by rescaling.
    lat = np.abs(state.v_x * yaw_rate)
    np.divide(yaw_rate * params.grip_limit, lat, out=yaw_rate, where=lat > params.grip_limit)
    accel = accel_cmd * np.where(accel_cmd >= 0.0, params.a_max, params.b_max)
    accel -= params.c_drag * state.v_x * state.v_x
    v_x = np.minimum(np.maximum(0.0, state.v_x + accel * dt), params.v_cap)
    yaw = wrap_angle(state.yaw + yaw_rate * dt)
    v_y = v_x * np.tan(beta)
    cos_y, sin_y = np.cos(yaw), np.sin(yaw)
    position = np.empty_like(state.position)
    np.subtract(v_x * cos_y, v_y * sin_y, out=position[:, 0])
    np.add(v_x * sin_y, v_y * cos_y, out=position[:, 1])
    position *= dt
    position += state.position
    return VehicleState(position, yaw, v_x, v_y, np.zeros(len(v_x)))


def enforce_track_limits(state, track, params, e, heading, center):
    """Clamp off-track cars to the boundary and slow them down.

    e, heading and center are the lateral offsets, centerline headings
    and centerline points that ``track.project_many`` gives for the
    positions. Returns the corrected state (the input is modified in
    place) with wall_contact set for clamped cars.
    """
    outside = np.abs(e) > track.half_width
    if outside.any():
        clamped = center + np.sign(e)[:, None] * track.half_width * left_normal(heading)
        state.position = np.where(outside[:, None], clamped, state.position)
        state.v_x = np.where(outside, state.v_x * params.wall_speed_loss, state.v_x)
        state.v_y = np.where(outside, 0.0, state.v_y)
    state.wall_contact = outside.astype(np.float64)
    return state
