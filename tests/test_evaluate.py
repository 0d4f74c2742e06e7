"""Tests for the lap-evaluation protocol and report files."""

import json

import numpy as np
import pytest

from conftest import circle_track
from racelab.env import EpisodeConfig, RolloutError
from racelab.evaluate import (
    EvalReport,
    emit_report,
    evaluate,
    steering_change,
    track_id,
)
from racelab.expert import ExpertController, ExpertParams, generate_demos
from racelab.policies import build_policy_stack
from racelab.vehicle import VehicleParams

RNG = np.random.default_rng


@pytest.fixture(scope="module")
def world():
    track = circle_track(80.0)
    vparams = VehicleParams()
    ecfg = EpisodeConfig()
    demos = generate_demos(track, vparams, ecfg, ExpertParams(), 2, seed=0)
    return track, vparams, ecfg, demos


# ---------------------------------------------------------------------------
# Steering-change statistic

def test_steering_change_single_sequence_oracle():
    # |diffs| of [0, 0.1, -0.1, 0.2] -> [0.1, 0.2, 0.3]: mean 0.2
    mean, std = steering_change([[0.0, 0.1, -0.1, 0.2]])
    assert mean == pytest.approx(0.2)
    assert std == pytest.approx(np.std([0.1, 0.2, 0.3]))


def test_steering_change_pools_across_cars():
    # car A changes [0.1, 0.1], car B changes [0.4]; pooled mean 0.2
    mean, _ = steering_change([[0.0, 0.1, 0.2], [0.0, 0.4]])
    assert mean == pytest.approx((0.1 + 0.1 + 0.4) / 3)


def test_steering_change_constant_sequence_is_zero():
    mean, std = steering_change([[0.3, 0.3, 0.3, 0.3]])
    assert mean == 0.0 and std == 0.0


def test_steering_change_rejects_too_short():
    with pytest.raises(ValueError):
        steering_change([[0.1]])


# ---------------------------------------------------------------------------
# Lap protocol

def test_expert_scores_perfectly_and_repeatably(world):
    track, vp, ec, demos = world
    controller = ExpertController(track, vp, ExpertParams(), np.ones(6), np.ones(6))
    rep1 = evaluate(controller, track, vp, ec, demos, n_cars=6, max_steps=700, seed=3, tag=1)
    controller2 = ExpertController(track, vp, ExpertParams(), np.ones(6), np.ones(6))
    rep2 = evaluate(controller2, track, vp, ec, demos, n_cars=6, max_steps=700, seed=3, tag=1)
    assert rep1.success_rate == 1.0
    assert rep1.to_dict() == rep2.to_dict()  # same seed/tag: identical outcome
    rep3 = evaluate(ExpertController(track, vp, ExpertParams(), np.ones(6), np.ones(6)),
                    track, vp, ec, demos, n_cars=6, max_steps=700, seed=3, tag=2)
    assert rep3.to_dict() != rep1.to_dict()  # a new tag moves the grid


def test_unfinished_cars_have_no_lap_time(world):
    track, vp, ec, demos = world
    controller = ExpertController(track, vp, ExpertParams(), np.ones(4), np.ones(4))
    rep = evaluate(controller, track, vp, ec, demos, n_cars=4, max_steps=40, seed=0, tag=0)
    assert rep.success_rate == 0.0
    assert all(t is None for t in rep.lap_times)
    assert rep.lap_time_mean is None and rep.lap_time_std is None
    assert np.isfinite(rep.steering_change_mean)


def test_wall_contact_invalidates_the_lap(world):
    """A policy that leans on the wall crosses the line but scores zero."""
    track, vp, ec, demos = world

    steer = 0.9 * np.arctan(vp.wheelbase / 80.0) / vp.max_steer

    class WallRider:
        def reset(self):
            pass

        def params(self):
            return {}

        def eval_policy(self, env):
            def policy(obs):
                n = len(obs)
                # flat out with slight understeer: drifts to the barrier
                # and bounces along it while still making lap progress
                return np.tile(np.array([[steer, 1.0]], np.float32), (n, 1)), {}

            return policy

    rep = evaluate(WallRider(), track, vp, ec, demos, n_cars=4, max_steps=2000,
                   seed=0, tag=0)
    crossed = sum(rep.finished)
    assert crossed > 0, "wall rider never crossed: scenario lost its bite"
    assert sum(rep.clean) == 0
    assert rep.success_rate == 0.0
    assert rep.lap_time_mean is None  # no valid laps to time


def test_policy_parameters_must_not_change_during_eval(world):
    track, vp, ec, demos = world
    stack = build_policy_stack("ail", demos.normalizer, 50, RNG(0), hidden=(16,))

    class Mutator:
        def __init__(self, stack):
            self.residual = stack.residual
            self._stack = stack

        def reset(self):
            pass

        def params(self):
            return self._stack.params()

        def eval_policy(self, env):
            inner = self._stack.eval_policy(env)

            def policy(obs):
                next(iter(self.residual.params().values())).data += 1e-3
                return inner(obs)

            return policy

    with pytest.raises(AssertionError, match="mutated"):
        evaluate(Mutator(stack), track, vp, ec, demos, n_cars=2, max_steps=5,
                 seed=0, tag=0)


def test_a_non_finite_action_stops_evaluation_naming_step_and_car(world):
    track, vp, ec, demos = world

    class NanAtStep4:
        def reset(self):
            self.calls = 0

        def params(self):
            return {}

        def eval_policy(self, env):
            def policy(obs):
                act = np.zeros((len(obs), 2), np.float32)
                if self.calls == 4:
                    act[1, 0] = np.nan
                self.calls += 1
                return act, {}

            return policy

    with pytest.raises(RolloutError) as err:
        evaluate(NanAtStep4(), track, vp, ec, demos, n_cars=3, max_steps=10, seed=0, tag=0)
    assert str(err.value) == "non-finite action from policy at step 4 for car 1"


def test_track_id_is_content_addressed(world):
    track, _, _, _ = world
    assert track_id(track).startswith("circle-")
    other = circle_track(81.0)
    assert track_id(other) != track_id(track)


# ---------------------------------------------------------------------------
# Report files

def _tiny_report():
    return EvalReport(
        finished=[True, True, False],
        clean=[True, False, False],
        lap_times=[30.5, 31.0, None],
        success_rate=1.0 / 3.0,
        lap_time_mean=30.5,
        lap_time_std=0.0,
        steering_change_mean=0.0021,
        steering_change_std=0.001,
        n_cars=3,
        seed=0,
        tag=4,
        policy_id="abc",
        track_id="circle-xyz",
    )


def test_report_roundtrips_through_dict():
    rep = _tiny_report()
    assert EvalReport.from_dict(rep.to_dict()) == rep


def test_emitted_files_are_byte_stable(tmp_path):
    rep = _tiny_report()
    curve = [{"iteration": 1, "env_steps": 1000, "success_rate": 0.5,
              "lap_time_mean": None, "steering_change_mean": 0.002}]
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    paths1 = emit_report(rep, curve, d1, meta={"config_hash": "deadbeef"})
    paths2 = emit_report(rep, curve, d2, meta={"config_hash": "deadbeef"})
    for p1, p2 in zip(paths1, paths2):
        assert open(p1, "rb").read() == open(p2, "rb").read()


def test_emitted_csv_layout(tmp_path):
    rep = _tiny_report()
    cars_path, curve_path, summary_path = emit_report(rep, [], str(tmp_path))
    lines = open(cars_path).read().splitlines()
    assert lines[0] == "car,finished,clean,lap_time_s"
    assert lines[1] == "0,1,1,30.5"
    assert lines[2] == "1,1,0,31.0"
    assert lines[3] == "2,0,0,"
    curve_lines = open(curve_path).read().splitlines()
    assert curve_lines[0].startswith("iteration,env_steps,success_rate")


def test_summary_holds_report_curve_and_meta(tmp_path):
    rep = _tiny_report()
    curve = [{"iteration": 2, "env_steps": 4000, "success_rate": 1.0,
              "lap_time_mean": 30.0, "steering_change_mean": 0.001}]
    _, _, summary_path = emit_report(rep, curve, str(tmp_path),
                                     meta={"config_hash": "cafe", "seed": 7})
    with open(summary_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["report"]["success_rate"] == pytest.approx(1.0 / 3.0)
    assert doc["training_curve"] == curve
    assert doc["config_hash"] == "cafe"
    assert doc["seed"] == 7
