"""Tests for the scripted demonstrator and demonstration files."""

import numpy as np
import pytest

from conftest import circle_track
from racelab import expert
from racelab.env import EpisodeConfig, RaceEnv
from racelab.expert import (
    DemoSet,
    ExpertController,
    ExpertParams,
    SpeedLookup,
    generate_demos,
)
from racelab.track import gen_track
from racelab.vehicle import VehicleParams

RNG = np.random.default_rng


@pytest.fixture(scope="module")
def circle_world():
    track = circle_track(80.0)
    vparams = VehicleParams()
    ecfg = EpisodeConfig()
    demos = generate_demos(track, vparams, ecfg, ExpertParams(), 3, seed=0)
    return track, vparams, ecfg, demos


# ---------------------------------------------------------------------------
# Controller oracles

def test_controller_steers_toward_the_corner():
    """On a counter-clockwise circle the pursuit target is to the left,
    so the steering command is positive from the first step."""
    track = circle_track(80.0)
    vp, ec = VehicleParams(), EpisodeConfig()
    env = RaceEnv(track, vp, ec)
    s0 = np.array([0.0])
    pos, heading, _ = track.frames(s0)
    env.reset(pos, heading, np.array([15.0]))
    ctrl = ExpertController(track, vp, ExpertParams(), np.ones(1), np.ones(1))
    act = ctrl.act(env.state, env.s)
    assert act.shape == (1, 2)
    assert act[0, 0] > 0.0


def test_target_speed_respects_cornering_and_cap():
    """Tight circle: v = sqrt(corner_accel * R) scaled; wide circle: the
    configured maximum."""
    xp = ExpertParams()
    vp, ec = VehicleParams(), EpisodeConfig()
    tight = circle_track(60.0)
    ctrl = ExpertController(tight, vp, xp, np.ones(1), np.ones(1))
    v_tight = ctrl.target_speed(np.array([0.0]), np.array([20.0]))[0]
    corner_v = np.sqrt(xp.corner_accel * 60.0) * xp.speed_scale
    assert v_tight == pytest.approx(corner_v, rel=0.05)

    wide = circle_track(2000.0)
    ctrl = ExpertController(wide, vp, xp, np.ones(1), np.ones(1))
    v_wide = ctrl.target_speed(np.array([0.0]), np.array([20.0]))[0]
    assert v_wide == pytest.approx(xp.v_max * xp.speed_scale, rel=0.02)


def test_controller_commands_stay_in_range(circle_world):
    track, vp, ec, demos = circle_world
    env = RaceEnv(track, vp, ec)
    s0 = np.linspace(0, track.length, 5, endpoint=False)
    pos, heading, _ = track.frames(s0)
    env.reset(pos, heading, np.full(5, 20.0))
    ctrl = ExpertController(track, vp, ExpertParams(), np.ones(5), np.ones(5))
    for _ in range(30):
        act = ctrl.act(env.state, env.s)
        clipped = np.clip(act, -1.0, 1.0).astype(np.float32)
        env.step(clipped)
        assert np.all(np.abs(act) <= 1.0 + 1e-9)


# ---------------------------------------------------------------------------
# Demonstration generation

def test_demos_complete_full_laps(circle_world):
    track, vp, ec, demos = circle_world
    assert len(demos.laps) == 3
    for lap in demos.laps:
        assert lap["obs"].shape[0] == lap["actions"].shape[0] + 1
        assert lap["obs"].shape[1] == 50
        assert np.all(np.abs(lap["actions"]) <= 1.0)
        # the recorded arc distance spans one full lap
        ds = np.diff(lap["s"].astype(np.float64))
        ds = np.mod(ds + track.length / 2, track.length) - track.length / 2
        assert ds.sum() == pytest.approx(track.length, rel=0.02)


def test_a_lap_unfinished_within_the_step_limit_is_an_error(circle_world, monkeypatch):
    track, vp, ec, _ = circle_world
    monkeypatch.setattr(expert, "DEMO_MAX_STEPS", 5)
    with pytest.raises(RuntimeError, match="^demonstration lap 0 did not finish within 5 steps$"):
        generate_demos(track, vp, ec, ExpertParams(), 2, seed=0)


def test_demo_normalizer_is_sane(circle_world):
    _, _, _, demos = circle_world
    assert np.all(np.isfinite(demos.normalizer.mean))
    assert np.all(demos.normalizer.std > 0)
    obs, act = demos.transitions()
    z = demos.normalizer.transform(obs)
    assert abs(float(z.mean())) < 0.1


def test_demos_are_reproducible_and_seed_sensitive(circle_world, tmp_path):
    track, vp, ec, demos = circle_world
    again = generate_demos(track, vp, ec, ExpertParams(), 3, seed=0)
    for lap_a, lap_b in zip(demos.laps, again.laps):
        for key in lap_a:
            np.testing.assert_array_equal(lap_a[key], lap_b[key])
    other = generate_demos(track, vp, ec, ExpertParams(), 3, seed=1)
    assert not np.array_equal(other.laps[0]["actions"], demos.laps[0]["actions"])


def replay_lap(demoset, lap_idx, track, vparams, ecfg):
    """Open-loop replay of a stored lap through the environment.

    Returns the max absolute state deviation across the lap; the float32
    boundary quantization makes this exactly zero for a faithful
    simulator.
    """
    lap = demoset.laps[lap_idx]
    env = RaceEnv(track, vparams, ecfg)
    env.reset(lap["position"][0][None, :], lap["yaw"][:1], lap["v_x"][:1])
    worst = 0.0
    for t in range(lap["actions"].shape[0]):
        env.step(lap["actions"][t][None, :])
        for key, field in zip(expert.LAP_STATE, expert._lap_state(env)):
            worst = max(worst, float(np.max(np.abs(field - lap[key][t + 1]))))
    return worst


def test_demo_lap_replays_exactly(circle_world):
    track, vp, ec, demos = circle_world
    assert replay_lap(demos, 0, track, vp, ec) == 0.0


def test_demo_file_roundtrip_bit_exact(circle_world, tmp_path):
    track, vp, ec, demos = circle_world
    path = str(tmp_path / "demos.ckpt")
    demos.save(path)
    back = DemoSet.load(path)
    assert len(back.laps) == len(demos.laps)
    for lap_a, lap_b in zip(demos.laps, back.laps):
        for key in lap_a:
            np.testing.assert_array_equal(lap_a[key], lap_b[key])
    np.testing.assert_array_equal(back.normalizer.mean, demos.normalizer.mean)
    assert back.meta["track"]["preset"] == "circle"


def test_demo_file_rejects_foreign_format(tmp_path):
    from racelab.nets import save_params

    path = str(tmp_path / "bogus.ckpt")
    save_params(path, {"a": np.zeros(2, np.float32)}, {"format": "other"})
    with pytest.raises(ValueError):
        DemoSet.load(path)


def test_merge_pools_laps_and_refits_whitener(circle_world):
    track, vp, ec, demos = circle_world
    course = gen_track("random", seed=5, radius=110.0)
    other = generate_demos(course, vp, ec, ExpertParams(), 2, seed=5)
    merged = DemoSet.merge([demos, other])
    assert len(merged.laps) == 5
    assert "merged" in merged.meta
    obs = np.concatenate([lap["obs"] for lap in merged.laps], axis=0)
    from racelab.env import Normalizer

    want = Normalizer.fit(obs)
    np.testing.assert_array_equal(merged.normalizer.mean, want.mean)
    np.testing.assert_array_equal(merged.normalizer.std, want.std)


def test_merge_of_one_set_keeps_its_whitener_bitwise(circle_world):
    # One whitening rule: a merged set is whitened as a generated one is.
    _, _, _, demos = circle_world
    merged = DemoSet.merge([demos])
    np.testing.assert_array_equal(merged.normalizer.mean, demos.normalizer.mean)
    np.testing.assert_array_equal(merged.normalizer.std, demos.normalizer.std)


# ---------------------------------------------------------------------------
# Windows and speed lookup

def test_window_index_counts_all_positions(circle_world):
    _, _, _, demos = circle_world
    k = 5
    pairs = demos.window_index(k)
    want = sum(lap["actions"].shape[0] - k + 1 for lap in demos.laps)
    assert len(pairs) == want


def test_sampled_windows_are_contiguous_slices(circle_world):
    _, _, _, demos = circle_world
    k = 4
    pairs = demos.window_index(k)
    obs, act = demos.sample_windows(pairs, RNG(7), 16, k)
    assert obs.shape == (16, 4, 50)
    assert act.shape == (16, 4, 2)
    # re-locate one sampled window in its source lap
    row_obs, row_act = obs[0], act[0]
    found = False
    for lap in demos.laps:
        t = lap["actions"].shape[0]
        for start in range(t - k + 1):
            if np.array_equal(lap["obs"][start : start + k], row_obs):
                found = np.array_equal(lap["actions"][start : start + k], row_act)
                break
        if found:
            break
    assert found


def test_speed_lookup_nearest_with_wraparound():
    lut = SpeedLookup(np.array([0.0, 10.0, 20.0]), np.array([1.0, 2.0, 3.0]), 30.0)
    np.testing.assert_array_equal(lut(np.array([29.0])), [1.0])  # wraps to s=0
    np.testing.assert_array_equal(lut(np.array([14.0])), [2.0])
    np.testing.assert_array_equal(lut(np.array([16.0])), [3.0])
    np.testing.assert_array_equal(lut(np.array([44.0])), [2.0])  # modulo the lap


def test_demo_speed_lookup_tracks_recording(circle_world):
    track, _, _, demos = circle_world
    lut = demos.speed_lookup(track.length)
    s_demo = demos.laps[0]["s"][10]
    v_demo = demos.laps[0]["v_x"][10]
    assert lut(np.array([s_demo]))[0] == pytest.approx(v_demo, rel=0.2)


# ---------------------------------------------------------------------------
# The evaluator's protocol

def test_controller_drives_clean_laps(circle_world):
    from racelab.evaluate import evaluate

    track, vp, ec, demos = circle_world
    controller = ExpertController(track, vp, ExpertParams(), np.ones(4), np.ones(4))
    report = evaluate(controller, track, vp, ec, demos, n_cars=4, max_steps=600,
                      seed=0, tag=0)
    assert report.success_rate == 1.0
    assert all(report.clean)
    assert report.steering_change_mean < 0.02
