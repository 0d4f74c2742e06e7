"""Tests for the adversarial fine-tuning stack: classifier, replay, critics."""

import copy
import dataclasses
import os

import numpy as np
import pytest

from racelab import ail, autodiff as ad, nets
from racelab.ail import (
    ReplayBuffer,
    SACConfig,
    SACTrainer,
    TrainConfig,
    Trainer,
    ail_reward,
    disc_input,
    disc_update,
    load_bundle,
    make_discriminator,
    polyak_update,
    replay_sample_recompute,
    save_bundle,
)
from racelab.bet import BeT, BeTConfig
from racelab.env import EpisodeConfig
from racelab.evaluate import evaluate
from racelab.expert import ExpertParams, generate_demos
from racelab.optim import Adam, AdamConfig
from racelab.policies import GaussianPolicy, build_policy_stack, make_bc_net
from racelab.track import gen_track
from racelab.vehicle import VehicleParams

RNG = np.random.default_rng


def _zero_params(net):
    for p in net.params().values():
        p.data[...] = 0.0


def _linear_logit_net(w, b=0.0):
    """One-layer identity net computing w . x + b."""
    w = np.asarray(w, dtype=np.float32)
    net = nets.MLP([len(w), 1], ["identity"], RNG(0), name="disc")
    params = list(net.params().values())
    params[0].data[...] = w[:, None]
    params[1].data[...] = b
    return net


# ---------------------------------------------------------------------------
# Classifier oracles

def test_bce_at_maximal_confusion_is_two_log_two():
    """An all-zero classifier outputs D = 1/2: loss = 2 ln 2 exactly."""
    disc = make_discriminator(3, 2, RNG(0))
    _zero_params(disc)
    opt = Adam(disc.params(), AdamConfig(lr=0.0))
    x = RNG(1).standard_normal((8, 5)).astype(np.float32)
    stats = disc_update(disc, opt, x, x, RNG(2), gp_scale=0.0, entropy_scale=0.0)
    assert stats["bce"] == pytest.approx(2.0 * np.log(2.0), rel=1e-6)
    assert stats["d_expert"] == pytest.approx(0.5, abs=1e-7)
    assert stats["d_agent"] == pytest.approx(0.5, abs=1e-7)


def test_gradient_penalty_linear_logit_closed_form():
    """For logit = w.x the input-gradient norm is |w| at every point, so
    the penalty is (|w| - target)^2 independent of the interpolates."""
    disc = _linear_logit_net([3.0, 4.0, 0.0, 0.0, 0.0])  # |w| = 5
    opt = Adam(disc.params(), AdamConfig(lr=0.0))
    e = RNG(3).standard_normal((6, 5)).astype(np.float32)
    a = RNG(4).standard_normal((6, 5)).astype(np.float32)
    stats = disc_update(disc, opt, e, a, RNG(5), gp_scale=10.0, gp_target=1.0,
                        entropy_scale=0.0)
    assert stats["gp"] == pytest.approx(16.0, rel=1e-5)
    assert stats["loss"] == pytest.approx(stats["bce"] + 10.0 * 16.0, rel=1e-5)


def test_sixteen_point_toy_problem_separates():
    """Two well-separated clusters: the trained classifier tells them apart
    and the proxy reward prefers the demonstration cluster."""
    rng = RNG(6)
    expert_x = np.concatenate([
        1.0 + 0.05 * rng.standard_normal((8, 3)).astype(np.float32),
        0.5 * np.ones((8, 2), dtype=np.float32),
    ], axis=1)
    agent_x = np.concatenate([
        -1.0 + 0.05 * rng.standard_normal((8, 3)).astype(np.float32),
        -0.5 * np.ones((8, 2), dtype=np.float32),
    ], axis=1)
    disc = make_discriminator(3, 2, RNG(7))
    opt = Adam(disc.params(), AdamConfig(lr=1e-2))
    for _ in range(300):
        stats = disc_update(disc, opt, expert_x, agent_x, RNG(8),
                            gp_scale=1.0, entropy_scale=0.0)
    assert stats["d_expert"] > 0.9
    assert stats["d_agent"] < 0.1
    r_expert = ail_reward(disc, expert_x[:, :3], expert_x[:, 3:])
    r_agent = ail_reward(disc, agent_x[:, :3], agent_x[:, 3:])
    assert r_expert.min() > r_agent.max()


def test_reward_of_indifferent_classifier_is_log_two():
    disc = make_discriminator(3, 2, RNG(0))
    _zero_params(disc)
    obs = RNG(9).standard_normal((5, 3)).astype(np.float32)
    act = RNG(10).standard_normal((5, 2)).astype(np.float32)
    np.testing.assert_allclose(ail_reward(disc, obs, act), np.log(2.0), rtol=1e-6)


def test_reward_monotone_in_logit_and_nonnegative():
    disc = _linear_logit_net([1.0, 0.0, 0.0, 0.0, 0.0])
    obs = np.linspace(-30, 30, 13, dtype=np.float32)[:, None] * np.ones((1, 3), np.float32)
    obs[:, 1:] = 0.0
    act = np.zeros((13, 2), dtype=np.float32)
    r = ail_reward(disc, obs, act)
    assert np.all(np.diff(r) >= 0)
    assert np.all(r >= 0.0)
    assert np.all(np.isfinite(r))


def test_entropy_bonus_value_at_half():
    """At D = 1/2 the output entropy is ln 2 per row."""
    disc = make_discriminator(2, 2, RNG(0))
    _zero_params(disc)
    opt = Adam(disc.params(), AdamConfig(lr=0.0))
    x = RNG(11).standard_normal((4, 4)).astype(np.float32)
    stats = disc_update(disc, opt, x, x, RNG(12), gp_scale=0.0, entropy_scale=0.5)
    assert stats["entropy"] == pytest.approx(np.log(2.0), rel=1e-6)
    assert stats["loss"] == pytest.approx(stats["bce"] - 0.5 * np.log(2.0), rel=1e-6)


# ---------------------------------------------------------------------------
# Replay ring

def _row_batch(values, aug_dim=3):
    n = len(values)
    v = np.asarray(values, dtype=np.float32)
    return {
        # Distinct columns, so that reading the whitened obs from the wrong
        # columns of aug shows; column 0 carries the row's tag value.
        "aug": v[:, None] * np.arange(1, aug_dim + 1, dtype=np.float32),
        "res": np.tile(v[:, None], (1, 2)),
        "aug_next": np.tile(v[:, None], (1, aug_dim)),
        "a_env": np.tile(v[:, None], (1, 2)),
        "progress": v,
        "pen": np.zeros(n, np.float32),
    }


def test_replay_fifo_eviction_order():
    buf = ReplayBuffer(6, aug_dim=3, obs_dim=2)
    buf.push(_row_batch([0, 1, 2, 3]))
    assert len(buf) == 4
    buf.push(_row_batch([4, 5, 6, 7]))
    assert len(buf) == 6
    held = set()
    rng = RNG(13)
    for _ in range(50):
        held.update(buf.sample(6, rng)["progress"].tolist())
    assert held == {2.0, 3.0, 4.0, 5.0, 6.0, 7.0}


def test_replay_sample_shapes_and_column_consistency():
    buf = ReplayBuffer(10, aug_dim=3, obs_dim=2)
    buf.push(_row_batch([5, 6, 7]))
    rows = buf.sample(8, RNG(14))
    assert set(rows) == {"aug", "res", "aug_next", "a_env", "progress", "pen"}
    assert rows["aug"].shape == (8, 3)
    assert rows["progress"].shape == (8,)
    assert buf.state_arrays()["data"].shape == (3, 3 + 2 + 3 + 2 + 1 + 1)
    # every column of one row carries the same tag value by construction
    np.testing.assert_array_equal(rows["aug"][:, 0], rows["a_env"][:, 0])


def test_replay_state_roundtrip_bit_exact():
    buf = ReplayBuffer(8, aug_dim=3, obs_dim=2)
    buf.push(_row_batch([0, 1, 2, 3, 4, 5, 6, 7, 8, 9][:7]))
    clone = ReplayBuffer(8, aug_dim=3, obs_dim=2)
    clone.load_state(buf.state_arrays(), buf.state_meta())
    a = buf.sample(16, RNG(15))
    b = clone.sample(16, RNG(15))
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])
    with pytest.raises(ValueError):
        ReplayBuffer(9, aug_dim=3, obs_dim=2).load_state(buf.state_arrays(), buf.state_meta())


def test_replay_state_is_a_view_of_the_filled_rows():
    buf = ReplayBuffer(8, aug_dim=3, obs_dim=2)
    buf.push(_row_batch([0, 1, 2]))
    data = buf.state_arrays()["data"]
    assert data.shape[0] == 3 and np.shares_memory(data, buf._data)


def test_replay_rejects_empty_sample():
    with pytest.raises(ValueError):
        ReplayBuffer(4, aug_dim=3, obs_dim=2).sample(2, RNG(0))


def test_recomputed_rewards_track_current_classifier():
    """Stored transitions get fresh rewards after every classifier change."""
    buf = ReplayBuffer(16, aug_dim=3, obs_dim=2)
    buf.push(_row_batch(np.linspace(-2, 2, 9)))
    disc = make_discriminator(2, 2, RNG(16))
    rows1 = replay_sample_recompute(buf, disc, 12, RNG(17))
    np.testing.assert_array_equal(
        rows1["reward"], ail_reward(disc, rows1["aug"][:, :2], rows1["a_env"]))
    np.testing.assert_array_equal(buf.obs_of(rows1), rows1["aug"][:, :2])
    for p in disc.params().values():
        p.data += 0.3 * RNG(18).standard_normal(p.data.shape).astype(np.float32)
    rows2 = replay_sample_recompute(buf, disc, 12, RNG(17))
    np.testing.assert_array_equal(rows1["aug"], rows2["aug"])
    assert not np.array_equal(rows1["reward"], rows2["reward"])
    np.testing.assert_array_equal(
        rows2["reward"], ail_reward(disc, rows2["aug"][:, :2], rows2["a_env"]))


# ---------------------------------------------------------------------------
# Actor-critic oracles

def _const_net(net, value):
    _zero_params(net)
    list(net.params().values())[-1].data[...] = value  # final bias


def _sac(aug_dim=4, temp=0.0, gamma=0.5, tau=0.002):
    pol = GaussianPolicy(aug_dim, 2, (8,), 1.0, RNG(19))
    cfg = SACConfig(hidden=(8,), lr=1e-3, batch=16, gradient_steps=1,
                    tau=tau, gamma=gamma, entropy_temp=max(temp, 1e-12))
    sac = SACTrainer(pol, aug_dim, cfg, RNG(20))
    if temp == 0.0:
        sac.log_temp.data[0] = -np.inf  # exactly zero temperature
    return sac


def _batch(aug_dim=4, n=16, r=None, seed=21):
    rng = RNG(seed)
    r = rng.standard_normal(n).astype(np.float32) if r is None else r
    return {
        "aug": rng.standard_normal((n, aug_dim)).astype(np.float32),
        "res": rng.standard_normal((n, 2)).astype(np.float32),
        "aug_next": rng.standard_normal((n, aug_dim)).astype(np.float32),
        "reward": r,
    }


def test_terminal_target_equals_reward():
    """With gamma = 0 the bootstrap vanishes: a zeroed critic's first loss
    is exactly mean(reward^2), whatever the target critics read."""
    sac = _sac(gamma=0.0)
    for net in (sac.q1, sac.q2):
        _zero_params(net)
    for net in (sac.q1_t, sac.q2_t):
        _const_net(net, 2.5)
    batch = _batch()
    stats = sac.update(batch, RNG(22))
    want = float(np.mean(batch["reward"].astype(np.float64) ** 2))
    assert stats["q1_loss"] == pytest.approx(want, rel=1e-5)
    assert stats["q2_loss"] == pytest.approx(want, rel=1e-5)


def test_bootstrap_target_adds_discounted_successor_value():
    """With zero temperature and constant-c target critics the regression
    target is reward + gamma * c: every transition bootstraps."""
    c = 2.5
    sac = _sac(temp=0.0, gamma=0.5)
    for net in (sac.q1, sac.q2):
        _zero_params(net)
    for net in (sac.q1_t, sac.q2_t):
        _const_net(net, c)
    batch = _batch()
    stats = sac.update(batch, RNG(23))
    y = batch["reward"].astype(np.float64) + 0.5 * c
    want = float(np.mean(y**2))
    assert stats["q1_loss"] == pytest.approx(want, rel=1e-5)


def test_polyak_update_is_exact_convex_blend():
    sac = _sac(tau=0.25)
    before = [p.data.copy() for p in sac.q1_t.params().values()]
    batch = _batch()
    sac.update(batch, RNG(24))
    online = list(sac.q1.params().values())
    targets = list(sac.q1_t.params().values())
    for old, p_o, p_t in zip(before, online, targets):
        want = old * np.float32(1.0 - 0.25)
        want += np.float32(0.25) * p_o.data
        np.testing.assert_allclose(p_t.data, want, rtol=1e-6, atol=1e-7)


def test_polyak_identity_at_tau_one():
    pol = GaussianPolicy(2, 2, (8,), 1.0, RNG(25))
    sac = SACTrainer(pol, 2, SACConfig(hidden=(8,)), RNG(26))
    for p in sac.q1.params().values():
        p.data += 1.0
    polyak_update(sac.q1_t.params(), sac.q1.params(), 1.0)
    for p_t, p in zip(sac.q1_t.params().values(), sac.q1.params().values()):
        np.testing.assert_array_equal(p_t.data, p.data)


def test_target_nets_start_as_copies():
    sac = _sac()
    for t, o in ((sac.q1_t, sac.q1), (sac.q2_t, sac.q2)):
        for p_t, p in zip(t.params().values(), o.params().values()):
            np.testing.assert_array_equal(p_t.data, p.data)


def test_actor_step_reduces_actor_loss_on_fixed_batch():
    """Repeating updates on one batch drives the actor objective down."""
    sac = _sac(temp=0.01, gamma=0.0)
    batch = _batch()
    losses = [sac.update(batch, RNG(27))["actor_loss"] for _ in range(60)]
    assert losses[-1] < losses[0]


def test_temperature_tuning_moves_toward_target_entropy():
    pol = GaussianPolicy(2, 2, (8,), 1.0, RNG(28))
    cfg = SACConfig(hidden=(8,), auto_entropy=True, entropy_temp=0.1,
                    entropy_lr=5e-2, gradient_steps=1, batch=8)
    sac = SACTrainer(pol, 2, cfg, RNG(29))
    log_temp0 = sac.log_temp.data[0]
    stats = sac.update(_batch(aug_dim=2, n=8, seed=30), RNG(31))
    # Adam's first step moves by the learning rate, raising the temperature
    # when the entropy -logp is below its target and lowering it otherwise.
    step = sac.log_temp.data[0] - log_temp0
    direction = np.sign(stats["mean_logp"] + sac.target_entropy)
    assert step == pytest.approx(direction * cfg.entropy_lr, rel=1e-6)
    for i in range(1, 20):
        sac.update(_batch(aug_dim=2, n=8, seed=30 + i), RNG(31 + i))
    state = sac.opt_temp.state_dict()
    assert state["step_count"] == 20
    assert state["m"]["log_temp"].dtype == np.float64
    assert sac.log_temp.data.shape == (1,)


def test_fixed_temperature_takes_no_optimizer_step():
    sac = _sac(temp=0.1)
    sac.update(_batch(), RNG(33))
    assert sac.opt_temp.step_count == 0
    assert sac.temperature == pytest.approx(0.1, rel=1e-12)


# ---------------------------------------------------------------------------
# Training loop and checkpoint bundle

@pytest.fixture(scope="module")
def tiny_world():
    track = gen_track("circle", radius=60.0)
    vparams = VehicleParams()
    ecfg = EpisodeConfig()
    demos = generate_demos(track, vparams, ecfg, ExpertParams(), 2, seed=0)
    return track, vparams, ecfg, demos


def _tiny_cfg():
    return TrainConfig(
        n_cars=3, rollout_steps=40, iterations=2,
        replay_capacity=2000, disc_updates=3, demo_batch=64,
        policy_hidden=(32, 32),
        sac=SACConfig(hidden=(32, 32), batch=64, gradient_steps=5),
        eval_every=0, eval_cars=3, eval_max_steps=40,
    )


def _tiny_trainer(tiny_world, mode="ail", alpha=None, seed=0):
    track, vparams, ecfg, demos = tiny_world
    stack = build_policy_stack(mode, demos.normalizer, demos.obs_dim,
                               RNG(40), alpha=alpha, hidden=(32, 32))
    return Trainer(stack, track, vparams, ecfg, demos, _tiny_cfg(), seed)


def test_iteration_fills_replay_and_reports_metrics(tiny_world):
    tr = _tiny_trainer(tiny_world)
    m = tr.iteration(0)
    assert len(tr.replay) == 3 * 40
    assert tr.env_steps == 120
    assert {"iteration", "env_steps", "rollout_progress", "disc", "sac"} <= set(m)
    assert 0.0 < m["disc"]["d_expert"] < 1.0


def test_offline_mode_rejected_by_trainer(tiny_world):
    track, vparams, ecfg, demos = tiny_world
    stack = build_policy_stack("bc", demos.normalizer, demos.obs_dim, RNG(41),
                               bc=ail.make_discriminator(demos.obs_dim, 1, RNG(0)))
    with pytest.raises(ValueError):
        Trainer(stack, track, vparams, ecfg, demos, _tiny_cfg(), 0)


@pytest.mark.parametrize("mode", ["betail", "bcail", "ail"])
def test_load_stack_acts_bitwise_like_the_live_stack(tiny_world, tmp_path, mode):
    """A bundle's stack, rebuilt through build_policy_stack, takes the live
    stack's eval and train actions bit for bit and keeps its policy_id."""
    track, vparams, ecfg, demos = tiny_world
    bet = BeT(BeTConfig(obs_dim=demos.obs_dim, embed_dim=8, n_layers=1, n_heads=2,
                        context=4, eval_context=2), RNG(42))
    bc = make_bc_net(demos.obs_dim, 2, (8,), RNG(43))
    live = build_policy_stack(mode, demos.normalizer, demos.obs_dim, RNG(40), alpha=0.1,
                              bet=bet, bc=bc, hidden=(32, 32))
    for p in live.residual.params().values():
        p.data += 0.1 * RNG(44).standard_normal(p.data.shape).astype(np.float32)
    path = str(tmp_path / "bundle")
    save_bundle(path, Trainer(live, track, vparams, ecfg, demos, _tiny_cfg(), 0))
    loaded = ail.load_stack(path, ail.read_manifest(path))
    assert loaded.params().keys() == live.params().keys()

    obs = demos.transitions()[0]
    for stack in (live, loaded):
        stack.reset()
    for t in range(3):
        rows = obs[5 * t: 5 * t + 5]
        (a_live, _), (a_loaded, _) = (s.eval_policy()(rows) for s in (live, loaded))
        np.testing.assert_array_equal(a_live, a_loaded)
        (a_live, x_live), (a_loaded, x_loaded) = (s.train_policy(RNG(t))(rows)
                                                  for s in (live, loaded))
        np.testing.assert_array_equal(a_live, a_loaded)
        for key in ("res", "aug"):
            np.testing.assert_array_equal(x_live[key], x_loaded[key])
    reports = [evaluate(s, track, vparams, ecfg, demos, n_cars=2, max_steps=5).to_dict()
               for s in (live, loaded)]
    assert reports[0] == reports[1]


def test_bundle_roundtrip_bit_exact(tiny_world, tmp_path):
    track, vparams, ecfg, demos = tiny_world
    tr = _tiny_trainer(tiny_world, seed=3)
    tr.iteration(0)
    tr.iteration(1)
    path = str(tmp_path / "bundle")
    save_bundle(path, tr)
    tr2, manifest = load_bundle(path, track, vparams, ecfg, demos)
    assert manifest["iteration"] == 2

    def named(t):
        out = dict(t.stack.residual.params())
        out.update({f"q1.{k}": v for k, v in t.sac.q1.params().items()})
        out.update({f"q2.{k}": v for k, v in t.sac.q2.params().items()})
        out.update({f"q1t.{k}": v for k, v in t.sac.q1_t.params().items()})
        out.update({f"q2t.{k}": v for k, v in t.sac.q2_t.params().items()})
        out.update({f"disc.{k}": v for k, v in t.disc.params().items()})
        return out

    a, b = named(tr), named(tr2)
    assert a.keys() == b.keys()
    for k in a:
        np.testing.assert_array_equal(a[k].data, b[k].data, err_msg=k)
    np.testing.assert_array_equal(tr.replay._data[: len(tr.replay)],
                                  tr2.replay._data[: len(tr2.replay)])
    assert tr2.env_steps == tr.env_steps
    assert tr2.sac.temperature == tr.sac.temperature


def test_resumed_training_is_bit_identical(tiny_world, tmp_path):
    """Interrupt-and-resume reproduces straight-through training exactly."""
    track, vparams, ecfg, demos = tiny_world
    straight = _tiny_trainer(tiny_world, seed=5)
    straight.iteration(0)
    m_straight = straight.iteration(1)

    frag = _tiny_trainer(tiny_world, seed=5)
    frag.iteration(0)
    path = str(tmp_path / "bundle")
    save_bundle(path, frag)
    resumed, _ = load_bundle(path, track, vparams, ecfg, demos)
    m_resumed = resumed.iteration(1)

    assert m_straight["rollout_progress"] == m_resumed["rollout_progress"]
    assert m_straight["disc"] == m_resumed["disc"]
    assert m_straight["sac"] == m_resumed["sac"]
    for k, p in straight.stack.residual.params().items():
        np.testing.assert_array_equal(p.data, resumed.stack.residual.params()[k].data)


def test_tuned_temperature_resumes_bit_identically(tiny_world, tmp_path):
    """The temperature's Adam moments and step count travel in optim.ckpt."""
    track, vparams, ecfg, demos = tiny_world
    base = _tiny_cfg()
    cfg = dataclasses.replace(base, sac=dataclasses.replace(base.sac, auto_entropy=True))

    def trainer():
        stack = build_policy_stack("ail", demos.normalizer, demos.obs_dim, RNG(40),
                                   hidden=(32, 32))
        return Trainer(stack, track, vparams, ecfg, demos, cfg, 7)

    straight = trainer()
    straight.iteration(0)
    straight.iteration(1)
    frag = trainer()
    frag.iteration(0)
    path = str(tmp_path / "bundle")
    save_bundle(path, frag)
    resumed, _ = load_bundle(path, track, vparams, ecfg, demos)
    assert resumed.sac.opt_temp.step_count == 5
    resumed.iteration(1)
    assert straight.sac.opt_temp.step_count == resumed.sac.opt_temp.step_count == 10
    assert straight.sac.log_temp.data[0] == resumed.sac.log_temp.data[0]
    assert straight.sac.log_temp.data[0] != np.log(cfg.sac.entropy_temp)


def _trainer_state(trainer):
    """Everything a bundle stores of a trainer, as comparable values."""
    sac = trainer.sac
    nets_ = {"res": trainer.stack.residual, "q1": sac.q1, "q2": sac.q2, "q1t": sac.q1_t,
             "q2t": sac.q2_t, "disc": trainer.disc}
    state = {f"{net}.{name}": p.data.tobytes() for net, n in nets_.items()
             for name, p in n.params().items()}
    for group, opt in {"pi": sac.opt_pi, "q1": sac.opt_q1, "q2": sac.opt_q2,
                       "temp": sac.opt_temp, "disc": trainer.opt_disc}.items():
        opt_state = opt.state_dict()
        state[f"{group}.steps"] = opt_state["step_count"]
        for moment in ("m", "v"):
            state.update({f"{group}.{moment}.{k}": a.tobytes()
                          for k, a in opt_state[moment].items()})
    state.update({f"replay.{k}": a.tobytes() for k, a in trainer.replay.state_arrays().items()})
    state.update(replay_meta=trainer.replay.state_meta(), env_steps=trainer.env_steps,
                 iteration=trainer.iteration_count, curve=trainer.curve,
                 last_eval=trainer.last_eval, log_temp=float(sac.log_temp.data[0]))
    return state


class _StopAfter:
    """A function that raises OSError once it has run count times."""

    def __init__(self, real, count=None):
        self.real, self.count, self.calls = real, count, 0

    def __call__(self, *args, **kwargs):
        if self.calls == self.count:
            raise OSError(f"injected failure after {self.calls} calls")
        self.calls += 1
        return self.real(*args, **kwargs)


def test_a_save_stopped_at_any_step_leaves_the_previous_bundle(tiny_world, tmp_path,
                                                               monkeypatch):
    track, vparams, ecfg, demos = tiny_world
    old, new = _tiny_trainer(tiny_world, seed=3), _tiny_trainer(tiny_world, seed=3)
    old.iteration(0)
    new.iteration(0)
    new.iteration(1)
    path = str(tmp_path / "bundle")
    files = _StopAfter(nets.save_params)
    monkeypatch.setattr(nets, "save_params", files)
    save_bundle(path, old)
    monkeypatch.undo()
    assert files.calls == 8  # residual, four critics, disc, optim, replay
    previous = _trainer_state(old)

    def loaded():
        return _trainer_state(load_bundle(path, track, vparams, ecfg, demos)[0])

    # Stop after each file, and at each of the two moves into place.
    stops = [(nets, "save_params", k) for k in range(files.calls)]
    stops += [(os, "replace", k) for k in range(2)]
    for module, name, k in stops:
        save_bundle(path, old)
        monkeypatch.setattr(module, name, _StopAfter(getattr(module, name), k))
        with pytest.raises(OSError, match="injected"):
            save_bundle(path, new)
        monkeypatch.undo()
        assert loaded() == previous, (name, k)
        save_bundle(path, new)
        assert loaded() == _trainer_state(new), (name, k)
        assert os.listdir(tmp_path) == ["bundle"]


def test_load_bundle_rejects_foreign_directory(tiny_world, tmp_path):
    track, vparams, ecfg, demos = tiny_world
    bogus = tmp_path / "not_bundle"
    bogus.mkdir()
    (bogus / "manifest.json").write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_bundle(str(bogus), track, vparams, ecfg, demos)


def test_env_reward_mode_skips_classifier(tiny_world):
    tr = _tiny_trainer(tiny_world, mode="sac")
    assert tr.disc is None
    m = tr.iteration(0)
    assert "disc" not in m
    assert "sac" in m
