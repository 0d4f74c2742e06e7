"""Tests for the adversarial fine-tuning stack: classifier, replay, critics."""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import circle_track
from racelab import ail, nets
from racelab import autodiff as ad
from racelab.ail import (
    ReplayBuffer,
    SACConfig,
    SACTrainer,
    TrainConfig,
    Trainer,
    ail_reward,
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
from racelab.optim import Adam
from racelab.policies import GaussianPolicy, build_policy_stack, make_bc_net
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
    opt = Adam(disc.params(), 0.0)
    x = RNG(1).standard_normal((8, 5)).astype(np.float32)
    stats = disc_update(disc, opt, x, x, RNG(2), gp_scale=0.0, gp_target=1.0,
                        entropy_scale=0.0)
    assert stats["bce"] == pytest.approx(2.0 * np.log(2.0), rel=1e-6)
    assert stats["d_expert"] == pytest.approx(0.5, abs=1e-7)
    assert stats["d_agent"] == pytest.approx(0.5, abs=1e-7)


def test_gradient_penalty_linear_logit_closed_form():
    """For logit = w.x the input-gradient norm is |w| at every point, so
    the penalty is (|w| - target)^2 independent of the interpolates."""
    disc = _linear_logit_net([3.0, 4.0, 0.0, 0.0, 0.0])  # |w| = 5
    opt = Adam(disc.params(), 0.0)
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
    opt = Adam(disc.params(), 1e-2)
    for _ in range(300):
        stats = disc_update(disc, opt, expert_x, agent_x, RNG(8),
                            gp_scale=1.0, gp_target=1.0, entropy_scale=0.0)
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
    opt = Adam(disc.params(), 0.0)
    x = RNG(11).standard_normal((4, 4)).astype(np.float32)
    stats = disc_update(disc, opt, x, x, RNG(12), gp_scale=0.0, gp_target=1.0,
                        entropy_scale=0.5)
    assert stats["entropy"] == pytest.approx(np.log(2.0), rel=1e-6)
    assert stats["loss"] == pytest.approx(stats["bce"] - 0.5 * np.log(2.0), rel=1e-6)


# ---------------------------------------------------------------------------
# Replay ring

def _row_batch(values, aug_dim=3):
    v = np.asarray(values, dtype=np.float32)
    return {
        # Distinct columns, so that reading the whitened obs from the wrong
        # columns of aug shows; column 0 carries the row's tag value.
        "aug": v[:, None] * np.arange(1, aug_dim + 1, dtype=np.float32),
        "res": np.tile(v[:, None], (1, 2)),
        "aug_next": np.tile(v[:, None], (1, aug_dim)),
        "a_env": np.tile(v[:, None], (1, 2)),
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
        held.update(buf.sample(6, rng)["res"][:, 0].tolist())
    assert held == {2.0, 3.0, 4.0, 5.0, 6.0, 7.0}


def test_replay_sample_shapes_and_column_consistency():
    buf = ReplayBuffer(10, aug_dim=3, obs_dim=2)
    buf.push(_row_batch([5, 6, 7]))
    rows = buf.sample(8, RNG(14))
    assert set(rows) == {"aug", "res", "aug_next", "a_env"}
    assert rows["aug"].shape == (8, 3)
    assert rows["a_env"].shape == (8, 2)
    assert buf.state_arrays()["data"].shape == (3, 3 + 2 + 3 + 2)
    # every column of one row carries the same tag value by construction
    np.testing.assert_array_equal(rows["aug"][:, 0], rows["a_env"][:, 0])


def _save_replay(buf, path):
    """A replay checkpoint of buf, as save_bundle writes it."""
    nets.save_params(str(path), buf.state_arrays(), {"kind": "replay", **buf.state_meta()})
    return str(path)


def test_replay_state_roundtrip_bit_exact(tmp_path):
    buf = ReplayBuffer(8, aug_dim=3, obs_dim=2)
    buf.push(_row_batch([0, 1, 2, 3, 4, 5, 6, 7, 8, 9][:7]))
    path = _save_replay(buf, tmp_path / "replay.ckpt")
    clone = ReplayBuffer(8, aug_dim=3, obs_dim=2)
    clone.load_state(path)
    assert clone.state_meta() == buf.state_meta()
    a = buf.sample(16, RNG(15))
    b = clone.sample(16, RNG(15))
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])
    with pytest.raises(ValueError):
        ReplayBuffer(9, aug_dim=3, obs_dim=2).load_state(path)


def _fancy_index_push(data, head, n_held, rows):
    """The ring rule that push keeps: row i of the batch goes to
    (head + i) % capacity, by one fancy-index assignment, so the last of
    several rows sent to one slot wins."""
    capacity = len(data)
    data[(head + np.arange(len(rows))) % capacity] = rows
    return (head + len(rows)) % capacity, min(n_held + len(rows), capacity)


@given(capacity=st.integers(1, 12), pushes=st.lists(st.integers(0, 30), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_push_writes_the_rows_the_fancy_index_rule_writes(capacity, pushes):
    buf = ReplayBuffer(capacity, aug_dim=3, obs_dim=2)
    want, head, n_held = np.zeros_like(buf._data), 0, 0
    tag = 0
    for n in pushes:
        batch = _row_batch(np.arange(tag, tag + n) + 1.0)
        tag += n
        rows = np.concatenate([batch[name] for name in ("aug", "res", "aug_next", "a_env")],
                              axis=1)
        head, n_held = _fancy_index_push(want, head, n_held, rows)
        buf.push(batch)
        np.testing.assert_array_equal(buf._data, want)
        assert buf.state_meta() == {"head": head, "n": n_held, "capacity": capacity}
        assert len(buf) == n_held


def test_filling_the_ring_from_a_replay_file_holds_no_copy(tmp_path):
    rows = 1 << 14  # 10 columns of float32: 640 KiB
    buf = ReplayBuffer(rows, aug_dim=3, obs_dim=2)
    buf.push(_row_batch(np.arange(rows)))
    path = _save_replay(buf, tmp_path / "replay.ckpt")
    clone = ReplayBuffer(rows, aug_dim=3, obs_dim=2)
    tracemalloc.start()
    try:
        clone.load_state(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < buf._data.nbytes // 8
    np.testing.assert_array_equal(clone._data, buf._data)


@pytest.mark.parametrize("capacity, aug_dim, meta", [
    (9, 3, {}),  # another capacity
    (8, 4, {}),  # another row width
    (8, 3, {"n": 6}),  # a row count that is not the stored one
    (8, 3, {"head": 8}),  # a head outside the ring
])
def test_a_replay_that_does_not_fit_the_ring_is_refused(tmp_path, capacity, aug_dim, meta):
    buf = ReplayBuffer(8, aug_dim=3, obs_dim=2)
    buf.push(_row_batch([0, 1, 2, 3, 4]))
    path = tmp_path / "replay.ckpt"
    nets.save_params(str(path), buf.state_arrays(),
                     {"kind": "replay", **buf.state_meta(), **meta})
    ring = ReplayBuffer(capacity, aug_dim=aug_dim, obs_dim=2)
    with pytest.raises(nets.CheckpointError) as info:
        ring.load_state(str(path))
    assert str(info.value) == (f"{path} holds a replay of shape (5, 10) in a ring of 8 rows, "
                               f"which does not fit this run's ring of shape {ring._data.shape}")
    assert len(ring) == 0 and not ring._data.any()


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
                    tau=tau, gamma=gamma, entropy_temp=temp)
    return SACTrainer(pol, aug_dim, cfg, RNG(20))


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


def _capture_critic_grads(sac, monkeypatch):
    """Record each critic's gradients as its optimizer step reads them."""
    seen = {}
    for name, q, opt in (("q1", sac.q1, sac.opt_q1), ("q2", sac.q2, sac.opt_q2)):
        def step(name=name, q=q, inner=opt.step):
            seen[name] = [p.grad.copy() for p in q.params().values()]
            inner()

        monkeypatch.setattr(opt, "step", step)
    return seen


def test_actor_step_writes_no_critic_gradient(monkeypatch):
    """After an update each critic's .grad is bitwise the gradient of its own
    loss: the actor step holds both critics fixed and adds nothing to them,
    and hands their requires_grad back."""
    sac = _sac(temp=0.01)
    seen = _capture_critic_grads(sac, monkeypatch)
    for k in range(2):
        sac.update(_batch(seed=40 + k), RNG(41 + k))
        for name, q in (("q1", sac.q1), ("q2", sac.q2)):
            for (pname, p), grad in zip(q.params().items(), seen[name]):
                assert p.requires_grad, pname
                assert np.array_equal(p.grad, grad), pname
        assert all(p.grad is not None for p in sac.policy.params().values())


def test_a_failed_actor_step_hands_the_critics_back(monkeypatch):
    """An actor loss that turns NaN raises inside the freeze; every critic
    parameter still requires a gradient afterwards."""
    sac = _sac()
    monkeypatch.setattr(ad, "minimum", lambda a, b: ad.scale(a, float("nan")))
    with pytest.raises(ad.AutodiffError, match="scale"):
        sac.update(_batch(), RNG(42))
    for q in (sac.q1, sac.q2):
        assert all(p.requires_grad for p in q.params().values())


def _separate_relu(a):
    """relu as the tape node of its own that it was before affine took it in."""
    return ad._unary("relu", a, lambda x: np.maximum(x, 0.0),
                     lambda _out, x: (x > 0).astype(x.dtype))


def _unfused_mlp_call(self, x):
    acts = {"relu": _separate_relu, "tanh": ad.tanh, "identity": lambda t: t}
    h = x
    for layer, act in zip(self.layers, self.acts):
        h = acts[act](ad.affine(h, layer.W, layer.b))
    return h


def _reference_update(sac, batch, rng):
    """SACTrainer.update with the critics left trainable in the actor step."""
    cfg = sac.cfg
    temp = cfg.entropy_temp
    s, a, s2, r = batch["aug"], batch["res"], batch["aug_next"], batch["reward"]
    eps2 = rng.standard_normal((len(s2), sac.policy.act_dim), dtype=np.float32)
    with ad.no_grad():
        a2, logp2 = sac.policy.sample_taped(ad.tensor(s2), eps2)
    x2 = np.concatenate([s2, a2.data], axis=1)
    q_next = np.minimum(sac.q1_t.predict(x2)[:, 0], sac.q2_t.predict(x2)[:, 0])
    y = (r + cfg.gamma * (q_next - temp * logp2.data[:, 0])).astype(np.float32)[:, None]
    x = np.concatenate([s, a], axis=1)
    q_losses = []
    for q, opt in ((sac.q1, sac.opt_q1), (sac.q2, sac.opt_q2)):
        ad.zero_grads(q.params().values())
        loss = ad.mse(q(ad.tensor(x)), ad.tensor(y))
        ad.backward(loss)
        opt.step()
        q_losses.append(float(loss.data))
    eps = rng.standard_normal((len(s), sac.policy.act_dim), dtype=np.float32)
    ad.zero_grads(sac.policy.params().values())
    s_t = ad.tensor(s)
    a_t, logp_t = sac.policy.sample_taped(s_t, eps)
    x_t = ad.concat([s_t, a_t], axis=-1)
    min_q = ad.minimum(sac.q1(x_t), sac.q2(x_t))
    actor_loss = ad.mean_all(ad.sub(ad.scale(logp_t, temp), min_q))
    ad.backward(actor_loss)
    sac.opt_pi.step()
    polyak_update(sac.q1_t.params(), sac.q1.params(), cfg.tau)
    polyak_update(sac.q2_t.params(), sac.q2.params(), cfg.tau)
    return {"q1_loss": q_losses[0], "q2_loss": q_losses[1],
            "actor_loss": float(actor_loss.data), "mean_logp": float(np.mean(logp_t.data)),
            "mean_reward": float(np.mean(r))}


def _sac_state(sac):
    nets_ = {"pi": sac.policy, "q1": sac.q1, "q2": sac.q2, "q1t": sac.q1_t, "q2t": sac.q2_t}
    state = {f"{net}.{name}": p.data.tobytes() for net, n in nets_.items()
             for name, p in n.params().items()}
    for group, opt in (("pi", sac.opt_pi), ("q1", sac.opt_q1), ("q2", sac.opt_q2)):
        for moment in ("m", "v"):
            state.update({f"{group}.{moment}.{k}": a.tobytes()
                          for k, a in getattr(opt, moment).items()})
    return state


def test_update_equals_the_unfrozen_unfused_update_bitwise(monkeypatch):
    """Freezing the critics in the actor step and fusing relu into affine
    change no bit of the nets, the targets or the optimizer moments."""
    def make():
        pol = GaussianPolicy(5, 2, (12, 12), 0.3, RNG(60))
        cfg = SACConfig(hidden=(16, 16), lr=3e-3, batch=30, tau=0.05, gamma=0.9,
                        entropy_temp=0.05)
        return SACTrainer(pol, 5, cfg, RNG(61))

    now, ref = make(), make()
    for k in range(4):
        batch = _batch(aug_dim=5, n=30, seed=70 + k)
        got = now.update(batch, RNG(80 + k))
        with monkeypatch.context() as patch:
            patch.setattr(nets.MLP, "__call__", _unfused_mlp_call)
            want = _reference_update(ref, batch, RNG(80 + k))
        assert got == want, k
        assert _sac_state(now) == _sac_state(ref), k


# ---------------------------------------------------------------------------
# Training loop and checkpoint bundle

@pytest.fixture(scope="module")
def tiny_world():
    track = circle_track(60.0)
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
                               bc=make_bc_net(demos.obs_dim, 2, (8,), RNG(0)))
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


def test_load_stack_refuses_a_cloned_base_file_of_another_kind(tiny_world, tmp_path):
    track, vparams, ecfg, demos = tiny_world
    bc = make_bc_net(demos.obs_dim, 2, (8,), RNG(43))
    live = build_policy_stack("bcail", demos.normalizer, demos.obs_dim, RNG(40), alpha=0.1,
                              bc=bc, hidden=(32, 32))
    path = str(tmp_path / "bundle")
    save_bundle(path, Trainer(live, track, vparams, ecfg, demos, _tiny_cfg(), 0))
    os.replace(os.path.join(path, "q1.ckpt"), os.path.join(path, "bc.ckpt"))
    with pytest.raises(nets.CheckpointError, match="not a cloned-base checkpoint"):
        ail.load_stack(path, ail.read_manifest(path))


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


def _wide_trainer(tiny_world):
    """A trainer whose optimizer moments (1.9 MB) outweigh a save's other
    allocations."""
    track, vparams, ecfg, demos = tiny_world
    cfg = dataclasses.replace(_tiny_cfg(), policy_hidden=(256, 256),
                              sac=SACConfig(hidden=(256, 256), batch=64, gradient_steps=5))
    stack = build_policy_stack("ail", demos.normalizer, demos.obs_dim, RNG(40),
                               hidden=(256, 256))
    trainer = Trainer(stack, track, vparams, ecfg, demos, cfg, 0)
    return trainer, sum(buf.nbytes for buf in ail._moments(trainer).values())


def _traced(fn):
    """fn's result, and the bytes that tracemalloc saw held when it
    returned and at its peak."""
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


def test_save_bundle_holds_no_copy_of_the_optimizer_moments(tiny_world, tmp_path):
    trainer, moments = _wide_trainer(tiny_world)
    _, _, peak = _traced(lambda: save_bundle(str(tmp_path / "bundle"), trainer))
    assert peak < moments // 8


def test_load_bundle_holds_one_copy_of_what_it_loads(tiny_world, tmp_path):
    track, vparams, ecfg, demos = tiny_world
    trainer, moments = _wide_trainer(tiny_world)
    path = str(tmp_path / "bundle")
    save_bundle(path, trainer)
    (loaded, _), held, peak = _traced(lambda: load_bundle(path, track, vparams, ecfg, demos))
    # Every net and moment is read into the trainer's own arrays: beyond the
    # trainer it returns, the load held no copy of them.
    assert peak - held < moments // 8
    assert _trainer_state(loaded) == _trainer_state(trainer)


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


def _trainer_state(trainer):
    """Everything a bundle stores of a trainer, as comparable values."""
    sac = trainer.sac
    nets_ = {"res": trainer.stack.residual, "q1": sac.q1, "q2": sac.q2, "q1t": sac.q1_t,
             "q2t": sac.q2_t, "disc": trainer.disc}
    state = {f"{net}.{name}": p.data.tobytes() for net, n in nets_.items()
             for name, p in n.params().items()}
    for group, opt in {"pi": sac.opt_pi, "q1": sac.opt_q1, "q2": sac.opt_q2,
                       "disc": trainer.opt_disc}.items():
        opt_state = opt.state_dict()
        state[f"{group}.steps"] = opt_state["step_count"]
        for moment in ("m", "v"):
            state.update({f"{group}.{moment}.{k}": a.tobytes()
                          for k, a in opt_state[moment].items()})
    state.update({f"replay.{k}": a.tobytes() for k, a in trainer.replay.state_arrays().items()})
    state.update(replay_meta=trainer.replay.state_meta(), env_steps=trainer.env_steps,
                 iteration=trainer.iteration_count, curve=trainer.curve,
                 last_eval=trainer.last_eval)
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
        ail.recover_bundle(path)
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


@pytest.mark.parametrize("swap", ["capacity", "width"])
def test_a_bundle_whose_replay_does_not_fit_the_ring_is_refused(tiny_world, tmp_path, swap):
    track, vparams, ecfg, demos = tiny_world
    trainer = _tiny_trainer(tiny_world)
    trainer.iteration(0)
    path = str(tmp_path / "bundle")
    save_bundle(path, trainer)
    replay = os.path.join(path, "replay.ckpt")
    cfg, stored, ring = _tiny_cfg(), (120, 104), (2000, 104)
    if swap == "capacity":
        cfg = dataclasses.replace(cfg, replay_capacity=3000)
        ring = (3000, 104)
    else:  # a replay of rows one column narrower under the same name
        meta, arrays = nets.load_params(replay)
        nets.save_params(replay, {"data": arrays["data"][:, 1:]}, meta)
        stored = (120, 103)
    with pytest.raises(nets.CheckpointError) as info:
        load_bundle(path, track, vparams, ecfg, demos, cfg)
    assert str(info.value) == (f"{replay} holds a replay of shape {stored} in a ring of 2000 "
                               f"rows, which does not fit this run's ring of shape {ring}")


def test_load_bundle_rejects_foreign_directory(tiny_world, tmp_path):
    track, vparams, ecfg, demos = tiny_world
    bogus = tmp_path / "not_bundle"
    bogus.mkdir()
    (bogus / "manifest.json").write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_bundle(str(bogus), track, vparams, ecfg, demos)
