"""Tests for the causal-transformer base policy."""

import numpy as np
import pytest

from racelab import autodiff as ad
from racelab.bet import (
    BeT,
    BeTConfig,
    load_bet,
    pretrain,
    save_bet,
    train_step,
)
from racelab.env import EpisodeConfig, Normalizer
from racelab.expert import ExpertParams, generate_demos
from racelab.nets import params_checksum
from racelab.optim import Lamb, LambConfig
from racelab.policies import build_policy_stack
from racelab.track import gen_track
from racelab.vehicle import VehicleParams

RNG = np.random.default_rng


def _tiny_cfg(**over):
    base = dict(obs_dim=6, act_dim=2, embed_dim=16, n_layers=2, n_heads=2,
                context=8, eval_context=4, dropout=0.1, batch_size=8,
                updates=10, stop_loss=0.0)
    base.update(over)
    return BeTConfig(**base)


def _perturbed_model(cfg, seed=0):
    model = BeT(cfg, RNG(seed))
    return model


# ---------------------------------------------------------------------------
# Config validation

def test_config_rejects_inconsistent_shapes():
    with pytest.raises(ValueError):
        _tiny_cfg(embed_dim=15)  # not divisible by heads
    with pytest.raises(ValueError):
        _tiny_cfg(eval_context=9)  # larger than the training context


# ---------------------------------------------------------------------------
# Causal structure

def test_causal_softmax_rows_are_distributions():
    scores = RNG(0).standard_normal((2, 5, 5)).astype(np.float32)
    w = ad.causal_softmax_last(ad.Tensor(scores)).data
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)
    for i in range(5):
        assert np.all(w[:, i, i + 1 :] == 0.0)  # no attention to the future


def test_prefix_predictions_are_bit_identical():
    """The action at position t never depends on later observations."""
    cfg = _tiny_cfg(dropout=0.0)
    model = _perturbed_model(cfg)
    x = RNG(1).standard_normal((3, 8, 6)).astype(np.float32)
    full = model.predict(x)
    for t in (1, 3, 5, 8):
        prefix = model.predict(x[:, :t])
        np.testing.assert_array_equal(prefix, full[:, :t])


def test_future_change_leaves_past_outputs_unchanged():
    cfg = _tiny_cfg(dropout=0.0)
    model = _perturbed_model(cfg)
    x = RNG(2).standard_normal((2, 6, 6)).astype(np.float32)
    base = model.predict(x)
    x2 = x.copy()
    x2[:, 4:] += 100.0
    changed = model.predict(x2)
    np.testing.assert_array_equal(changed[:, :4], base[:, :4])
    assert not np.array_equal(changed[:, 4:], base[:, 4:])


def test_taped_forward_matches_numpy_twin_bitwise():
    cfg = _tiny_cfg(dropout=0.0)
    model = _perturbed_model(cfg)
    x = RNG(3).standard_normal((4, 7, 6)).astype(np.float32)
    taped = model.forward(ad.Tensor(x), train=False)
    np.testing.assert_array_equal(taped.data, _per_head_predict(model, x))


def _per_head_predict(model, x):
    """The BeT forward as it was written before attention ran heads together:
    a loop over heads, with the softmax and layer norm spelled out. Fusion
    changed no arithmetic of the forward, so predict must match it bitwise."""

    def softmax_causal(scores):
        t = scores.shape[-1]
        allowed = np.tril(np.ones((t, t), dtype=bool))
        masked = np.where(allowed, scores, -np.inf)
        shifted = masked - masked.max(axis=-1, keepdims=True)
        weights = np.where(allowed, np.exp(np.where(allowed, shifted, 0.0)), 0.0)
        return weights / np.cumsum(weights, axis=-1)[..., -1:]

    def layer_norm(h, gain, bias):
        c = h - h.mean(axis=-1, keepdims=True)
        return (c / np.sqrt((c * c).mean(axis=-1, keepdims=True) + 1e-5)) * gain.data + bias.data

    def affine(h, layer):
        flat = h.reshape(-1, h.shape[-1]) @ layer.W.data + layer.b.data
        return flat.reshape(h.shape[:-1] + (layer.W.data.shape[-1],))

    cfg = model.cfg
    t = x.shape[1]
    h = affine(x, model.in_proj) + model.pos_emb.data[:t]
    hd = cfg.embed_dim // cfg.n_heads
    inv = np.float32(1.0 / np.sqrt(hd))
    for blk in model.blocks:
        a = layer_norm(h, blk.ln1_gain, blk.ln1_bias)
        q, k, v = affine(a, blk.wq), affine(a, blk.wk), affine(a, blk.wv)
        heads = []
        for i in range(cfg.n_heads):
            cols = slice(i * hd, (i + 1) * hd)
            w = softmax_causal((q[..., cols] @ np.swapaxes(k[..., cols], -1, -2)) * inv)
            heads.append(w @ v[..., cols])
        h = h + affine(np.concatenate(heads, axis=-1), blk.wo)
        m = layer_norm(h, blk.ln2_gain, blk.ln2_bias)
        h = h + affine(np.maximum(affine(m, blk.w1), 0.0), blk.w2)
    h = layer_norm(h, model.lnf_gain, model.lnf_bias)
    return np.tanh(affine(h, model.head))


@pytest.mark.parametrize("batch,t", [(64, 20), (256, 5), (1, 1)])
def test_desk_forward_paths_agree_bitwise(batch, t):
    """Taped forward, predict and the per-head loop at desk shapes (H = 4)."""
    cfg = BeTConfig()
    model = BeT(cfg, RNG(40))
    x = 3.0 * RNG(batch * 100 + t).standard_normal((batch, t, cfg.obs_dim)).astype(np.float32)
    out = model.predict(x)
    np.testing.assert_array_equal(model.forward(ad.Tensor(x), train=False).data, out)
    np.testing.assert_array_equal(_per_head_predict(model, x), out)


def test_taped_prefixes_are_bit_identical_at_full_context():
    cfg = BeTConfig()
    model = BeT(cfg, RNG(41))
    x = RNG(42).standard_normal((8, cfg.context, cfg.obs_dim)).astype(np.float32)
    full = model.forward(ad.Tensor(x), train=False).data
    for t in (1, 2, 7, 19):
        prefix = model.forward(ad.Tensor(x[:, :t]), train=False).data
        np.testing.assert_array_equal(prefix, full[:, :t])


def test_window_longer_than_context_rejected():
    cfg = _tiny_cfg()
    model = BeT(cfg, RNG(0))
    x = np.zeros((1, 9, 6), dtype=np.float32)
    with pytest.raises(ValueError):
        model.predict(x)
    with pytest.raises(ValueError):
        model.forward(ad.Tensor(x))


def test_inputs_are_saturated_before_projection():
    """Wildly out-of-range features reach the sequence base saturated by
    ``Normalizer.transform``, so it acts on them as at the clip bound."""
    norm = Normalizer(mean=np.zeros(6, np.float32), std=np.full(6, 0.5, np.float32))
    sign = np.array([[1.0], [-1.0]], dtype=np.float32)
    wild, at_bound = 1e8 * sign * np.ones(6, np.float32), 5.0 * sign * np.ones(6, np.float32)
    cfg = BeTConfig(obs_dim=6, embed_dim=8, n_layers=1, n_heads=2, context=4, eval_context=2)
    stacks = [build_policy_stack("bet", norm, 6, None, bet=BeT(cfg, RNG(0))) for _ in range(2)]
    for stack in stacks:
        stack.reset()
    np.testing.assert_array_equal(stacks[0].base_action(wild), stacks[1].base_action(at_bound))


def test_actions_are_bounded_by_tanh_head():
    cfg = _tiny_cfg(dropout=0.0)
    model = _perturbed_model(cfg)
    x = 5.0 * RNG(4).standard_normal((6, 8, 6)).astype(np.float32)
    out = model.predict(x)
    assert np.all(out > -1.0) and np.all(out < 1.0)


def test_predict_last_is_final_row():
    cfg = _tiny_cfg(dropout=0.0)
    model = _perturbed_model(cfg)
    x = RNG(5).standard_normal((3, 5, 6)).astype(np.float32)
    np.testing.assert_array_equal(model.predict_last(x), model.predict(x)[:, -1])


# ---------------------------------------------------------------------------
# Training

def test_train_step_gradient_matches_finite_difference():
    cfg = _tiny_cfg(dropout=0.0, n_layers=1, embed_dim=8, context=4)
    model = BeT(cfg, RNG(6))
    obs = RNG(7).standard_normal((3, 4, 6)).astype(np.float32)
    act = np.clip(RNG(8).standard_normal((3, 4, 2)), -0.9, 0.9).astype(np.float32)
    params = model.params()

    def loss_value():
        pred = model.predict(obs)
        return float(np.mean((pred.astype(np.float64) - act) ** 2))

    ad.zero_grads(params.values())
    out = model.forward(ad.Tensor(obs), train=False)
    ad.backward(ad.mse(out, ad.Tensor(act)))

    rng = RNG(9)
    checked = 0
    for name in ("in.W", "blk0.q.W", "blk0.m1.W", "head.W", "pos.emb"):
        p = params[name]
        flat = p.data.reshape(-1)
        for idx in rng.choice(flat.size, size=2, replace=False):
            h = 1e-3
            keep = flat[idx]
            flat[idx] = keep + h
            up = loss_value()
            flat[idx] = keep - h
            down = loss_value()
            flat[idx] = keep
            fd = (up - down) / (2 * h)
            got = p.grad.reshape(-1)[idx]
            assert got == pytest.approx(fd, rel=0.08, abs=3e-4), name
            checked += 1
    assert checked == 10


def test_train_step_tape_size():
    """Tensors built by one update: input and target, then per forward 4 for
    the embedding, 14 per block (layer norms, attention and affines are one
    node each) and 3 for the head, plus the loss. A per-head loop or a layer
    norm built from primitive ops would add dozens. The inputs arrive
    saturated (``Normalizer.transform``), so the forward adds no clip node."""
    cfg = _tiny_cfg(n_layers=3, n_heads=4)
    model = BeT(cfg, RNG(43))
    obs = RNG(44).standard_normal((2, 8, 6)).astype(np.float32)
    act = np.zeros((2, 8, 2), dtype=np.float32)
    opt = Lamb(model.params(), LambConfig())
    before = ad.Tensor(0.0)._serial
    train_step(model, obs, act, opt, RNG(45))
    built = ad.Tensor(0.0)._serial - before - 1
    assert built == 2 + 4 + 14 * cfg.n_layers + 3 + 1


def test_training_fits_a_tiny_mapping():
    """A few hundred updates memorize a fixed window batch."""
    cfg = _tiny_cfg(dropout=0.0, n_layers=1, embed_dim=16, context=4)
    model = BeT(cfg, RNG(10))
    obs = RNG(11).standard_normal((8, 4, 6)).astype(np.float32)
    act = np.clip(0.5 * RNG(12).standard_normal((8, 4, 2)), -0.9, 0.9).astype(np.float32)
    opt = Lamb(model.params(), LambConfig(lr=3e-3))
    first = train_step(model, obs, act, opt, RNG(13))
    last = None
    for _ in range(300):
        last = train_step(model, obs, act, opt, RNG(13))
    assert last < first * 0.05


def test_pretrain_on_demonstrations_reduces_loss_and_stops_early():
    track = gen_track("circle", radius=80.0)
    vp, ec = VehicleParams(), EpisodeConfig()
    demos = generate_demos(track, vp, ec, ExpertParams(), 2, seed=0)
    cfg = BeTConfig(obs_dim=50, act_dim=2, embed_dim=16, n_layers=1, n_heads=2,
                    context=8, eval_context=4, dropout=0.0, batch_size=16,
                    updates=150, stop_loss=0.02, lr=1e-3)
    model = BeT(cfg, RNG(14))
    calls = []
    history = pretrain(model, demos, seed=0,
                       progress=lambda u, l, e: calls.append((u, l, e)))
    assert history[-1] < history[0]
    if len(history) < cfg.updates:  # early stop engaged
        ema = None
        for loss in history:
            ema = loss if ema is None else 0.98 * ema + 0.02 * loss
        assert ema <= cfg.stop_loss


def test_pretrain_rejects_short_demonstrations():
    norm = Normalizer.identity(6)
    lap = {"obs": np.zeros((3, 6), np.float32), "actions": np.zeros((2, 2), np.float32)}
    from racelab.expert import DemoSet

    demos = DemoSet([lap], norm, {})
    model = BeT(_tiny_cfg(context=8), RNG(0))
    with pytest.raises(ValueError):
        pretrain(model, demos, seed=0)


# ---------------------------------------------------------------------------
# Checkpoint files

def test_checkpoint_roundtrip_preserves_params_and_normalizer(tmp_path):
    cfg = _tiny_cfg()
    model = _perturbed_model(cfg, seed=20)
    norm = Normalizer(np.arange(6, dtype=np.float32), np.ones(6, np.float32))
    path = str(tmp_path / "model.ckpt")
    save_bet(path, model, norm, extra={"note": "tiny"})
    back, norm2, meta = load_bet(path)
    assert params_checksum(back.params()) == params_checksum(model.params())
    np.testing.assert_array_equal(norm2.mean, norm.mean)
    assert meta["note"] == "tiny"
    assert meta["config"]["embed_dim"] == 16
    x = RNG(21).standard_normal((2, 4, 6)).astype(np.float32)
    np.testing.assert_array_equal(back.predict(x), model.predict(x))


def test_checkpoint_rejects_foreign_file(tmp_path):
    from racelab.nets import save_params

    path = str(tmp_path / "foreign.ckpt")
    save_params(path, {"a": np.zeros(1, np.float32)}, {"kind": "other"})
    with pytest.raises(ValueError):
        load_bet(path)


def test_param_checksum_changes_with_any_weight():
    model = _perturbed_model(_tiny_cfg(), seed=22)
    before = params_checksum(model.params())
    list(model.params().values())[5].data.reshape(-1)[0] += 1e-3
    assert params_checksum(model.params()) != before
