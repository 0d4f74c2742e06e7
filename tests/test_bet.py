"""Tests for the causal-transformer base policy."""

import tracemalloc

import numpy as np
import pytest

from conftest import circle_track
from racelab import autodiff as ad
from racelab import nets
from racelab.bet import BeT, BeTConfig, pretrain, train_step
from racelab.env import EpisodeConfig, Normalizer
from racelab.expert import ExpertParams, generate_demos
from racelab.nets import params_checksum
from racelab.optim import Lamb
from racelab.policies import build_policy_stack, load_base, save_base
from racelab.vehicle import VehicleParams

RNG = np.random.default_rng


def _tiny_cfg(**over):
    base = dict(obs_dim=6, act_dim=2, embed_dim=16, n_layers=2, n_heads=2,
                context=8, eval_context=4, dropout=0.1, batch_size=8,
                updates=10, stop_loss=0.0)
    base.update(over)
    return BeTConfig(**base)


def _forward(model, windows):
    """forward(train=False) under no_grad, on arrays: (B, T, obs) windows,
    cast to float32, to (B, T, act). The reference of predict_last."""
    with ad.no_grad():
        return model.forward(ad.Tensor(np.asarray(windows, dtype=np.float32))).data


def _perturbed_model(cfg, seed=0):
    """Every parameter moved off its initial value, so that layer-norm
    gains, biases and the head all shape the output."""
    model = BeT(cfg, RNG(seed))
    rng = RNG(seed + 1000)
    for p in model.params().values():
        p.data += (0.05 * rng.standard_normal(p.data.shape)).astype(p.data.dtype)
    return model


# ---------------------------------------------------------------------------
# Config validation

def test_config_rejects_inconsistent_shapes():
    with pytest.raises(ValueError):
        _tiny_cfg(embed_dim=15)  # not divisible by heads
    with pytest.raises(ValueError):
        _tiny_cfg(eval_context=9)  # larger than the training context


# ---------------------------------------------------------------------------
# Initialisation

def test_packed_projection_takes_the_query_key_value_draws_in_order():
    """Each block's qkv.W is three (d, d) draws side by side, q, k, v, as
    three separate projections drew them; the draws after it go on."""
    cfg = _tiny_cfg()
    model = BeT(cfg, RNG(4))
    draws = RNG(4)
    d = cfg.embed_dim
    nets.trunc_normal((cfg.obs_dim, d), cfg.w_std, draws)
    nets.trunc_normal((cfg.context, d), cfg.w_std, draws)
    for blk in model.blocks:
        want = [nets.trunc_normal((d, d), cfg.w_std, draws) for _ in range(3)]
        assert np.array_equal(blk.qkv.W.data, np.concatenate(want, axis=1))
        assert not blk.qkv.b.data.any()
        assert np.array_equal(blk.wo.W.data, nets.trunc_normal((d, d), cfg.w_std, draws))
        nets.trunc_normal((d, cfg.mlp_ratio * d), cfg.w_std, draws)
        nets.trunc_normal((cfg.mlp_ratio * d, d), cfg.w_std, draws)
    assert np.array_equal(model.head.W.data, nets.trunc_normal((d, cfg.act_dim), cfg.w_std, draws))


# ---------------------------------------------------------------------------
# Causal structure

def test_causal_softmax_rows_are_distributions():
    scores = RNG(0).standard_normal((2, 5, 5)).astype(np.float32)
    w = ad._causal_softmax(scores)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)
    for i in range(5):
        assert np.all(w[:, i, i + 1 :] == 0.0)  # no attention to the future


def test_prefix_predictions_are_bit_identical():
    """The action at position t never depends on later observations."""
    cfg = _tiny_cfg(dropout=0.0)
    model = _perturbed_model(cfg)
    x = RNG(1).standard_normal((3, 8, 6)).astype(np.float32)
    full = _forward(model, x)
    for t in (1, 3, 5, 8):
        prefix = _forward(model, x[:, :t])
        np.testing.assert_array_equal(prefix, full[:, :t])


def test_future_change_leaves_past_outputs_unchanged():
    cfg = _tiny_cfg(dropout=0.0)
    model = _perturbed_model(cfg)
    x = RNG(2).standard_normal((2, 6, 6)).astype(np.float32)
    base = _forward(model, x)
    x2 = x.copy()
    x2[:, 4:] += 100.0
    changed = _forward(model, x2)
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
        # Rows zero-padded to a multiple of 4, as autodiff.affine pads them.
        flat = h.reshape(-1, h.shape[-1])
        rows = len(flat)
        flat = np.concatenate([flat, np.zeros((-rows % 4, flat.shape[1]), flat.dtype)])
        flat = (flat @ layer.W.data + layer.b.data)[:rows]
        return flat.reshape(h.shape[:-1] + (layer.W.data.shape[-1],))

    cfg = model.cfg
    t = x.shape[1]
    h = affine(x, model.in_proj) + model.pos_emb.data[:t]
    hd = cfg.embed_dim // cfg.n_heads
    inv = np.float32(1.0 / np.sqrt(hd))
    for blk in model.blocks:
        a = layer_norm(h, blk.ln1_gain, blk.ln1_bias)
        q, k, v = np.split(affine(a, blk.qkv), 3, axis=-1)
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
    out = _forward(model, x)
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


@pytest.mark.parametrize("batch", [1, 2, 3])
@pytest.mark.exact_bits
def test_desk_prefixes_are_bit_identical_at_small_batch(batch):
    """At row counts that are not a multiple of 4 a product can change its
    kernel with the count; affine's padding keeps every prefix exact."""
    cfg = BeTConfig()
    model = _perturbed_model(cfg, seed=46)
    x = RNG(47).standard_normal((batch, cfg.context, cfg.obs_dim)).astype(np.float32)
    full = _forward(model, x)
    for t in range(1, cfg.context):
        np.testing.assert_array_equal(_forward(model, x[:, :t]), full[:, :t])


@pytest.mark.parametrize("batch", [1, 2, 3, 4, 5, 20, 256])
@pytest.mark.exact_bits
def test_desk_predict_last_is_the_last_position_bitwise(batch):
    """The last-position forward equals the last position of the full
    forward, and a window's action does not depend on the batch. Its final
    block scores the newest query alone, against the full forward's T
    query rows, so this compares products of different row counts. The
    last-position forward has no backward and refuses a tape."""
    cfg = BeTConfig()
    model = _perturbed_model(cfg, seed=48)
    x = 3.0 * RNG(49).standard_normal((256, cfg.eval_context, cfg.obs_dim)).astype(np.float32)
    for t in range(1, cfg.eval_context + 1):
        window = x[:batch, :t]
        last = model.predict_last(window)
        np.testing.assert_array_equal(last, _forward(model, window)[:, -1])
        with ad.no_grad():
            np.testing.assert_array_equal(last, model.forward(ad.Tensor(window), last=True).data[:, 0])
        np.testing.assert_array_equal(last, model.predict_last(x[:, :t])[:batch])
        with pytest.raises(ad.AutodiffError, match="newest_query_attention"):
            model.forward(ad.Tensor(window), last=True)


def test_window_longer_than_context_rejected():
    cfg = _tiny_cfg()
    model = BeT(cfg, RNG(0))
    x = np.zeros((1, 9, 6), dtype=np.float32)
    with pytest.raises(ValueError):
        _forward(model, x)
    with pytest.raises(ValueError):
        model.forward(ad.Tensor(x))


def test_inputs_are_saturated_before_projection():
    """Wildly out-of-range features reach the sequence base saturated by
    ``Normalizer.transform``, so it acts on them as at the clip bound."""
    norm = Normalizer(mean=np.zeros(6, np.float32), std=np.full(6, 0.5, np.float32))
    sign = np.array([[1.0], [-1.0]], dtype=np.float32)
    wild, at_bound = 1e8 * sign * np.ones(6, np.float32), 5.0 * sign * np.ones(6, np.float32)
    cfg = BeTConfig(obs_dim=6, embed_dim=8, n_layers=1, n_heads=2, context=4, eval_context=2)
    stacks = [build_policy_stack("bet", norm, 6, None, hidden=(256, 256),
                                 bet=BeT(cfg, RNG(0))) for _ in range(2)]
    for stack in stacks:
        stack.reset()
    np.testing.assert_array_equal(stacks[0].base_action(wild), stacks[1].base_action(at_bound))


def test_actions_are_bounded_by_tanh_head():
    cfg = _tiny_cfg(dropout=0.0)
    model = _perturbed_model(cfg)
    x = 5.0 * RNG(4).standard_normal((6, 8, 6)).astype(np.float32)
    out = _forward(model, x)
    assert np.all(out > -1.0) and np.all(out < 1.0)


def test_predict_last_is_final_row():
    cfg = _tiny_cfg(dropout=0.0)
    model = _perturbed_model(cfg)
    x = RNG(5).standard_normal((3, 5, 6)).astype(np.float32)
    np.testing.assert_array_equal(model.predict_last(x), _forward(model, x)[:, -1])


# ---------------------------------------------------------------------------
# Training

def test_train_step_gradient_matches_finite_difference():
    cfg = _tiny_cfg(dropout=0.0, n_layers=1, embed_dim=8, context=4)
    model = BeT(cfg, RNG(6))
    obs = RNG(7).standard_normal((3, 4, 6)).astype(np.float32)
    act = np.clip(RNG(8).standard_normal((3, 4, 2)), -0.9, 0.9).astype(np.float32)
    params = model.params()

    def loss_value():
        pred = _forward(model, obs)
        return float(np.mean((pred.astype(np.float64) - act) ** 2))

    ad.zero_grads(params.values())
    out = model.forward(ad.Tensor(obs), train=False)
    ad.backward(ad.mse(out, ad.Tensor(act)))

    rng = RNG(9)
    checked = 0
    for name in ("in.W", "blk0.qkv.W", "blk0.m1.W", "head.W", "pos.emb"):
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


# The tiny config at (2, 8) and the benchmark's desk BeT at (64, 20).
_TAPE_SHAPES = [(_tiny_cfg(n_layers=3, n_heads=4), 2), (BeTConfig(), 64)]


def test_train_step_tape_size():
    """Tensors built by one update: input and target, then per forward 1 for
    the embedding (projection, position embedding and dropout), 4 per block
    and 2 for the head, plus the loss. A block is two layer norms, each
    fused with the projection that reads it (the packed query, key and
    value affine; the MLP's first affine with its relu), the attention with
    the residual branch after it, and the MLP's residual branch (last
    affine, dropout and sum); the head is the final layer norm fused with
    the head affine, and the tanh. A per-head loop or a layer norm built
    from primitive ops would add dozens. The inputs arrive saturated
    (``Normalizer.transform``), so the forward adds no clip node. At the
    desk shape that is 22 tensors."""
    for cfg, batch in _TAPE_SHAPES:
        model = BeT(cfg, RNG(43))
        obs = RNG(44).standard_normal((batch, cfg.context, cfg.obs_dim)).astype(np.float32)
        act = np.zeros((batch, cfg.context, cfg.act_dim), dtype=np.float32)
        opt = Lamb(model.params(), 1e-4, 0.0)
        before = ad.Tensor(0.0)._serial
        train_step(model, obs, act, opt, RNG(45))
        built = ad.Tensor(0.0)._serial - before - 1
        assert built == 2 + 1 + 4 * cfg.n_layers + 2 + 1, cfg


def _retained_bytes(root, excluded):
    """Bytes of the distinct buffers that the tape under root holds: the
    data of every reachable tensor and the arrays in its backward closure.
    Views count once, as their base; buffers in excluded do not count."""
    owners, seen, stack = {}, set(), [root]

    def hold(value):
        if id(value) in seen:
            return
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            if id(value) not in excluded:
                owners[id(value)] = value.nbytes
        elif isinstance(value, ad.Tensor):
            stack.append(value)
        elif isinstance(value, (tuple, list)):
            for item in value:
                hold(item)
        elif callable(value):
            for cell in getattr(value, "__closure__", None) or ():
                hold(cell.cell_contents)

    while stack:
        node = stack.pop()
        for value in (node.data, node._vjp, node._parents):
            hold(value)
    return sum(owners.values())


def test_train_step_tape_retains_only_what_the_backward_reads(monkeypatch):
    """The bytes that one update's tape holds when its backward starts,
    parameters excluded: the input and target, each node's output, and what
    the fused backwards read. Dropout masks are one byte per element; the
    layer norms' outputs, the residual branches' products, the attention's
    output, dropped weights and head-split copies, and the embedding's
    product and sum are not held, and the residual stream is one buffer,
    the embedding's output. Against a layer norm node of its own and a
    stream copied at every branch that is (4L + 1) * n * d float32 fewer:
    13,312 bytes on the tiny config and 5,570,560 at the desk shape.
    Against an attention output kept per block and an embedding of four
    nodes it is (L + 2) * n * d float32 fewer again: 5,120 bytes and
    1,966,080, which leaves 15,580,164 bytes at the desk shape."""
    params, held = set(), []
    backward = ad.backward

    def measured(root):
        held.append(_retained_bytes(root, params))
        backward(root)

    monkeypatch.setattr(ad, "backward", measured)
    want = []
    for cfg, batch in _TAPE_SHAPES:
        model = BeT(cfg, RNG(43))
        obs = RNG(44).standard_normal((batch, cfg.context, cfg.obs_dim)).astype(np.float32)
        act = np.zeros((batch, cfg.context, cfg.act_dim), dtype=np.float32)
        params.clear()
        params.update(id(p.data) for p in model.params().values())
        train_step(model, obs, act, Lamb(model.params(), 1e-4, 0.0), RNG(45))
        n, d, f = batch * cfg.context, cfg.embed_dim, 4  # positions, width, bytes of a float32
        weights = cfg.n_heads * batch * cfg.context ** 2  # attention weights of one block
        norm = n * d * f + n * f                    # normalized input, std
        branch = n * d                              # residual mask
        block = (norm + 3 * n * d * f                       # packed query, key and value
                 + weights * f + weights + branch           # attention: weights, both masks
                 + norm + cfg.mlp_ratio * n * d * f + branch)
        embed = n * cfg.obs_dim * f + n * d * f + n * d     # input, output, mask
        head = norm + 2 * n * cfg.act_dim * f                # head affine and tanh
        loss = 2 * n * cfg.act_dim * f + f                   # target, difference, value
        want.append(embed + cfg.n_layers * block + head + loss)
    assert held == want
    assert held[1] == 15_580_164


def test_training_fits_a_tiny_mapping():
    """A few hundred updates memorize a fixed window batch."""
    cfg = _tiny_cfg(dropout=0.0, n_layers=1, embed_dim=16, context=4)
    model = BeT(cfg, RNG(10))
    obs = RNG(11).standard_normal((8, 4, 6)).astype(np.float32)
    act = np.clip(0.5 * RNG(12).standard_normal((8, 4, 2)), -0.9, 0.9).astype(np.float32)
    opt = Lamb(model.params(), 3e-3, 0.0)
    first = train_step(model, obs, act, opt, RNG(13))
    last = None
    for _ in range(300):
        last = train_step(model, obs, act, opt, RNG(13))
    assert last < first * 0.05


def test_pretrain_on_demonstrations_reduces_loss_and_stops_early():
    track = circle_track(80.0)
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
    norm = Normalizer(np.zeros(6, dtype=np.float32), np.ones(6, dtype=np.float32))
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
    save_base(path, "bet", model, norm, extra={"note": "tiny"})
    back, norm2, meta = load_base(path, "bet")
    assert params_checksum(back.params()) == params_checksum(model.params())
    np.testing.assert_array_equal(norm2.mean, norm.mean)
    assert meta["note"] == "tiny"
    assert meta["config"]["embed_dim"] == 16
    x = RNG(21).standard_normal((2, 4, 6)).astype(np.float32)
    np.testing.assert_array_equal(_forward(back, x), _forward(model, x))


def test_load_holds_one_copy_of_the_model(tmp_path):
    model = BeT(_tiny_cfg(embed_dim=64, n_layers=8, n_heads=4), RNG(23))
    size = sum(p.data.nbytes for p in model.params().values())
    path = str(tmp_path / "model.ckpt")
    save_base(path, "bet", model, Normalizer(np.zeros(6, np.float32), np.ones(6, np.float32)))
    tracemalloc.start()
    try:
        back, _, _ = load_base(path, "bet")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The parameters are read into the model's own arrays, and the model
    # is built with nothing drawn, so the load holds little beyond it.
    assert peak - held < size // 16
    assert params_checksum(back.params()) == params_checksum(model.params())


def test_checkpoint_rejects_foreign_file(tmp_path):
    from racelab.nets import save_params

    path = str(tmp_path / "foreign.ckpt")
    save_params(path, {"a": np.zeros(1, np.float32)}, {"kind": "other"})
    with pytest.raises(ValueError):
        load_base(path, "bet")


def test_param_checksum_changes_with_any_weight():
    model = _perturbed_model(_tiny_cfg(), seed=22)
    before = params_checksum(model.params())
    list(model.params().values())[5].data.reshape(-1)[0] += 1e-3
    assert params_checksum(model.params()) != before
