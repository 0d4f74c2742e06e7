"""Causal-transformer base policy trained by behavior cloning.

A pre-norm transformer over windows of whitened observations predicts
the demonstrator's action at every causal position; training minimizes
the mean squared error over all positions of each window. Its inputs come
from ``Normalizer.transform``, which already saturates outliers, so the
model does not clip them again. The attention mask is exact (future
columns carry probability exactly zero), and ``autodiff.affine`` gives
each row the same bits at every row count, so the prediction at position
t is bit-identical whether or not later observations are appended to the
window, at every batch size. Training uses long windows; control uses a
short sliding window that grows from length 1 after a reset, and reads
only its newest position: ``predict_last`` runs the final block's output
projection, MLP, the final layer norm and the head on that position
alone, with bitwise the result of the full forward.

The base reads observations only. The paper's BeT models a sequence of
states and actions; this one never sees the actions taken, so it cannot
learn to copy its previous action (causal confusion) and needs no
executed action at control time. Whether the actions would help is not
yet tested.

Each block runs its heads together. One packed projection,
``blk{i}.qkv``, gives the queries, keys and values side by side,
(B, T, 3*H*d) with W of shape (d, 3d), as GPT-2's ``c_attn`` does.
Attention (``autodiff.causal_attention``) reads each third as a
head-major (H, B, T, d) strided view of it, [h, b] holding head h of
window b, so it is a few batched products rather than a loop over heads,
and no head is copied. In that order one dropout draw over all heads'
weights takes the same random numbers, in the same places, as a draw per
head in head order, whenever each head's draw is a multiple of 4 values.
Dropout draws 16-bit integers, so the dropout rate in effect is
``dropout`` rounded to a multiple of 2^-16. Each layer norm and the
projection that reads it are one ``autodiff.norm_affine`` node, and each
residual branch ends in one ``autodiff.residual_affine`` node, its output
projection, dropout and residual sum together, so a block puts 5 tensors
on the tape. In a taped forward the residual stream is one buffer, which
each branch adds into.

The model is trained once and then frozen: downstream trainers hold it
without any optimizer, and evaluation checksums its parameters
(``nets.params_checksum``) to guard against drift.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import autodiff as ad
from . import nets
from .env import Normalizer
from .optim import Lamb
from .seeding import stream

__all__ = [
    "BeTConfig",
    "BeT",
    "pretrain",
    "save_bet",
    "load_bet",
]


@dataclasses.dataclass(frozen=True)
class BeTConfig:
    """Architecture and pretraining settings.

    obs_dim and act_dim are the input and output widths. They are not
    user settings: the run config derives them from the episode
    (``env.obs_dim``) and the two controls, and a checkpoint stores them
    so that the model can be rebuilt. context is the training window
    length; eval_context the sliding window used for control. The blocks
    use relu, and the regression loss covers every causal position, not
    only the last.

    It checks that the heads divide embed_dim, that eval_context does not
    exceed context, and that dropout is in [0, 1) at 16-bit resolution.
    The run config checks each size on its own.
    """

    obs_dim: int = 50
    act_dim: int = 2
    embed_dim: int = 64
    n_layers: int = 4
    n_heads: int = 4
    context: int = 20
    eval_context: int = 5
    dropout: float = 0.1
    mlp_ratio: int = 4
    w_std: float = 0.02
    batch_size: int = 64
    updates: int = 4000
    stop_loss: float = 1e-3
    lr: float = 1e-4
    weight_decay: float = 5e-4

    def __post_init__(self):
        if self.embed_dim % self.n_heads:
            raise ValueError("embed_dim must divide evenly into heads")
        if self.eval_context > self.context:
            raise ValueError("eval_context cannot exceed the training context")
        if not (0.0 <= self.dropout and round(self.dropout * 65536) < 65536):
            raise ValueError(f"dropout must be in [0, 1) at 16-bit resolution, got {self.dropout}")


class _Block:
    def __init__(self, cfg, rng):
        d = cfg.embed_dim
        dtype = ad.default_dtype()
        self.ln1_gain = ad.Tensor(np.ones(d, dtype=dtype), requires_grad=True)
        self.ln1_bias = ad.Tensor(np.zeros(d, dtype=dtype), requires_grad=True)
        # The query, key and value weights, drawn one after another and
        # packed side by side.
        self.qkv = nets.Affine(d, 3 * d, rng, zero=True)
        self.qkv.W.data[...] = np.concatenate(
            [nets.trunc_normal((d, d), cfg.w_std, rng) for _ in range(3)], axis=1)
        self.wo = nets.Affine(d, d, rng, w_std=cfg.w_std)
        self.ln2_gain = ad.Tensor(np.ones(d, dtype=dtype), requires_grad=True)
        self.ln2_bias = ad.Tensor(np.zeros(d, dtype=dtype), requires_grad=True)
        self.w1 = nets.Affine(d, cfg.mlp_ratio * d, rng, w_std=cfg.w_std)
        self.w2 = nets.Affine(cfg.mlp_ratio * d, d, rng, w_std=cfg.w_std)

    def params(self, prefix):
        return {
            f"{prefix}.ln1.gain": self.ln1_gain,
            f"{prefix}.ln1.bias": self.ln1_bias,
            f"{prefix}.qkv.W": self.qkv.W,
            f"{prefix}.qkv.b": self.qkv.b,
            f"{prefix}.o.W": self.wo.W,
            f"{prefix}.o.b": self.wo.b,
            f"{prefix}.ln2.gain": self.ln2_gain,
            f"{prefix}.ln2.bias": self.ln2_bias,
            f"{prefix}.m1.W": self.w1.W,
            f"{prefix}.m1.b": self.w1.b,
            f"{prefix}.m2.W": self.w2.W,
            f"{prefix}.m2.b": self.w2.b,
        }


class BeT:
    """The transformer policy; normalized observations in, actions out."""

    def __init__(self, cfg, rng):
        self.cfg = cfg
        dtype = ad.default_dtype()
        self.in_proj = nets.Affine(cfg.obs_dim, cfg.embed_dim, rng, w_std=cfg.w_std)
        self.pos_emb = ad.Tensor(
            nets.trunc_normal((cfg.context, cfg.embed_dim), cfg.w_std, rng), requires_grad=True
        )
        self.blocks = [_Block(cfg, rng) for _ in range(cfg.n_layers)]
        self.lnf_gain = ad.Tensor(np.ones(cfg.embed_dim, dtype=dtype), requires_grad=True)
        self.lnf_bias = ad.Tensor(np.zeros(cfg.embed_dim, dtype=dtype), requires_grad=True)
        self.head = nets.Affine(cfg.embed_dim, cfg.act_dim, rng, w_std=cfg.w_std)

    def params(self):
        out = {"in.W": self.in_proj.W, "in.b": self.in_proj.b, "pos.emb": self.pos_emb}
        for i, blk in enumerate(self.blocks):
            out.update(blk.params(f"blk{i}"))
        out.update(
            {
                "lnf.gain": self.lnf_gain,
                "lnf.bias": self.lnf_bias,
                "head.W": self.head.W,
                "head.b": self.head.b,
            }
        )
        return out

    def forward(self, x, train=False, rng=None, last=False):
        """Taped forward over a window batch: (B, T, obs) -> (B, T, act).

        With last=True only the newest position is read out, (B, 1, act):
        the final block attends over every position, whose keys and values
        it needs, then narrows to the last one before its output
        projection, and the rest of the network runs on that position
        only. Outside training its bits equal the last position of the
        full forward.
        """
        cfg = self.cfg
        t = x.shape[1]
        if t > cfg.context:
            raise ValueError(f"window length {t} exceeds context {cfg.context}")
        h = ad.add(self.in_proj(x), ad.narrow(self.pos_emb, 0, t, axis=0))
        h = ad.dropout(h, cfg.dropout, rng, train)
        # The packed projection and the MLP's hidden layer are not bound to
        # names: without a tape each is freed as soon as it has been read.
        for i, blk in enumerate(self.blocks):
            att = ad.causal_attention(
                ad.norm_affine(h, blk.ln1_gain, blk.ln1_bias, blk.qkv.W, blk.qkv.b),
                cfg.n_heads, cfg.dropout, rng, train)
            if last and i == len(self.blocks) - 1:
                h, att = ad.narrow(h, t - 1, 1, axis=1), ad.narrow(att, t - 1, 1, axis=1)
            h = ad.residual_affine(h, att, blk.wo.W, blk.wo.b, cfg.dropout, rng, train)
            h = ad.residual_affine(
                h, ad.norm_affine(h, blk.ln2_gain, blk.ln2_bias, blk.w1.W, blk.w1.b, relu=True),
                blk.w2.W, blk.w2.b, cfg.dropout, rng, train)
        return ad.tanh(ad.norm_affine(h, self.lnf_gain, self.lnf_bias, self.head.W, self.head.b))

    def predict_last(self, windows):
        """Action at the latest position only: (B, T, obs) -> (B, act).

        windows holds whitened observations, cast to float32. This is
        forward(last=True) without a tape: the final block's per-position
        work runs at the newest position only. Bitwise equal, at every
        batch size, to the last position of ``forward(windows)`` run under
        ``autodiff.no_grad()``.
        """
        with ad.no_grad():
            x = ad.Tensor(np.asarray(windows, dtype=np.float32))
            return self.forward(x, last=True).data[:, 0, :]


def train_step(model, obs_windows, act_windows, opt, rng):
    """One regression update; returns the scalar batch loss."""
    params = model.params()
    ad.zero_grads(params.values())
    pred = model.forward(ad.Tensor(obs_windows), train=True, rng=rng)
    loss = ad.mse(pred, ad.Tensor(act_windows))
    ad.backward(loss)
    opt.step()
    return float(loss.data)


def pretrain(model, demoset, seed, progress=None):
    """Behavior-clone the demonstrations into the model.

    Samples uniform sub-trajectory windows, optimizes with the layer-wise
    adaptive optimizer, and stops early once the smoothed loss reaches
    cfg.stop_loss. Returns the loss history (one entry per update).
    """
    cfg = model.cfg
    norm = demoset.normalizer
    pairs = demoset.window_index(cfg.context)
    if not pairs:
        raise ValueError("demonstrations are shorter than the training context")
    opt = Lamb(model.params(), cfg.lr, cfg.weight_decay)
    history = []
    ema = None
    for update in range(cfg.updates):
        rng = stream(seed, "bet", update)
        obs, act = demoset.sample_windows(pairs, rng, cfg.batch_size, cfg.context)
        loss = train_step(model, norm.transform(obs), act, opt, rng)
        history.append(loss)
        ema = loss if ema is None else 0.98 * ema + 0.02 * loss
        if progress is not None and (update + 1) % 200 == 0:
            progress(update + 1, loss, ema)
        if cfg.stop_loss and ema is not None and ema <= cfg.stop_loss:
            break
    return history


def save_bet(path, model, normalizer, extra=None):
    meta = {
        "kind": "bet",
        "config": dataclasses.asdict(model.cfg),
        "normalizer": normalizer.to_dict(),
        **(extra or {}),
    }
    nets.save_params(path, model.params(), meta)


def load_bet(path):
    """Returns (model, normalizer, meta) from a checkpoint."""
    meta, arrays = nets.load_params(path)
    if meta.get("kind") != "bet":
        raise nets.CheckpointError(f"not a base-policy checkpoint: {path}")
    stored = set(meta.get("config", {}))
    fields = {f.name for f in dataclasses.fields(BeTConfig)}
    if stored != fields:
        raise nets.CheckpointError(
            f"base-policy checkpoint {path} does not match this version's BeTConfig: "
            f"stale keys {sorted(stored - fields)}, missing keys {sorted(fields - stored)}")
    cfg = BeTConfig(**meta["config"])
    model = BeT(cfg, np.random.default_rng(0))
    nets.assign_params(model.params(), arrays)
    return model, Normalizer.from_dict(meta["normalizer"]), meta
