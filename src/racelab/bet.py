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
Attention reads each third as a head-major (H, B, T, d) strided view of
it, [h, b] holding head h of window b, so it is a few batched products
rather than a loop over heads, and no head is copied. In that order one
dropout draw over all heads' weights takes the same random numbers, in
the same places, as a draw per head in head order, whenever each head's
draw is a multiple of 4 values. Dropout draws 16-bit integers, so the
dropout rate in effect is ``dropout`` rounded to a multiple of 2^-16.

The tape holds few nodes. The input projection, position embedding and
dropout are one ``autodiff.embed`` node. Each layer norm and the
projection that reads it are one ``autodiff.norm_affine`` node. The
attention and the residual branch after it (output projection, dropout
and residual sum) are one ``autodiff.attention_residual`` node, which
rebuilds the attention output in its backward rather than keeping it,
and the MLP's branch ends in one ``autodiff.residual_affine`` node. So a
block puts 4 tensors on the tape. In a taped forward the residual stream
is one buffer, which each branch adds into.

The model is trained once and then frozen: downstream trainers hold it
without any optimizer, and evaluation checksums its parameters
(``nets.params_checksum``) to guard against drift.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import autodiff as ad
from . import nets
from .optim import Lamb
from .seeding import stream

__all__ = [
    "BeTConfig",
    "BeT",
    "pretrain",
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
        self.qkv = nets.Affine(d, 3 * d, None)
        if rng is not None:
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
    """The transformer policy; normalized observations in, actions out.

    Its weights are drawn from rng; with rng None every parameter is zero
    or one, for a model that a checkpoint is read into."""

    def __init__(self, cfg, rng):
        self.cfg = cfg
        dtype = ad.default_dtype()
        self.in_proj = nets.Affine(cfg.obs_dim, cfg.embed_dim, rng, w_std=cfg.w_std)
        shape = (cfg.context, cfg.embed_dim)
        self.pos_emb = ad.Tensor(np.zeros(shape, dtype=dtype) if rng is None
                                 else nets.trunc_normal(shape, cfg.w_std, rng), requires_grad=True)
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
        the final block projects every position, whose keys and values it
        needs, scores only the newest query
        (``autodiff.newest_query_attention``), and the rest of the network
        runs on that position only. That path has no backward and runs
        under ``autodiff.no_grad()``, as ``predict_last`` runs it; its bits
        equal the last position of the full forward.
        """
        cfg = self.cfg
        t = x.shape[1]
        if t > cfg.context:
            raise ValueError(f"window length {t} exceeds context {cfg.context}")
        h = ad.embed(x, self.in_proj.W, self.in_proj.b, self.pos_emb, cfg.dropout, rng, train)
        # Without a tape the packed projection and the MLP's hidden layer
        # are freed as soon as they have been read: the projection is
        # dropped before the hidden layer is made, and the hidden layer is
        # not bound to a name.
        for i, blk in enumerate(self.blocks):
            qkv = ad.norm_affine(h, blk.ln1_gain, blk.ln1_bias, blk.qkv.W, blk.qkv.b)
            if last and i == len(self.blocks) - 1:
                h = ad.residual_affine(ad.narrow(h, t - 1, 1, axis=1),
                                       ad.newest_query_attention(qkv, cfg.n_heads),
                                       blk.wo.W, blk.wo.b, cfg.dropout, rng, train)
            else:
                h = ad.attention_residual(h, qkv, cfg.n_heads, blk.wo.W, blk.wo.b,
                                          cfg.dropout, rng, train)
            del qkv
            h = ad.residual_affine(
                h, ad.norm_affine(h, blk.ln2_gain, blk.ln2_bias, blk.w1.W, blk.w1.b, relu=True),
                blk.w2.W, blk.w2.b, cfg.dropout, rng, train)
        return ad.tanh(ad.norm_affine(h, self.lnf_gain, self.lnf_bias, self.head.W, self.head.b))

    def predict_last(self, windows):
        """Action at the latest position only: (B, T, obs) -> (B, act).

        windows holds whitened observations, cast to float32. This is
        forward(last=True) without a tape: the final block's attention
        and per-position work run at the newest position only. Bitwise
        equal, at every batch size, to the last position of
        ``forward(windows)`` run under ``autodiff.no_grad()``.
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
