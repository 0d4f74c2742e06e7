"""Gaussian control heads and the base+residual policy stacks.

A stack composes an optional frozen base policy (sequence model or
behavior-cloned net) with a small stochastic correction head. The
correction is a tanh-squashed diagonal Gaussian whose output is scaled
to [-alpha, alpha] and added to the base action; the environment sees
the clipped sum. Stacks without a base treat the correction head as the
whole policy (alpha = 1) and feed it the observation alone.

This module owns every rule of the stack; the trainer, the evaluator and
the command line only call it. That includes the base checkpoint, the
hand-off from pretraining to fine-tuning: ``BASES`` says, for each kind
of base, what its checkpoint is, and ``save_base`` and ``load_base``
write and read both kinds.

Conventions
-----------
* ``build_policy_stack`` is the one constructor. It checks the mode, the
  base it needs and the base's input width, and sizes the correction head.
* A base reads the observation whitened as it was fitted: with the
  whitener of its pretraining demonstrations, which the base checkpoint
  records. The correction head consumes the augmented input [obs whitened
  for the target course, base action] when a base is present, else that
  whitened obs. Whitening is ``Normalizer.transform``, which also
  saturates outliers.
* Both heads' outputs are scaled corrections: ``sample_np`` draws
  alpha * tanh(z), ``mean_np`` returns alpha * tanh(mean). Training and
  evaluation emit the same composition, clip(base + correction, -1, 1).
* Sampled log-densities include both the tanh change of variables and
  the alpha scaling, so they are densities of the emitted action.
* The sampling rule is written once, on the tape; rollouts run it under
  ``autodiff.no_grad()`` (``sample_np``) and compute no density. The
  density has one owner, ``sample_taped``, which the actor loss runs on
  the tape and the bootstrap target under ``no_grad``.
* All boundary values (actions, observations, log-probs) are float32.
"""

import dataclasses
from collections import deque

import numpy as np

from . import autodiff as ad
from . import nets
from .bet import BeT, BeTConfig
from .env import Normalizer
from .optim import Adam
from .seeding import stream

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
_HALF_LOG_2PI = 0.5 * float(np.log(2.0 * np.pi))

# What each stack mode is made of.
#   base: "bet" | "bc" | None;
#   residual: correction head present, trained adversarially by the
#     rollout/update loop (a mode without one is supervised only).
MODE_SPECS = {
    "betail": {"base": "bet", "residual": True},
    "ail": {"base": None, "residual": True},
    "bc": {"base": "bc", "residual": False},
    "bcail": {"base": "bc", "residual": True},
    # The frozen sequence base acting alone, evaluated once as bc is: the
    # base-only arm that betail is compared against.
    "bet": {"base": "bet", "residual": False},
}


def _f32(x):
    return np.asarray(x, dtype=np.float32)


class GaussianPolicy:
    """Tanh-squashed diagonal Gaussian head with output scale alpha.

    The net maps the input to (mean, log-std) of a pre-squash variable z;
    the emitted action is alpha * tanh(z). The final layer starts at zero
    so the initial mean action is exactly zero (the base action passes
    through unchanged) with unit pre-squash spread. alpha lies in (0, 1]:
    ``build_config`` checks a config's and ``ail.load_stack`` a bundle's.
    """

    def __init__(self, in_dim, act_dim, hidden, alpha, rng):
        dims = [in_dim] + list(hidden) + [2 * act_dim]
        acts = ["relu"] * len(hidden) + ["identity"]
        self.net = nets.MLP(dims, acts, rng, name="res", final_zero=True)
        self.in_dim = in_dim
        self.act_dim = act_dim
        self.alpha = float(alpha)

    def params(self):
        return self.net.params()

    def mean_np(self, x):
        """Deterministic scaled correction alpha * tanh(mean), (B, act_dim)."""
        return np.float32(self.alpha) * np.tanh(self.net.predict(_f32(x))[:, : self.act_dim])

    def sample_np(self, x, rng):
        """Draw a scaled correction alpha * tanh(z), (B, act_dim), without a
        tape. Draws eps of shape (B, act_dim) from rng, as the SAC target
        does before :meth:`sample_taped`, and computes no density."""
        eps = rng.standard_normal((len(x), self.act_dim), dtype=np.float32)
        with ad.no_grad():
            return self._sample(ad.Tensor(_f32(x)), eps)[0].data

    def _sample(self, x, eps):
        """The sampling rule: (alpha * tanh(z), z, log_std) tensors with
        z = mean + std * eps."""
        out = self.net(x)
        mean = ad.narrow(out, 0, self.act_dim)
        log_std = ad.clip(ad.narrow(out, self.act_dim, self.act_dim), LOG_STD_MIN, LOG_STD_MAX)
        z = ad.add(mean, ad.mul(ad.exp(log_std), ad.tensor(_f32(eps))))
        return ad.scale(ad.tanh(z), self.alpha), z, log_std

    def sample_taped(self, x, eps):
        """Reparameterized taped sample: (scaled action, logp) tensors.

        x is a Tensor (B, in_dim); eps a fixed float32 array (B, act_dim).
        The returned action is alpha * tanh(z) with z = mean + std * eps,
        shape (B, act_dim); logp, shape (B, 1), is its log-density:
        log N(z) - log|d(alpha tanh z)/dz| summed over the action, with
        log(1 - tanh(z)^2) = 2 (log 2 - z - softplus(-2z)).
        """
        action, z, log_std = self._sample(x, eps)
        const = _f32(-0.5 * eps**2 - _HALF_LOG_2PI - 2.0 * np.log(2.0) - np.log(self.alpha))
        terms = ad.add(ad.neg(log_std), ad.scale(z, 2.0))
        terms = ad.add(terms, ad.scale(ad.softplus(ad.scale(z, -2.0)), 2.0))
        terms = ad.add(terms, ad.tensor(const))
        return action, ad.sum_last(terms)


def make_bc_net(obs_dim, act_dim, hidden, rng):
    """Deterministic behavior-cloning net: normalized obs -> bounded action."""
    dims = [obs_dim] + list(hidden) + [act_dim]
    acts = ["relu"] * len(hidden) + ["tanh"]
    return nets.MLP(dims, acts, rng, name="bc")


def train_bc(demoset, hidden, updates, batch, lr, seed):
    """Fit a behavior-cloning net to the demonstrations by action regression.

    The seed's "bc" streams supply the per-update generators. Returns
    (net, loss history). Batches larger than the demo set fall back to
    full-batch updates, which makes tiny-set runs deterministic.
    """
    obs, act = demoset.transitions()
    obs_n = demoset.normalizer.transform(obs)
    net = make_bc_net(obs_n.shape[1], act.shape[1], hidden, stream(seed, "bc", 0))
    opt = Adam(net.params(), lr)
    history = []
    m = len(obs_n)
    for update in range(updates):
        if batch < m:
            rng = stream(seed, "bc", update + 1)
            idx = rng.integers(0, m, size=batch)
            xb, yb = obs_n[idx], act[idx]
        else:
            xb, yb = obs_n, act
        ad.zero_grads(net.params().values())
        loss = ad.mse(net(ad.tensor(xb)), ad.tensor(yb))
        ad.backward(loss)
        opt.step()
        history.append(float(loss.data))
    return net, history


def _bet_from(config, what):
    """The BeT that a header's config describes, with nothing drawn. A
    config with other fields than this version's BeTConfig is refused."""
    stored, fields = set(config or ()), {f.name for f in dataclasses.fields(BeTConfig)}
    if stored != fields:
        raise nets.CheckpointError(
            f"{what} does not match this version's BeTConfig: "
            f"stale keys {sorted(stored - fields)}, missing keys {sorted(fields - stored)}")
    return BeT(BeTConfig(**config), None)


# What a base checkpoint is, by kind: its file in a run or bundle, its name
# in messages, the header field that describes its net, how that field is
# read off a net, and how the net is rebuilt from it with nothing drawn.
BASES = {
    "bet": {"file": "bet.ckpt", "label": "sequence", "field": "config",
            "describe": lambda net: dataclasses.asdict(net.cfg), "build": _bet_from},
    "bc": {"file": "bc.ckpt", "label": "cloned", "field": "dims",
           "describe": lambda net: net.dims,
           "build": lambda dims, _: make_bc_net(dims[0], dims[-1], dims[1:-1], None)},
}


def save_base(path, kind, net, whitener, extra=None):
    """Write a base of a kind with the header field that describes its net
    and the whitener it was fitted with."""
    base = BASES[kind]
    nets.save_params(path, net.params(), {"kind": kind, base["field"]: base["describe"](net),
                                          "normalizer": whitener.to_dict(), **(extra or {})})


def load_base(path, kind):
    """Returns (net, whitener, meta) from a checkpoint that save_base wrote
    for a base of this kind. The net is rebuilt from the header, with
    nothing drawn, and read in place. A file of another kind, or one that
    records no whitener, is refused."""
    base = BASES[kind]
    what = f"{base['label']}-base checkpoint"
    built = []

    def into(meta, shapes):
        if meta.get("kind") != kind:
            raise nets.CheckpointError(f"not a {what}: {path}")
        if "normalizer" not in meta:
            raise nets.CheckpointError(f"{what} {path} records no whitener "
                                       "(an older checkpoint; fit the base again)")
        built.append(base["build"](meta.get(base["field"]), f"{what} {path}"))
        return built[0].params()

    meta, _ = nets.load_params(path, into)
    return built[0], Normalizer.from_dict(meta["normalizer"]), meta


class PolicyStack:
    """Runtime composition of an optional frozen base with a correction head.

    Built by :func:`build_policy_stack`. The stack owns two observation
    whiteners: ``normalizer``, fitted on the target course's demonstrations,
    for the correction head, and ``base_normalizer``, the one its base
    (either kind) was fitted with, for the base. On a course the base was
    not fitted on they differ, so an observation is whitened once for
    each. For sequence-model bases the stack also owns the short context
    ring of recent base-whitened observations. reset() must be called
    whenever the environment batch resets.
    """

    def __init__(self, mode, normalizer, bet, bc, residual, base_normalizer):
        self.mode = mode
        self.spec = MODE_SPECS[mode]
        self.normalizer = normalizer
        self.base_normalizer = base_normalizer if base_normalizer is not None else normalizer
        self.bet = bet
        self.bc = bc
        self.residual = residual
        self._history = None

    @property
    def has_base(self):
        return self.spec["base"] is not None

    @property
    def aug_dim(self):
        """Width of the correction head's input."""
        return self.residual.in_dim

    def params(self):
        """Every parameter the stack acts with, named by net: bet., bc., res."""
        held = {"bet": self.bet, "bc": self.bc, "res": self.residual}
        return {f"{prefix}.{name}": p for prefix, net in held.items() if net is not None
                for name, p in net.params().items()}

    def reset(self):
        if self.bet is not None:
            self._history = deque(maxlen=self.bet.cfg.eval_context)

    def base_action(self, obs):
        """Base proposal in [-1,1]^2 from raw obs; zeros without a base."""
        if self.bet is not None:
            if self._history is None:
                raise RuntimeError("stack.reset() must be called before acting")
            self._history.append(self.base_normalizer.transform(obs))
            window = np.stack(list(self._history), axis=1)
            return self.bet.predict_last(window).astype(np.float32)
        if self.bc is not None:
            return self.bc.predict(self.base_normalizer.transform(obs)).astype(np.float32)
        return np.zeros((len(obs), 2), dtype=np.float32)

    def _inputs(self, obs):
        """(base action, correction-head input) for raw obs; advances the
        context ring exactly as acting does."""
        base = self.base_action(obs)
        obs_n = self.normalizer.transform(obs)
        return base, np.concatenate([obs_n, base], axis=1) if self.has_base else obs_n

    def train_policy(self, rng):
        """Sampling policy callable for rollout collection.

        Needs a correction head. Extras per step: res (B,2) scaled
        correction and aug (B, aug_dim), whose last two columns hold the
        base action when there is a base.
        """

        def policy(obs):
            base, aug = self._inputs(obs)
            res = self.residual.sample_np(aug, rng)
            return np.clip(base + res, -1.0, 1.0), {"res": res, "aug": aug}

        return policy

    def eval_policy(self, env=None):
        """Deterministic policy callable: the base plus the mean correction."""

        def policy(obs):
            if self.residual is None:
                return self.base_action(obs), {}
            base, aug = self._inputs(obs)
            return np.clip(base + self.residual.mean_np(aug), -1.0, 1.0), {}

        return policy

    def final_augmented(self, obs):
        """Correction-head input for a rollout's closing observation: the
        successor input a stored transition bootstraps from."""
        return self._inputs(obs)[1]


def build_policy_stack(mode, normalizer, obs_dim, rng, hidden, alpha=None, bet=None,
                       bc=None, bet_normalizer=None):
    """Construct the stack for a mode, creating the correction head.

    The mode's base (bet or bc) must be given, and must read obs_dim
    features; a base for another mode is not used. bet_normalizer is the
    whitener of whichever base the stack has, the one it was fitted with;
    without one the base reads the observation as normalizer whitens it.
    alpha is required for modes with a base and a correction head; modes
    whose correction head is the whole policy ignore it (forced to 1).
    hidden gives the correction head's hidden widths (the run config's
    train.policy_hidden), and rng draws its weights; with rng None they
    are zero, for a head that a checkpoint is read into.
    """
    if mode not in MODE_SPECS:
        raise ValueError(f"unknown mode '{mode}'")
    spec = MODE_SPECS[mode]
    if spec["base"] is not None:
        base = bet if spec["base"] == "bet" else bc
        if base is None:
            raise ValueError(f"mode '{mode}' needs a {BASES[spec['base']]['label']} base")
        width = base.cfg.obs_dim if spec["base"] == "bet" else base.dims[0]
        if width != obs_dim:
            raise ValueError(f"the base reads {width} observation features, "
                             f"but the episode emits {obs_dim}")
    residual = None
    if spec["residual"]:
        if spec["base"] is not None and alpha is None:
            raise ValueError(f"mode '{mode}' requires alpha")
        eff_alpha = 1.0 if spec["base"] is None else float(alpha)
        in_dim = obs_dim + (2 if spec["base"] is not None else 0)
        residual = GaussianPolicy(in_dim, 2, hidden, eff_alpha, rng)
    return PolicyStack(mode, normalizer, bet if spec["base"] == "bet" else None,
                       bc if spec["base"] == "bc" else None, residual, bet_normalizer)
