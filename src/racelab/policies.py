"""Gaussian control heads and the base+residual policy stacks.

A stack composes an optional frozen base policy (sequence model or
behavior-cloned net) with a small stochastic correction head. The
correction is a tanh-squashed diagonal Gaussian whose output is scaled
to [-alpha, alpha] and added to the base action; the environment sees
the clipped sum. Stacks without a base treat the correction head as the
whole policy (alpha = 1) and feed it the observation alone.

This module owns every rule of the stack; the trainer, the evaluator and
the command line only call it.

Conventions
-----------
* ``build_policy_stack`` is the one constructor. It checks the mode, the
  base it needs and the base's input width, and sizes the correction head.
* The correction head consumes the augmented input [whitened obs, base
  action] when a base is present, else the whitened obs. Whitening is
  ``Normalizer.transform``, which also saturates outliers.
* Both heads' outputs are scaled corrections: ``sample_np`` draws
  alpha * tanh(z), ``mean_np`` returns alpha * tanh(mean). Training and
  evaluation emit the same composition, clip(base + correction, -1, 1).
* Sampled log-densities include both the tanh change of variables and
  the alpha scaling, so they are densities of the emitted action.
* The sampler and its density are written once, on the tape
  (``sample_taped``); rollouts and bootstrap targets run it under
  ``autodiff.no_grad()`` (``sample_np``).
* All boundary values (actions, observations, log-probs) are float32.
"""

from collections import deque

import numpy as np

from . import autodiff as ad
from . import nets

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
_HALF_LOG_2PI = 0.5 * float(np.log(2.0 * np.pi))

# What each stack mode is made of and which reward trains it.
#   base: "bet" | "bc" | None;
#   residual: correction head present, trained by the rollout/update loop
#     (a mode without one is supervised only);
#   reward: "disc" (adversarial proxy) | "env" (progress-penalty) | None.
MODE_SPECS = {
    "betail": {"base": "bet", "residual": True, "reward": "disc"},
    "ail": {"base": None, "residual": True, "reward": "disc"},
    "bc": {"base": "bc", "residual": False, "reward": None},
    "bcail": {"base": "bc", "residual": True, "reward": "disc"},
    "sac": {"base": None, "residual": True, "reward": "env"},
    "betsac": {"base": "bet", "residual": True, "reward": "env"},
    # Frozen sequence-model base acting alone; evaluation only.
    "bet": {"base": "bet", "residual": False, "reward": None},
}

TRAIN_MODES = ("betail", "ail", "bc", "bcail", "sac", "betsac")


def _f32(x):
    return np.asarray(x, dtype=np.float32)


class GaussianPolicy:
    """Tanh-squashed diagonal Gaussian head with output scale alpha.

    The net maps the input to (mean, log-std) of a pre-squash variable z;
    the emitted action is alpha * tanh(z). The final layer starts at zero
    so the initial mean action is exactly zero (the base action passes
    through unchanged) with unit pre-squash spread.
    """

    def __init__(self, in_dim, act_dim, hidden, alpha, rng, name="res"):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        dims = [in_dim] + list(hidden) + [2 * act_dim]
        acts = ["relu"] * len(hidden) + ["identity"]
        self.net = nets.MLP(dims, acts, rng, name=name, final_zero=True)
        self.in_dim = in_dim
        self.act_dim = act_dim
        self.alpha = float(alpha)

    def params(self):
        return self.net.params()

    def mean_np(self, x):
        """Deterministic scaled correction alpha * tanh(mean), (B, act_dim)."""
        return np.float32(self.alpha) * np.tanh(self.net.predict(_f32(x))[:, : self.act_dim])

    def sample_np(self, x, rng):
        """Draw (action, logp) arrays without a tape.

        Draws eps of shape (B, act_dim) from rng, then runs
        :meth:`sample_taped` under ``no_grad``: action is the scaled
        correction alpha * tanh(z), (B, act_dim); logp is (B,).
        """
        x = _f32(x)
        eps = rng.standard_normal((len(x), self.act_dim), dtype=np.float32)
        with ad.no_grad():
            action, logp = self.sample_taped(ad.Tensor(x), eps)
        return action.data, logp.data[:, 0]

    def sample_taped(self, x, eps):
        """Reparameterized taped sample: (scaled action, logp) tensors.

        x is a Tensor (B, in_dim); eps a fixed float32 array (B, act_dim).
        The returned action is alpha * tanh(z) with z = mean + std * eps,
        shape (B, act_dim); logp, shape (B, 1), is its log-density:
        log N(z) - log|d(alpha tanh z)/dz| summed over the action, with
        log(1 - tanh(z)^2) = 2 (log 2 - z - softplus(-2z)).
        """
        out = self.net(x)
        mean = ad.narrow(out, 0, self.act_dim)
        log_std = ad.clip(ad.narrow(out, self.act_dim, self.act_dim), LOG_STD_MIN, LOG_STD_MAX)
        z = ad.add(mean, ad.mul(ad.exp(log_std), ad.tensor(_f32(eps))))
        action = ad.scale(ad.tanh(z), self.alpha)
        const = _f32(-0.5 * eps**2 - _HALF_LOG_2PI - 2.0 * np.log(2.0) - np.log(self.alpha))
        terms = ad.add(ad.neg(log_std), ad.scale(z, 2.0))
        terms = ad.add(terms, ad.scale(ad.softplus(ad.scale(z, -2.0)), 2.0))
        terms = ad.add(terms, ad.tensor(const))
        return action, ad.sum_last(terms, keepdims=True)


def make_bc_net(obs_dim, act_dim, hidden, rng, name="bc"):
    """Deterministic behavior-cloning net: normalized obs -> bounded action."""
    dims = [obs_dim] + list(hidden) + [act_dim]
    acts = ["relu"] * len(hidden) + ["tanh"]
    return nets.MLP(dims, acts, rng, name=name)


def train_bc(demoset, hidden, updates, batch, lr, seed, stream_fn, progress=None):
    """Fit a behavior-cloning net to the demonstrations by action regression.

    stream_fn(seed, phase, *counters) supplies the per-update generators.
    Returns (net, loss history). Batches larger than the demo set fall
    back to full-batch updates, which makes tiny-set runs deterministic.
    """
    from .optim import Adam, AdamConfig

    obs, act = demoset.transitions()
    obs_n = demoset.normalizer.transform(obs)
    net = make_bc_net(obs_n.shape[1], act.shape[1], hidden, stream_fn(seed, "bc", 0))
    opt = Adam(net.params(), AdamConfig(lr=lr))
    history = []
    m = len(obs_n)
    for update in range(updates):
        if batch < m:
            rng = stream_fn(seed, "bc", update + 1)
            idx = rng.integers(0, m, size=batch)
            xb, yb = obs_n[idx], act[idx]
        else:
            xb, yb = obs_n, act
        ad.zero_grads(net.params().values())
        loss = ad.mse(net(ad.tensor(xb)), ad.tensor(yb))
        ad.backward(loss)
        opt.step()
        history.append(float(loss.data))
        if progress is not None and (update + 1) % 200 == 0:
            progress(update + 1, history[-1])
    return net, history


class PolicyStack:
    """Runtime composition of an optional frozen base with a correction head.

    Built by :func:`build_policy_stack`. The stack owns the observation
    whitener and, for sequence-model bases, the short context ring of
    recent whitened observations. reset() must be called whenever the
    environment batch resets.
    """

    def __init__(self, mode, normalizer, bet, bc, residual, bet_normalizer):
        self.mode = mode
        self.spec = MODE_SPECS[mode]
        self.normalizer = normalizer
        # The sequence base keeps the whitening it was trained with; on a
        # new course that differs from the fine-tuning whitening.
        self.bet_normalizer = bet_normalizer if bet_normalizer is not None else normalizer
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
            self._history.append(self.bet_normalizer.transform(obs))
            window = np.stack(list(self._history), axis=1)
            return self.bet.predict_last(window).astype(np.float32)
        if self.bc is not None:
            return self.bc.predict(self.normalizer.transform(obs)).astype(np.float32)
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
            res, _ = self.residual.sample_np(aug, rng)
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


def build_policy_stack(mode, normalizer, obs_dim, rng, alpha=None, bet=None,
                       bc=None, hidden=(256, 256), bet_normalizer=None):
    """Construct the stack for a mode, creating the correction head.

    The mode's base (bet or bc) must be given; a base for another mode is
    not used. alpha is required for modes with a base and a correction
    head; modes whose correction head is the whole policy ignore it
    (forced to 1).
    """
    if mode not in MODE_SPECS:
        raise ValueError(f"unknown mode '{mode}'")
    spec = MODE_SPECS[mode]
    if spec["base"] == "bet" and bet is None:
        raise ValueError(f"mode '{mode}' needs a sequence-model base")
    if spec["base"] == "bc" and bc is None:
        raise ValueError(f"mode '{mode}' needs a behavior-cloned base")
    if spec["base"] == "bet" and bet.cfg.obs_dim != obs_dim:
        raise ValueError(f"the sequence base reads {bet.cfg.obs_dim} observation features, "
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
