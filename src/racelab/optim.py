"""First-order optimizers over named parameter collections.

Both optimizers run one loop: per-parameter moment buffers keyed by
parameter name, bias-corrected moments, and a step of lr times a
per-parameter ratio (1 for Adam, the trust ratio for Lamb). Weight decay
is decoupled (applied to the parameter directly, not through the
gradient) and skipped for parameters whose name marks them as bias or
normalization terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AdamConfig", "Adam", "LambConfig", "Lamb"]

# Bias, layer-norm, and embedding-table parameters are conventionally
# excluded from decay.
NO_DECAY_SUFFIXES = (".b", ".gain", ".bias", ".emb")


def _decays(name):
    return not name.endswith(NO_DECAY_SUFFIXES)


@dataclass
class AdamConfig:
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0


class Adam:
    """Adam with decoupled weight decay.

    With eps -> 0 the first step moves every coordinate by exactly
    lr * sign(gradient), which the tests pin down.
    """

    def __init__(self, params, config=None):
        self.params = dict(params)
        self.config = config or AdamConfig()
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def _ratio(self, w, update):
        """Per-parameter multiplier of the learning rate; 1 for Adam."""
        return 1.0

    def step(self):
        c = self.config
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            v *= c.beta2
            v += (1.0 - c.beta2) * g * g
            m_hat = m / (1.0 - c.beta1**t)
            v_hat = v / (1.0 - c.beta2**t)
            update = m_hat / (np.sqrt(v_hat) + c.eps)
            if c.weight_decay and _decays(name):
                update = update + c.weight_decay * p.data
            p.data -= c.lr * self._ratio(p.data, update) * update

    def state_dict(self):
        return {
            "step_count": self.step_count,
            "m": {k: v.copy() for k, v in self.m.items()},
            "v": {k: v.copy() for k, v in self.v.items()},
        }

    def load_state_dict(self, state):
        self.step_count = int(state["step_count"])
        for k in self.m:
            self.m[k][...] = state["m"][k]
            self.v[k][...] = state["v"][k]


@dataclass
class LambConfig(AdamConfig):
    lr: float = 1e-4
    eps: float = 1e-6
    trust_clip: float = 10.0


class Lamb(Adam):
    """Layer-wise adaptive moments: Adam update rescaled per parameter.

    Each parameter's Adam direction (plus decoupled decay) is renormalized
    by the trust ratio ||theta|| / ||update||, clipped above, with ratio 1
    when either norm is zero.
    """

    def __init__(self, params, config=None):
        super().__init__(params, config or LambConfig())

    def _ratio(self, w, update):
        w_norm = float(np.linalg.norm(w))
        u_norm = float(np.linalg.norm(update))
        if w_norm > 0.0 and u_norm > 0.0:
            return min(w_norm / u_norm, self.config.trust_clip)
        return 1.0
