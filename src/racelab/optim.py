"""First-order optimizers over named parameter collections.

Both optimizers run one loop: per-parameter moment buffers keyed by
parameter name, bias-corrected moments, and a step of lr times a
per-parameter ratio (1 for Adam, the trust ratio for Lamb). The loop
reads the moment decays BETA1 and BETA2 from the module and eps and
weight_decay from the optimizer: eps is a class constant, and
weight_decay is 0 on Adam, so only Lamb decays. Weight decay is
decoupled (applied to the parameter directly, not through the gradient)
and skipped for parameters whose name marks them as bias or
normalization terms.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Adam", "Lamb"]

BETA1 = 0.9
BETA2 = 0.999

# Bias, layer-norm, and embedding-table parameters are conventionally
# excluded from decay.
NO_DECAY_SUFFIXES = (".b", ".gain", ".bias", ".emb")


def _decays(name):
    return not name.endswith(NO_DECAY_SUFFIXES)


class Adam:
    """Adam without weight decay.

    With eps -> 0 the first step moves every coordinate by exactly
    lr * sign(gradient), which the tests pin down.
    """

    eps = 1e-8
    weight_decay = 0.0

    def __init__(self, params, lr):
        self.params = dict(params)
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def _ratio(self, w, update):
        """Per-parameter multiplier of the learning rate; 1 for Adam."""
        return 1.0

    def step(self):
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / (1.0 - BETA1**t)
            v_hat = v / (1.0 - BETA2**t)
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay and _decays(name):
                update = update + self.weight_decay * p.data
            p.data -= self.lr * self._ratio(p.data, update) * update

    def state_dict(self):
        """The step count and the moment buffers by parameter name. The
        buffers are the live ones, not copies: a checkpoint is written from
        them and read back into them in place."""
        return {"step_count": self.step_count, "m": self.m, "v": self.v}


class Lamb(Adam):
    """Layer-wise adaptive moments: Adam update rescaled per parameter.

    Each parameter's Adam direction (plus decoupled decay) is renormalized
    by the trust ratio ||theta|| / ||update||, clipped above at
    trust_clip, with ratio 1 when either norm is zero.
    """

    eps = 1e-6
    trust_clip = 10.0

    def __init__(self, params, lr, weight_decay):
        super().__init__(params, lr)
        self.weight_decay = weight_decay

    def _ratio(self, w, update):
        w_norm = float(np.linalg.norm(w))
        u_norm = float(np.linalg.norm(update))
        if w_norm > 0.0 and u_norm > 0.0:
            return min(w_norm / u_norm, self.trust_clip)
        return 1.0
