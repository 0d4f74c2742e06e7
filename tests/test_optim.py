"""Hand-derived update oracles for the Adam and Lamb optimizers."""

import numpy as np

import racelab.autodiff as ad
from racelab.optim import BETA1, BETA2, Adam, Lamb


def make_param(values):
    t = ad.Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
    return t


class TestAdam:
    def test_first_step_is_lr_times_sign_as_eps_vanishes(self):
        p = make_param([1.0, -2.0, 3.0])
        p.grad = np.asarray([0.5, -4.0, 1e-3])
        opt = Adam({"w.W": p}, 0.01)
        opt.eps = 1e-12
        before = p.data.copy()
        opt.step()
        step = before - p.data
        assert np.allclose(step, 0.01 * np.sign([0.5, -4.0, 1e-3]), atol=1e-6)

    def test_two_steps_match_reference_formula(self):
        # Independent scalar reference computed inline with the textbook
        # recursion, distinct code path from the implementation.
        lr, b1, b2, eps = 0.1, BETA1, BETA2, Adam.eps
        grads = [0.3, -0.7]
        theta_ref = 2.0
        m = v = 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            theta_ref -= lr * mhat / (np.sqrt(vhat) + eps)
        p = make_param([2.0])
        opt = Adam({"w.W": p}, lr)
        for g in grads:
            p.grad = np.asarray([g])
            opt.step()
        assert abs(float(p.data[0]) - theta_ref) < 1e-12

    def test_state_roundtrip_resumes_identically(self):
        rng = np.random.default_rng(0)
        p1 = make_param(rng.standard_normal(4))
        p2 = make_param(p1.data.copy())
        o1 = Adam({"x.W": p1}, 0.05)
        o2 = Adam({"x.W": p2}, 0.05)
        gseq = [rng.standard_normal(4) for _ in range(5)]
        for g in gseq[:2]:
            p1.grad = g.copy()
            o1.step()
            p2.grad = g.copy()
            o2.step()
        state = o1.state_dict()
        o3 = Adam({"x.W": p2}, 0.05)
        o3.load_state_dict(state)
        for g in gseq[2:]:
            p1.grad = g.copy()
            o1.step()
            p2.grad = g.copy()
            o3.step()
        assert np.array_equal(p1.data, p2.data)


class TestLamb:
    def test_decoupled_weight_decay_skips_bias_names(self):
        w = make_param([1.0])
        b = make_param([1.0])
        w.grad = np.asarray([0.0])
        b.grad = np.asarray([0.0])
        opt = Lamb({"l.W": w, "l.b": b}, 0.1, 0.5)
        opt.step()
        # Zero gradient: only the decay term moves the weight.
        assert float(w.data[0]) < 1.0
        assert float(b.data[0]) == 1.0

    def test_trust_ratio_rescales_update(self):
        # Single step from a fresh state: the Adam direction is sign(g),
        # so the update norm is sqrt(n) and the trust ratio is
        # ||theta|| / sqrt(n); verify the step against that closed form.
        theta = np.asarray([3.0, 4.0])
        g = np.asarray([0.2, -0.1])
        p = make_param(theta.copy())
        p.grad = g.copy()
        lr = 0.01
        opt = Lamb({"x.W": p}, lr, 0.0)
        opt.eps = 1e-12
        opt.step()
        direction = np.sign(g)
        ratio = np.linalg.norm(theta) / np.linalg.norm(direction)
        expected = theta - lr * ratio * direction
        assert np.allclose(p.data, expected, atol=1e-9)

    def test_zero_norm_parameter_uses_unit_ratio(self):
        p = make_param([0.0, 0.0])
        p.grad = np.asarray([1.0, -1.0])
        lr = 0.01
        opt = Lamb({"x.W": p}, lr, 0.0)
        opt.eps = 1e-12
        opt.step()
        assert np.allclose(p.data, -lr * np.sign(p.grad) * 1.0, atol=1e-9)

    def test_trust_ratio_clipped(self):
        p = make_param([1e6, 0.0])
        p.grad = np.asarray([1e-3, 1e-3])
        opt = Lamb({"x.W": p}, 1.0, 0.0)
        opt.eps = 1e-12
        before = p.data.copy()
        opt.step()
        moved = np.linalg.norm(before - p.data)
        # Without the clip the ratio would be ~7e5.
        assert moved <= 10.0 * np.sqrt(2.0) + 1e-6

    def test_state_roundtrip_resumes_identically(self):
        rng = np.random.default_rng(1)
        p1 = make_param(rng.standard_normal(3))
        p2 = make_param(p1.data.copy())
        o1 = Lamb({"x.W": p1}, 0.05, 0.0)
        gseq = [rng.standard_normal(3) for _ in range(4)]
        for g in gseq[:2]:
            p1.grad = g.copy()
            o1.step()
        o2 = Lamb({"x.W": p2}, 0.05, 0.0)
        for g in gseq[:2]:
            p2.grad = g.copy()
            o2.step()
        o2.load_state_dict(o1.state_dict())
        for g in gseq[2:]:
            p1.grad = g.copy()
            o1.step()
            p2.grad = g.copy()
            o2.step()
        assert np.array_equal(p1.data, p2.data)
