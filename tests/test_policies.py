"""Tests for action composition and the correction-head policy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racelab import autodiff as ad
from racelab import nets
from racelab.bet import BeT, BeTConfig
from racelab.env import OBS_CLIP, Normalizer
from racelab.policies import GaussianPolicy, build_policy_stack, load_bc, make_bc_net

RNG = np.random.default_rng


def _normalizer(dim):
    norm = Normalizer.fit(RNG(11).standard_normal((64, dim)).astype(np.float32))
    return norm


# ---------------------------------------------------------------------------
# Composition law

def _fixed_stack(base, z, alpha):
    """A bcail stack whose base proposes `base` and whose correction head's
    pre-squash mean is `z`, whatever the observation."""
    bc = make_bc_net(4, 2, (8,), RNG(1))
    bc.layers[-1].W.data[...] = 0.0
    bc.layers[-1].b.data[...] = np.arctanh(np.asarray(base, dtype=np.float64))
    stack = build_policy_stack("bcail", _normalizer(4), 4, RNG(2), alpha=alpha, bc=bc,
                               hidden=(8,))
    stack.residual.net.layers[-1].b.data[:2] = z
    return stack


def _eval_action(stack, seed=12):
    return stack.eval_policy()(RNG(seed).standard_normal((1, 4)).astype(np.float32))[0]


def test_compose_action_known_values():
    act = _eval_action(_fixed_stack([0.5, -0.2], [20.0, -20.0], 0.1))  # tanh(20) == 1
    np.testing.assert_allclose(act, [[0.6, -0.3]], rtol=1e-6)


def test_compose_action_clips_to_env_range():
    act = _eval_action(_fixed_stack([0.95, -0.95], [20.0, -20.0], 0.2))
    np.testing.assert_array_equal(act, [[1.0, -1.0]])


@settings(max_examples=100, deadline=None)
@given(
    base=st.lists(st.floats(-0.9921875, 0.9921875, width=32), min_size=2, max_size=2),
    z=st.lists(st.floats(-20.0, 20.0, width=32), min_size=2, max_size=2),
    alpha=st.floats(0.015625, 1.0, width=32),
)
def test_composition_bound_property(base, z, alpha):
    """|action - base| <= alpha and action stays in [-1, 1]."""
    stack = _fixed_stack(base, z, alpha)
    obs = RNG(12).standard_normal((1, 4)).astype(np.float32)
    act = stack.eval_policy()(obs)[0]
    assert np.all(act >= -1.0) and np.all(act <= 1.0)
    # clipping can only shrink the step away from the base proposal
    assert np.all(np.abs(act - stack.base_action(obs)) <= alpha + 1e-6)


def test_scale_residual_is_linear():
    """mean_np is the scaled correction alpha * tanh(mean), linear in alpha."""
    heads = [GaussianPolicy(5, 2, (16,), alpha, RNG(0)) for alpha in (0.2, 0.4)]
    for head in heads:
        _perturb(head)
    x = RNG(4).standard_normal((7, 5)).astype(np.float32)
    small, large = (head.mean_np(x) for head in heads)
    (w0, b0), (w1, b1) = ((layer.W.data, layer.b.data) for layer in heads[0].net.layers)
    mean = (np.maximum(x @ w0 + b0, 0.0) @ w1 + b1)[:, :2]
    np.testing.assert_array_equal(small, np.float32(0.2) * np.tanh(mean))
    np.testing.assert_array_equal(large, 2 * small)


# ---------------------------------------------------------------------------
# Gaussian correction head

def test_zero_init_mean_passthrough():
    """A fresh head proposes exactly zero correction everywhere."""
    pol = GaussianPolicy(6, 2, (16, 16), 0.3, RNG(0))
    x = RNG(1).standard_normal((9, 6)).astype(np.float32)
    np.testing.assert_array_equal(pol.mean_np(x), np.zeros((9, 2), np.float32))


def _perturb(pol, scale=0.5, seed=3):
    rng = RNG(seed)
    for p in pol.params().values():
        p.data += scale * rng.standard_normal(p.data.shape).astype(np.float32)


def test_sample_matches_numpy_reference():
    """sample_np draws eps from rng and emits alpha * tanh(mean + std * eps),
    bit for bit the same float32 arithmetic written in plain numpy."""
    pol = GaussianPolicy(5, 2, (16,), 0.4, RNG(0))
    _perturb(pol)
    x = RNG(4).standard_normal((7, 5)).astype(np.float32)
    act = pol.sample_np(x, RNG(5))
    eps = RNG(5).standard_normal((7, 2), dtype=np.float32)
    (w0, b0), (w1, b1) = ((layer.W.data, layer.b.data) for layer in pol.net.layers)
    out = np.maximum(x @ w0 + b0, 0.0) @ w1 + b1
    z = out[:, :2] + np.exp(np.clip(out[:, 2:], -20.0, 2.0)) * eps
    np.testing.assert_array_equal(act, np.float32(0.4) * np.tanh(z))
    assert act.dtype == np.float32
    # The taped sampler emits the same action for the same eps.
    with ad.no_grad():
        taped, logp = pol.sample_taped(ad.tensor(x), eps)
    np.testing.assert_array_equal(taped.data, act)
    assert logp.data.dtype == np.float32
    assert logp.shape == (7, 1)


def test_sample_np_builds_no_density():
    """A rollout draw builds the action's tensors only: the input, two
    affine layers, two narrows, clip, exp, eps, mul, add, tanh and scale.
    The density's ten more belong to sample_taped."""
    pol = GaussianPolicy(5, 2, (16,), 0.4, RNG(0))
    x = RNG(1).standard_normal((3, 5)).astype(np.float32)
    before = ad.Tensor(0.0)._serial
    pol.sample_np(x, RNG(2))
    assert ad.Tensor(0.0)._serial - before - 1 == 12
    before = ad.Tensor(0.0)._serial
    with ad.no_grad():
        pol.sample_taped(ad.Tensor(x), RNG(2).standard_normal((3, 2), dtype=np.float32))
    assert ad.Tensor(0.0)._serial - before - 1 == 22


def test_logp_matches_change_of_variables_oracle():
    """Density of a = alpha*tanh(mu + sigma*eps) via the analytic Jacobian.

    Independent oracle: base normal density minus log|da/dz| with
    da/dz = alpha * (1 - tanh(z)^2), computed directly in float64.
    """
    alpha = 0.25
    pol = GaussianPolicy(3, 2, (12,), alpha, RNG(0))
    _perturb(pol, scale=0.3)
    x = RNG(6).standard_normal((5, 3)).astype(np.float32)
    eps = RNG(7).standard_normal((5, 2)).astype(np.float32)

    with ad.no_grad():
        act, logp = (t.data for t in pol.sample_taped(ad.tensor(x), eps))
    logp = logp[:, 0]
    out = pol.net.predict(x).astype(np.float64)
    mean, log_std = out[:, :2], np.clip(out[:, 2:], -5.0, 2.0)
    z64 = mean + np.exp(log_std) * eps.astype(np.float64)
    base = -0.5 * eps.astype(np.float64) ** 2 - log_std - 0.5 * np.log(2 * np.pi)
    jac = np.log(alpha) + np.log1p(-np.tanh(z64) ** 2 + 1e-300)
    oracle = (base - jac).sum(axis=1)
    np.testing.assert_allclose(logp, oracle, rtol=1e-3, atol=1e-3)
    np.testing.assert_allclose(act, alpha * np.tanh(z64), rtol=1e-4, atol=1e-4)


def test_actor_gradient_matches_finite_difference():
    """d/dtheta of mean logp agrees with central differences."""
    pol = GaussianPolicy(3, 2, (8,), 0.5, RNG(0))
    _perturb(pol, scale=0.2)
    x = RNG(8).standard_normal((6, 3)).astype(np.float32)
    eps = RNG(9).standard_normal((6, 2)).astype(np.float32)
    params = pol.params()

    def loss_value():
        _, logp = pol.sample_taped(ad.tensor(x), eps)
        return float(np.mean(logp.data.astype(np.float64)))

    ad.zero_grads(params.values())
    _, logp_t = pol.sample_taped(ad.tensor(x), eps)
    ad.backward(ad.mean_all(logp_t))

    rng = RNG(10)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            h = 1e-3
            keep = flat[idx]
            flat[idx] = keep + h
            up = loss_value()
            flat[idx] = keep - h
            down = loss_value()
            flat[idx] = keep
            fd = (up - down) / (2 * h)
            got = p.grad.reshape(-1)[idx]
            assert got == pytest.approx(fd, rel=0.05, abs=2e-4), name


# ---------------------------------------------------------------------------
# Policy stack wiring

def test_stack_mode_validation():
    norm = _normalizer(4)
    with pytest.raises(ValueError, match="unknown mode 'nosuch'"):
        build_policy_stack("nosuch", norm, 4, RNG(0))
    with pytest.raises(ValueError, match="needs a sequence-model base"):
        build_policy_stack("betail", norm, 4, RNG(0), alpha=0.1)
    with pytest.raises(ValueError, match="needs a sequence-model base"):
        build_policy_stack("bet", norm, 4, RNG(0))
    with pytest.raises(ValueError, match="needs a behavior-cloned base"):
        build_policy_stack("bcail", norm, 4, RNG(0), alpha=0.1)


@pytest.mark.parametrize("kind", ["bet", "bc"])
def test_stack_rejects_a_base_of_another_observation_width(kind):
    # A base fitted on episodes with other feature counts.
    base = make_bc_net(48, 2, (8,), RNG(0)) if kind == "bc" else BeT(
        BeTConfig(obs_dim=48, embed_dim=8, n_layers=1, n_heads=2, context=4, eval_context=2), RNG(0))
    with pytest.raises(ValueError, match="^the base reads 48 observation features.*emits 50$"):
        build_policy_stack(f"{kind}ail", _normalizer(50), 50, RNG(0), alpha=0.1, **{kind: base})


def test_a_cloned_base_without_a_whitener_is_refused(tmp_path):
    bc = make_bc_net(4, 2, (8,), RNG(1))
    path = str(tmp_path / "bc.ckpt")
    nets.save_params(path, bc.params(), {"kind": "bc", "dims": bc.dims})
    with pytest.raises(nets.CheckpointError, match=f"^cloned-base checkpoint {path} records no "):
        load_bc(path)


def test_stack_params_name_every_net_it_acts_with():
    bet = BeT(BeTConfig(obs_dim=4, embed_dim=8, n_layers=1, n_heads=2, context=4,
                        eval_context=2), RNG(0))
    stack = build_policy_stack("betail", _normalizer(4), 4, RNG(1), alpha=0.1, bet=bet,
                               hidden=(8,))
    assert stack.params() == {**{f"bet.{k}": p for k, p in bet.params().items()},
                              **{f"res.{k}": p for k, p in stack.residual.params().items()}}
    bc = make_bc_net(4, 2, (8,), RNG(1))
    assert stack.aug_dim == stack.residual.in_dim == 6
    assert build_policy_stack("bc", _normalizer(4), 4, RNG(1), bc=bc).params() == {
        f"bc.{k}": p for k, p in bc.params().items()}


def test_stack_without_base_acts_pure_residual():
    norm = _normalizer(4)
    stack = build_policy_stack("ail", norm, 4, RNG(0), hidden=(8,))
    assert not stack.has_base
    assert stack.aug_dim == 4
    obs = RNG(12).standard_normal((3, 4)).astype(np.float32)
    act, _ = stack.eval_policy()(obs)
    # zero-initialized head => zero action through the identity composition
    np.testing.assert_array_equal(act, np.zeros((3, 2), np.float32))


def test_stack_bc_base_composition_is_exact():
    """bcail emits clip(base + float32(alpha) * tanh(mean)), written inline in
    numpy, where the base reads the obs as its own whitener whitens it and
    the head reads [obs whitened for the target course, base]."""
    norm = _normalizer(4)
    bc_norm = Normalizer.fit(RNG(17).standard_normal((64, 4)).astype(np.float32) * 3.0)
    bc = make_bc_net(4, 2, (8,), RNG(1))
    stack = build_policy_stack("bcail", norm, 4, RNG(2), alpha=0.2, bc=bc, hidden=(8,),
                               bet_normalizer=bc_norm)
    _perturb(stack.residual, scale=0.4, seed=13)
    obs = RNG(14).standard_normal((5, 4)).astype(np.float32)
    base = bc.predict(bc_norm.transform(obs))
    np.testing.assert_array_equal(stack.base_action(obs), base)
    assert not np.array_equal(base, bc.predict(norm.transform(obs)))
    x = np.concatenate([norm.transform(obs), base], axis=1)
    (w0, b0), (w1, b1) = ((layer.W.data, layer.b.data) for layer in stack.residual.net.layers)
    mean = (np.maximum(x @ w0 + b0, 0.0) @ w1 + b1)[:, :2]
    expected = np.clip(base + np.float32(0.2) * np.tanh(mean), -1.0, 1.0)
    act, _ = stack.eval_policy()(obs)
    assert not np.array_equal(act, base)
    np.testing.assert_array_equal(act, expected)


def test_stack_train_policy_extras_consistent():
    norm = _normalizer(4)
    bc = make_bc_net(4, 2, (8,), RNG(1))
    stack = build_policy_stack("bcail", norm, 4, RNG(2), alpha=0.2, bc=bc, hidden=(8,))
    obs = RNG(15).standard_normal((6, 4)).astype(np.float32)
    act, extras = stack.train_policy(RNG(16))(obs)
    base = extras["aug"][:, -2:]
    np.testing.assert_array_equal(base, stack.base_action(obs))
    np.testing.assert_array_equal(act, np.clip(base + extras["res"], -1.0, 1.0))
    assert extras["aug"].shape == (6, 6)
    assert set(extras) == {"res", "aug"}


def test_augment_saturates_whitened_features():
    """The correction head's augmented input stays within the clip bound
    however far the raw features lie outside the demonstrations."""
    norm = Normalizer(mean=np.zeros(3, np.float32), std=np.full(3, 1e-4, np.float32))
    stack = build_policy_stack("ail", norm, 3, RNG(0), hidden=(8,))
    wild = np.full((2, 3), 1e6, dtype=np.float32)
    assert np.all(np.abs(stack.final_augmented(wild)) <= OBS_CLIP)


def test_build_policy_stack_requires_alpha_for_based_modes():
    norm = _normalizer(4)
    bc = make_bc_net(4, 2, (8,), RNG(1))
    with pytest.raises(ValueError):
        build_policy_stack("bcail", norm, 4, RNG(0), alpha=None, bc=bc)
    stack = build_policy_stack("bcail", norm, 4, RNG(0), alpha=0.3, bc=bc)
    assert stack.residual.alpha == 0.3
    # pure correction modes force full authority regardless of alpha
    stack = build_policy_stack("ail", norm, 4, RNG(0))
    assert stack.residual.alpha == 1.0
