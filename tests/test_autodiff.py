"""Finite-difference oracles and tape-semantics checks for the autodiff core.

Every differentiable op is checked against a central finite difference in
float64: the directional derivative of a probe-weighted scalar must match
the tape gradient to 1e-6 relative error. Subgradient conventions at
kinks, the exact causal mask, and error behavior are pinned separately.
"""

import numpy as np
import pytest

import racelab.autodiff as ad


def probe_loss(out, w):
    """Reduce an op output to a scalar with fixed probe weights."""
    return ad.mean_all(ad.mul(out, ad.tensor(w)))


def check_grads(build, inputs, rng, h=1e-6, tol=1e-6):
    """Compare tape gradients of build(*tensors) to central differences.

    build maps leaf tensors to a scalar tensor. Each input gets one
    randomized direction; the directional derivative from the filled
    gradients must match (f(x+hd) - f(x-hd)) / 2h.
    """
    with ad.precision("float64"):
        leaves = [ad.tensor(x, requires_grad=True) for x in inputs]
        loss = build(*leaves)
        ad.backward(loss)
        for k, leaf in enumerate(leaves):
            d = rng.standard_normal(leaf.data.shape)
            analytic = float(np.sum(leaf.grad * d))
            shifted = [x.copy() for x in inputs]
            shifted[k] = inputs[k] + h * d
            hi = build(*[ad.tensor(x) for x in shifted])
            shifted[k] = inputs[k] - h * d
            lo = build(*[ad.tensor(x) for x in shifted])
            fd = (float(hi.data) - float(lo.data)) / (2.0 * h)
            assert abs(analytic - fd) <= tol * max(1.0, abs(analytic), abs(fd)), (
                f"input {k}: analytic {analytic} vs fd {fd}"
            )


def _row_max_causal_softmax(x):
    """The causal softmax as it took its row max, with one reduction over
    the last axis; the reference for the column-by-column max."""
    t = x.shape[-1]
    w = x + np.triu(np.full((t, t), -np.inf, dtype=x.dtype), 1)
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    totals = w[..., :1].copy()
    for j in range(1, t):
        totals += w[..., j : j + 1]
    w /= totals
    return w


def _same_bits(a, b):
    """Equal dtype, shape and bytes: unlike array_equal, -0.0 != 0.0."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _split_heads(x, n_heads):
    # (B, T, H*d) -> (H*B, T, d), head-major, as a contiguous copy.
    b, t, width = x.shape
    d = width // n_heads
    return x.reshape(b, t, n_heads, d).transpose(2, 0, 1, 3).reshape(n_heads * b, t, d)


def _merge_heads(x, n_heads):
    # (H*B, T, d) -> (B, T, H*d): heads side by side in head order.
    hb, t, d = x.shape
    b = hb // n_heads
    return x.reshape(n_heads, b, t, d).transpose(1, 2, 0, 3).reshape(b, t, n_heads * d)


def _split_heads_transposed(x, n_heads):
    # (B, T, H*d) -> (H*B, d, T): the keys of _split_heads, contiguous.
    b, t, width = x.shape
    d = width // n_heads
    return x.reshape(b, t, n_heads, d).transpose(2, 0, 3, 1).reshape(n_heads * b, d, t)


def _float_keep(shape, p, rng, dtype):
    """The dropout mask as one array of zeros and scales."""
    keep, scale = ad._dropout_keep(shape, p, rng)
    return np.multiply(keep.astype(dtype), scale, dtype=dtype)


def _float_mask_dropout(a, p, rng, train):
    """ad.dropout as it held a float mask of zeros and scales."""
    if not train or p == 0.0:
        return a
    keep = _float_keep(a.data.shape, p, rng, a.data.dtype)

    def vjp(g):
        a._accumulate(g * keep, owned=True)

    return ad._node("dropout", a.data * keep, (a,), vjp)


def _unfused_residual(h, x, w, b, p, rng, train):
    """ad.residual_affine as the three nodes it fuses."""
    return ad.add(h, ad.dropout(ad.affine(x, w, b), p, rng, train))


def _copy_attention(qkv, n_heads, p, rng, train):
    """ad.causal_attention as it was before the strided views: head-split
    copies of q, k and v, scores against a transposed view of the copied
    keys, the row-max softmax, a float mask, the dropped weights held for
    the backward and the gradients merged from head-major copies."""
    qh, kh, vh = (_split_heads(x, n_heads) for x in np.split(qkv.data, 3, axis=-1))
    t = qh.shape[1]
    keep = _float_keep((len(qh), t, t), p, rng, qh.dtype) if train and p else None
    scores = qh @ np.swapaxes(kh, -1, -2)
    scores *= ad._inv_sqrt(qh.shape[-1])
    w = _row_max_causal_softmax(scores)
    wd = w if keep is None else w * keep

    def vjp(g):
        grads = np.empty((3,) + qh.shape, dtype=qh.dtype)
        gh = _split_heads(g, n_heads)
        np.matmul(np.swapaxes(wd, -1, -2), gh, out=grads[2])
        gw = gh @ np.swapaxes(vh, -1, -2)
        if keep is not None:
            gw *= keep
        gs = ad._softmax_vjp(w, gw)
        gs *= ad._inv_sqrt(qh.shape[-1])
        np.matmul(gs, kh, out=grads[0])
        np.matmul(np.swapaxes(gs, -1, -2), qh, out=grads[1])
        qkv._accumulate(_merge_heads(grads.reshape((-1,) + qh.shape[1:]), 3 * n_heads), owned=True)

    return ad._node("causal_attention", _merge_heads(wd @ vh, n_heads), (qkv,), vjp)


def _layer_norm_node(a, gain, bias, eps=1e-5):
    """The layer norm as its own tape node, as it was before norm_affine
    fused it with the projection that reads it."""
    out, xhat, std = ad._layer_norm(a.data, gain.data, bias.data, eps)
    ad._checked(std, "layer_norm")

    def vjp(g):
        if gain.requires_grad:
            gain._accumulate(ad._unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:
            bias._accumulate(ad._unbroadcast(g, bias.data.shape))
        if a.requires_grad:
            gx = g * gain.data
            gx = gx - ad._row_mean(gx) - xhat * ad._row_mean(gx * xhat)
            gx /= std
            a._accumulate(gx, owned=True)

    return ad._node("layer_norm", out, (a, gain, bias), vjp)


def _unfused_norm_affine(a, gain, bias, w, b, relu=False):
    """ad.norm_affine as the two nodes it fuses."""
    return ad.affine(_layer_norm_node(a, gain, bias), w, b, relu=relu)


def _two_temporary_layer_norm(x, gain, bias, eps):
    """ad._layer_norm as it built its output in one expression."""
    c = x - x.mean(axis=-1, keepdims=True)
    std = np.sqrt(np.square(c).mean(axis=-1, keepdims=True) + eps)
    c /= std
    return c * gain + bias, c, std


class TestElementwiseOps:
    def test_binary_ops_match_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        w = rng.standard_normal((3, 4))
        for op in (ad.add, ad.sub, ad.mul):
            check_grads(lambda x, y, op=op: probe_loss(op(x, y), w), [a, b], rng)

    def test_broadcast_binary_ops(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 4))
        bias = rng.standard_normal(4)
        row = rng.standard_normal((3, 4))
        w = rng.standard_normal((2, 3, 4))
        check_grads(lambda x, y: probe_loss(ad.add(x, y), w), [a, bias], rng)
        check_grads(lambda x, y: probe_loss(ad.mul(x, y), w), [a, row], rng)
        check_grads(lambda x, y: probe_loss(ad.sub(x, y), w), [a, bias], rng)

    def test_unary_ops_match_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 5))
        w = rng.standard_normal((4, 5))
        cases = [
            (ad.tanh, x),
            (ad.sigmoid, x),
            (ad.exp, x),
            (ad.sqrt, np.abs(x) + 0.5),
            (ad.square, x),
            (ad.softplus, 3.0 * x),
            (ad.neg, x),
        ]
        for op, arg in cases:
            check_grads(lambda t, op=op: probe_loss(op(t), w), [arg], rng)

    def test_scale_and_shift(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 3))
        w = rng.standard_normal((3, 3))
        check_grads(lambda t: probe_loss(ad.scale(t, -2.5), w), [x], rng)
        check_grads(lambda t: probe_loss(ad.shift(t, 1.25), w), [x], rng)

    def test_clip_interior_and_minimum(self):
        rng = np.random.default_rng(4)
        # Keep samples away from clip boundaries and minimum ties.
        x = rng.uniform(-0.8, 0.8, (4, 4))
        y = x + np.where(rng.uniform(size=(4, 4)) > 0.5, 0.3, -0.3)
        w = rng.standard_normal((4, 4))
        check_grads(lambda t: probe_loss(ad.clip(t, -1.0, 1.0), w), [x], rng)
        check_grads(lambda a, b: probe_loss(ad.minimum(a, b), w), [x, y], rng)


class TestSubgradientConventions:
    def test_relu_gradient_is_zero_at_zero(self):
        # relu lives in affine; an identity weight passes x through unchanged.
        x = ad.tensor([[-1.0, 0.0, 2.0]], requires_grad=True)
        out = ad.affine(x, ad.tensor(np.eye(3)), ad.tensor(np.zeros(3)), relu=True)
        ad.backward(ad.mean_all(out))
        assert np.array_equal(x.grad, np.float32([[0.0, 0.0, 1.0 / 3.0]]))

    def test_clip_gradient_is_zero_at_boundary(self):
        x = ad.tensor([[-1.5, -1.0, 0.0, 1.0, 1.5]], requires_grad=True)
        ad.backward(ad.mean_all(ad.clip(x, -1.0, 1.0)))
        assert np.array_equal(x.grad, np.float32([[0.0, 0.0, 0.2, 0.0, 0.0]]))


class TestShapeOps:
    def test_matmul_2d_and_3d(self):
        rng = np.random.default_rng(5)
        a2 = rng.standard_normal((3, 4))
        b2 = rng.standard_normal((4, 2))
        w2 = rng.standard_normal((3, 2))
        check_grads(lambda a, b: probe_loss(ad.matmul(a, b), w2), [a2, b2], rng)
        a3 = rng.standard_normal((2, 3, 4))
        b3 = rng.standard_normal((2, 4, 5))
        w3 = rng.standard_normal((2, 3, 5))
        check_grads(lambda a, b: probe_loss(ad.matmul(a, b), w3), [a3, b3], rng)

    def test_matmul_broadcast_2d_weight_against_3d_batch(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 4))
        wt = rng.standard_normal((4, 5))
        w = rng.standard_normal((2, 3, 5))
        check_grads(lambda a, b: probe_loss(ad.matmul(a, b), w), [x, wt], rng)

    def test_transpose_reshape_concat_narrow(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 4))
        y = rng.standard_normal((2, 3, 2))
        wt = rng.standard_normal((2, 4, 3))
        check_grads(lambda a: probe_loss(ad.transpose_last2(a), wt), [x], rng)
        wc = rng.standard_normal((2, 3, 6))
        check_grads(lambda a, b: probe_loss(ad.concat([a, b], axis=-1), wc), [x, y], rng)
        wn = rng.standard_normal((2, 3, 2))
        check_grads(lambda a: probe_loss(ad.narrow(a, 1, 2, axis=-1), wn), [x], rng)


class TestReductionsAndLosses:
    def test_reductions(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 4))
        check_grads(lambda a: ad.mean_all(a), [x], rng)
        w = rng.standard_normal((3, 1))
        check_grads(lambda a: probe_loss(ad.sum_last(a), w), [x], rng)

    def test_losses(self):
        rng = np.random.default_rng(9)
        pred = rng.standard_normal((5, 3))
        target = rng.standard_normal((5, 3))
        check_grads(lambda a, b: ad.mse(a, b), [pred, target], rng)
        logits = rng.standard_normal((6, 1))
        labels = rng.uniform(0.1, 0.9, (6, 1))
        check_grads(lambda a: ad.bce_with_logits(a, ad.tensor(labels)), [logits], rng)

    def test_bce_at_even_odds_equals_log2(self):
        logits = ad.tensor(np.zeros((4, 1)))
        ones = ad.tensor(np.ones((4, 1)))
        val = float(ad.bce_with_logits(logits, ones).data)
        assert abs(val - np.log(2.0)) < 1e-7

    def test_layer_norm_matches_finite_differences(self):
        """norm_affine, the layer norm and the projection that reads it,
        with and without the relu."""
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 8))
        gain = rng.standard_normal(8) * 0.1 + 1.0
        bias = rng.standard_normal(8) * 0.1
        wt = rng.standard_normal((8, 5))
        c = rng.standard_normal(5)
        w = rng.standard_normal((2, 3, 5))
        for relu in (False, True):
            check_grads(
                lambda a, g, b, W, cc, relu=relu: probe_loss(ad.norm_affine(a, g, b, W, cc, relu), w),
                [x, gain, bias, wt, c], rng
            )

    def test_layer_norm_output_is_normalized(self):
        """Through an identity projection the rows come out with zero mean
        and unit variance."""
        rng = np.random.default_rng(11)
        with ad.precision("float64"):
            x = ad.tensor(rng.standard_normal((4, 16)) * 3.0 + 2.0)
            g = ad.tensor(np.ones(16))
            b = ad.tensor(np.zeros(16))
            out = ad.norm_affine(x, g, b, ad.tensor(np.eye(16)), b).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-3)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("width", [64, 50, 7])
    def test_layer_norm_row_mean_is_numpy_mean_bitwise(self, dtype, width):
        """The layer norm's row means, an add.reduce divided by the width,
        give the bits of x.mean(axis=-1, keepdims=True), forward and
        backward."""
        rng = np.random.default_rng(width)
        with ad.precision(dtype):
            x = ad.tensor(3.0 * rng.standard_normal((20, 5, width)) + 1.0, requires_grad=True)
            gain = ad.tensor(1.0 + 0.1 * rng.standard_normal(width))
            bias = ad.tensor(0.1 * rng.standard_normal(width))
            w = ad.tensor(0.1 * rng.standard_normal((width, 8)))
            b = ad.tensor(rng.standard_normal(8))
            probe = rng.standard_normal((20, 5, 8)).astype(ad.default_dtype())
            out = ad.norm_affine(x, gain, bias, w, b)
            ad.backward(ad.mean_all(ad.mul(out, ad.tensor(probe))))
            xhat = x.data - x.data.mean(axis=-1, keepdims=True)
            std = np.sqrt(np.square(xhat).mean(axis=-1, keepdims=True) + 1e-5)
            xhat /= std
            assert np.array_equal(out.data, ad.affine(ad.tensor(xhat * gain.data + bias.data), w, b).data)
        assert x.data.dtype == np.dtype(dtype)
        for a in (x.data, probe):
            assert np.array_equal(ad._row_mean(a), a.mean(axis=-1, keepdims=True))
        gn = ((np.full_like(probe, 1.0 / probe.size) * probe).reshape(-1, 8) @ w.data.T).reshape(x.shape)
        gx = gn * gain.data
        gx = gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
        assert np.array_equal(x.grad, gx / std)


class TestFusedOps:
    def test_affine_matches_finite_differences_at_rank_2_and_3(self):
        rng = np.random.default_rng(30)
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)
        for shape in ((5, 4), (2, 3, 4)):
            x = rng.standard_normal(shape)
            probe = rng.standard_normal(shape[:-1] + (3,))
            check_grads(lambda a, W, c: probe_loss(ad.affine(a, W, c), probe), [x, w, b], rng)

    def test_affine_equals_matmul_plus_bias_bitwise(self):
        rng = np.random.default_rng(31)
        w = ad.Tensor(rng.standard_normal((16, 8)).astype(np.float32))
        b = ad.Tensor(rng.standard_normal(8).astype(np.float32))
        x = ad.Tensor(rng.standard_normal((15, 16)).astype(np.float32))
        fused = ad.affine(x, w, b).data
        assert np.array_equal(fused, ad.add(ad.matmul(x, w), b).data)
        assert np.array_equal(fused, x.data @ w.data + b.data)
        # Rank 3 is the flattened product, row for row.
        x3 = ad.Tensor(x.data.reshape(3, 5, 16))
        assert np.array_equal(ad.affine(x3, w, b).data, fused.reshape(3, 5, 8))

    @pytest.mark.parametrize("fan_in,fan_out", [(50, 64), (64, 64), (64, 256), (256, 64), (64, 2)])
    @pytest.mark.exact_bits
    def test_affine_rows_do_not_depend_on_the_row_count(self, fan_in, fan_out):
        """Each row equals the same row of a 1280-row product, at row counts
        that are and are not multiples of 4 (the BeT's layer shapes)."""
        rng = np.random.default_rng(fan_in * 1000 + fan_out)
        w = ad.Tensor((0.1 * rng.standard_normal((fan_in, fan_out))).astype(np.float32))
        b = ad.Tensor(rng.standard_normal(fan_out).astype(np.float32))
        x = rng.standard_normal((1280, fan_in)).astype(np.float32)
        full = ad.affine(ad.Tensor(x), w, b).data
        for rows in (*range(1, 10), 255, 256, 257, 1279):
            assert np.array_equal(ad.affine(ad.Tensor(x[:rows]), w, b).data, full[:rows]), rows

    def test_affine_relu_matches_finite_differences_at_rank_2_and_3(self):
        rng = np.random.default_rng(34)
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)
        for shape in ((6, 4), (2, 3, 4)):
            x = rng.standard_normal(shape)
            probe = rng.standard_normal(shape[:-1] + (3,))
            check_grads(lambda a, W, c: probe_loss(ad.affine(a, W, c, relu=True), probe),
                        [x, w, b], rng)

    def test_affine_relu_equals_the_relu_of_the_product_bitwise(self):
        rng = np.random.default_rng(35)
        w = ad.Tensor(rng.standard_normal((16, 8)).astype(np.float32))
        b = ad.Tensor(rng.standard_normal(8).astype(np.float32))
        for rows in (16, 15):
            x = ad.Tensor(rng.standard_normal((rows, 16)).astype(np.float32))
            fused = ad.affine(x, w, b, relu=True).data
            assert np.array_equal(fused, np.maximum(ad.affine(x, w, b).data, 0)), rows
            if rows == 16:  # no padding: numpy's own expression
                assert np.array_equal(fused, np.maximum(x.data @ w.data + b.data, 0))
            with ad.no_grad():
                assert np.array_equal(ad.affine(x, w, b, relu=True).data, fused), rows

    def test_affine_relu_subgradient_is_zero_at_exactly_zero(self):
        """A unit whose pre-activation is exactly 0 passes no gradient to x,
        w or b; the positive units pass all of theirs."""
        x = ad.tensor([[1.0, 2.0], [3.0, -1.0]], requires_grad=True)
        w = ad.tensor([[1.0, 1.0, -1.0], [0.0, -0.5, 1.0]], requires_grad=True)
        b = ad.tensor([-1.0, 0.0, 0.0], requires_grad=True)
        out = ad.affine(x, w, b, relu=True)
        # Pre-activations [[0, 0, 1], [2, 3.5, -4]].
        assert np.array_equal(out.data, np.float32([[0.0, 0.0, 1.0], [2.0, 3.5, 0.0]]))
        ad.backward(ad.mean_all(out))
        mask = np.float32([[0, 0, 1], [1, 1, 0]]) / 6
        assert np.array_equal(b.grad, mask.sum(axis=0))
        assert np.array_equal(w.grad, x.data.T @ mask)
        assert np.array_equal(x.grad, mask @ w.data.T)

    @pytest.mark.parametrize("rows,fan_in", [(1024, 256), (500, 32), (7, 5), (1, 3), (4, 1)])
    def test_one_column_input_gradient_equals_the_matrix_product_bitwise(self, rows, fan_in):
        """With a one-column weight, x's gradient is the broadcast product
        plus +0.0, whose bits are those of the K = 1 matrix product, signed
        zeros included; so are the weight's and the bias's."""
        rng = np.random.default_rng(rows + fan_in)
        g = rng.standard_normal((rows, 1)).astype(np.float32)
        w = rng.standard_normal((fan_in, 1)).astype(np.float32)
        g[::3], g[1::7], w[::4], w[2::5] = 0.0, -0.0, 0.0, -0.0
        x = rng.standard_normal((rows, fan_in)).astype(np.float32)
        x[::2, ::3] = -0.0
        xt, wt, bt = (ad.Tensor(a.copy(), requires_grad=True)
                      for a in (x, w, rng.standard_normal(1).astype(np.float32)))
        gx = ad._affine_vjp(g.copy(), x, wt, bt, True)
        want = g @ w.T
        assert _same_bits(gx, want)
        # The broadcast product alone has -0.0 where the matrix product has +0.0.
        outer = g * w.T
        assert (np.signbit(outer) & (outer == 0)).any() and not np.signbit(want[want == 0]).any()
        assert _same_bits(wt.grad, x.T @ g)
        assert _same_bits(bt.grad, g.sum(axis=0))
        with ad.precision("float64"):
            g64, w64 = g.astype(np.float64), w.astype(np.float64)
            got = ad._affine_vjp(g64, x.astype(np.float64), ad.Tensor(w64), ad.Tensor(np.zeros(1)),
                                 True)
            assert _same_bits(got, g64 @ w64.T)

    @pytest.mark.parametrize("fan_in,fan_out", [(64, 256), (54, 256), (256, 256)])
    @pytest.mark.exact_bits
    def test_affine_relu_rows_do_not_depend_on_the_row_count(self, fan_in, fan_out):
        """At the relu layers' shapes (the BeT block MLP, the critics) each
        row equals the same row of a 1280-row product, taped or not."""
        rng = np.random.default_rng(fan_in * 1000 + fan_out + 1)
        w = ad.Tensor((0.1 * rng.standard_normal((fan_in, fan_out))).astype(np.float32))
        b = ad.Tensor(rng.standard_normal(fan_out).astype(np.float32))
        x = rng.standard_normal((1280, fan_in)).astype(np.float32)
        full = ad.affine(ad.Tensor(x), w, b, relu=True).data
        assert (full == 0).any() and (full > 0).any()
        for rows in (*range(1, 10), 255, 256, 257, 1279):
            assert np.array_equal(ad.affine(ad.Tensor(x[:rows]), w, b, relu=True).data,
                                  full[:rows]), rows
            with ad.no_grad():
                assert np.array_equal(ad.affine(ad.Tensor(x[:rows]), w, b, relu=True).data,
                                      full[:rows]), rows

    @pytest.mark.parametrize("batch,t", [(1, 1), (3, 5), (20, 5), (64, 20), (256, 5)])
    def test_contiguous_keys_give_the_strided_score_product_bitwise(self, batch, t):
        """Scores against contiguous transposed keys have the bits of scores
        against a transposed view of the keys, for head-split copies of the
        queries and for the packed projection's strided query views."""
        rng = np.random.default_rng(batch * 100 + t)
        qkv = rng.standard_normal((batch, t, 3 * 64)).astype(np.float32)
        q, k, _ = np.split(qkv, 3, axis=-1)
        qh, kh = _split_heads(q, 4), _split_heads(k, 4)
        kt = _split_heads_transposed(k, 4)
        assert kt.flags.c_contiguous
        assert np.array_equal(kt, np.swapaxes(kh, -1, -2))
        contiguous = qh @ kt
        assert _same_bits(contiguous, qh @ np.swapaxes(kh, -1, -2))
        qv, kv, _ = ad._qkv_heads(qkv, 4)
        assert np.shares_memory(qv, qkv) and np.shares_memory(kv, qkv)
        want = contiguous.reshape(4, batch, t, t)
        assert _same_bits(qv @ np.ascontiguousarray(np.swapaxes(kv, -1, -2)), want)
        assert _same_bits(qv @ np.swapaxes(kv, -1, -2), want)

    @pytest.mark.parametrize("batch,t", [(1, 1), (4, 1), (3, 5), (20, 5), (64, 20), (256, 5)])
    @pytest.mark.exact_bits
    def test_attention_views_equal_the_head_split_copies_bitwise(self, batch, t):
        """The view kernel gives the bits of the copy kernel, output and
        packed gradient, with dropout under a fixed generator and without."""
        rng = np.random.default_rng(batch * 10 + t)
        qkv = rng.standard_normal((batch, t, 3 * 64)).astype(np.float32)
        probe = rng.standard_normal((batch, t, 64)).astype(np.float32)
        for p, train in ((0.1, True), (0.0, True), (0.1, False)):
            got = []
            for attention in (ad.causal_attention, _copy_attention):
                x = ad.Tensor(qkv.copy(), requires_grad=True)
                out = attention(x, 4, p, np.random.default_rng(9), train)
                ad.backward(ad.mean_all(ad.mul(out, ad.Tensor(probe))))
                got.append((out.data, x.grad))
            (out, grad), (ref_out, ref_grad) = got
            assert _same_bits(out, ref_out), (p, train)
            assert _same_bits(grad, ref_grad), (p, train)

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("shape,fan_out", [
        ((64, 20, 64), 192),   # the desk BeT's layer norm before its packed projection
        ((64, 20, 64), 256),   # before its MLP
        ((64, 20, 64), 2),     # and before its head
        ((3, 5, 64), 192),     # 15 rows, not a multiple of 4
        ((7, 50), 64),         # rank 2
    ])
    @pytest.mark.exact_bits
    def test_norm_affine_equals_the_layer_norm_and_affine_bitwise(self, shape, fan_out, relu):
        """Output and the gradients of the input, gain, bias, weight and
        bias of the projection, float32, taped and without a tape."""
        rng = np.random.default_rng(sum(shape) + fan_out + relu)
        d = shape[-1]
        data = [3.0 * rng.standard_normal(shape) + 1.0,
                1.0 + 0.1 * rng.standard_normal(d),
                0.1 * rng.standard_normal(d),
                0.1 * rng.standard_normal((d, fan_out)),
                rng.standard_normal(fan_out)]
        probe = ad.Tensor(rng.standard_normal(shape[:-1] + (fan_out,)).astype(np.float32))
        got = []
        for op in (ad.norm_affine, _unfused_norm_affine):
            leaves = [ad.Tensor(a.astype(np.float32), requires_grad=True) for a in data]
            out = op(*leaves, relu=relu)
            ad.backward(ad.mean_all(ad.mul(out, probe)))
            with ad.no_grad():
                untaped = op(*leaves, relu=relu).data
            got.append([out.data, untaped] + [leaf.grad for leaf in leaves])
        assert (got[0][0] == 0).any() == relu
        for name, fused, ref in zip(("out", "untaped", "a", "gain", "bias", "w", "b"), *got):
            assert _same_bits(fused, ref), name

    @pytest.mark.exact_bits
    def test_bet_gradients_equal_those_of_the_former_kernels(self, monkeypatch):
        """A taped training forward and backward of the desk BeT at (64, 20),
        with dropout, gives bitwise the parameter gradients of the former
        kernels: the head-split copy attention with strided keys and the
        row-max softmax, float dropout masks, unfused residual branches
        whose sums copy the stream, and each layer norm its own node,
        built in one expression, before the affine that reads it."""
        from racelab.bet import BeT, BeTConfig

        cfg = BeTConfig()
        model = BeT(cfg, np.random.default_rng(50))
        rng = np.random.default_rng(51)
        for p in model.params().values():
            p.data += (0.05 * rng.standard_normal(p.data.shape)).astype(np.float32)
        x = rng.standard_normal((64, cfg.context, cfg.obs_dim)).astype(np.float32)
        y = np.clip(rng.standard_normal((64, cfg.context, cfg.act_dim)), -0.9, 0.9).astype(np.float32)

        def gradients():
            ad.zero_grads(model.params().values())
            pred = model.forward(ad.Tensor(x), train=True, rng=np.random.default_rng(52))
            ad.backward(ad.mse(pred, ad.Tensor(y)))
            return {name: p.grad.copy() for name, p in model.params().items()}

        now = gradients()
        monkeypatch.setattr(ad, "causal_attention", _copy_attention)
        monkeypatch.setattr(ad, "residual_affine", _unfused_residual)
        monkeypatch.setattr(ad, "norm_affine", _unfused_norm_affine)
        monkeypatch.setattr(ad, "dropout", _float_mask_dropout)
        monkeypatch.setattr(ad, "_layer_norm", _two_temporary_layer_norm)
        former = gradients()
        assert now.keys() == former.keys()
        for name in now:
            assert _same_bits(now[name], former[name]), name

    def test_attention_with_dropout_matches_finite_differences(self):
        rng = np.random.default_rng(32)
        qkv = rng.standard_normal((2, 5, 18))
        probe = rng.standard_normal((2, 5, 6))

        def build(a):
            # A fresh generator per evaluation: every call drops the same weights.
            out = ad.causal_attention(a, 3, 0.3, np.random.default_rng(7), train=True)
            return probe_loss(out, probe)

        check_grads(build, [qkv], rng)

    @pytest.mark.exact_bits
    def test_attention_equals_per_head_primitive_ops_bitwise(self):
        """One head-major dropout draw equals per-head draws in head order
        (each head's 3 * 6 * 6 mask values are a multiple of 4)."""
        rng = np.random.default_rng(33)
        n_heads, d = 4, 8
        qkv = ad.Tensor(rng.standard_normal((3, 6, 3 * n_heads * d)).astype(np.float32))
        q, k, v = (ad.narrow(qkv, j * n_heads * d, n_heads * d) for j in range(3))
        fused = ad.causal_attention(qkv, n_heads, 0.1, np.random.default_rng(8), train=True)
        draws = np.random.default_rng(8)
        heads = []
        for i in range(n_heads):
            qh, kh, vh = (ad.narrow(x, i * d, d) for x in (q, k, v))
            scores = ad.scale(ad.matmul(qh, ad.transpose_last2(kh)), 1.0 / np.sqrt(d))
            w = ad.dropout(ad.Tensor(ad._causal_softmax(scores.data)), 0.1, draws, train=True)
            heads.append(ad.matmul(w, vh))
        assert np.array_equal(fused.data, ad.concat(heads).data)
        # Without dropout, against the same arithmetic in plain numpy.
        no_drop = ad.causal_attention(qkv, n_heads, 0.1, None, train=False)
        allowed = np.tril(np.ones((6, 6), dtype=bool))
        ref = []
        for i in range(n_heads):
            cols = slice(i * d, (i + 1) * d)
            scores = q.data[..., cols] @ np.swapaxes(k.data[..., cols], -1, -2)
            scores = np.where(allowed, scores * np.float32(1.0 / np.sqrt(d)), -np.inf)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            ref.append((e / np.cumsum(e, axis=-1)[..., -1:]) @ v.data[..., cols])
        assert np.array_equal(no_drop.data, np.concatenate(ref, axis=-1))

    @pytest.mark.parametrize("batch", [1, 2, 3, 4, 5, 20, 64, 256])
    @pytest.mark.exact_bits
    def test_newest_query_attention_is_the_last_row_bitwise(self, batch):
        """One query row scored against every key gives the bits of the last
        row of the T-row attention, at the desk BeT's heads (4 of width 16)
        and every window length up to its context. The products have one
        row where the full op's have T."""
        rng = np.random.default_rng(batch)
        qkv = (2.0 * rng.standard_normal((batch, 20, 3 * 64))).astype(np.float32)
        with ad.no_grad():
            for t in (*range(1, 6), 20):
                x = ad.Tensor(qkv[:, :t])
                full = ad.causal_attention(x, 4, 0.1, None, train=False).data
                assert _same_bits(ad.newest_query_attention(x, 4).data, full[:, -1:]), t

    def test_newest_query_attention_refuses_a_tape(self):
        qkv = np.random.default_rng(3).standard_normal((2, 5, 18)).astype(np.float32)
        with pytest.raises(ad.AutodiffError, match="no backward"):
            ad.newest_query_attention(ad.Tensor(qkv, requires_grad=True), 3)
        ad.newest_query_attention(ad.Tensor(qkv), 3)  # nothing to record
        with ad.no_grad():
            ad.newest_query_attention(ad.Tensor(qkv, requires_grad=True), 3)
        with pytest.raises(ad.AutodiffError, match="packed projection"):
            ad.newest_query_attention(ad.Tensor(qkv[..., :16]), 3)

    @pytest.mark.parametrize("t", [5, 20])
    def test_causal_mask_is_built_once_per_window_length(self, t):
        ad._causal_mask.cache_clear()
        for x in (np.zeros((2, t, t), np.float32), np.ones((3, t, t), np.float32),
                  np.zeros((4, 1, t), np.float32)):
            ad._causal_softmax(x)
        info = ad._causal_mask.cache_info()
        assert (info.misses, info.hits) == (2, 1)
        mask = ad._causal_mask(t, t, np.dtype(np.float32))
        assert not mask.flags.writeable
        assert np.array_equal(mask, np.triu(np.full((t, t), -np.inf, np.float32), 1))
        assert np.array_equal(ad._causal_mask(1, t, np.dtype(np.float32)), mask[-1:])

    def test_overflowing_variance_names_layer_norm(self):
        """The fused layer norm, norm_affine, names itself. The normalized
        output of this row is finite; its variance is not."""
        x = ad.tensor(np.array([[1e20, -1e20, 0.0, 0.0]]))
        g, b = ad.tensor(np.ones(4)), ad.tensor(np.zeros(4))
        with np.errstate(over="ignore"), pytest.raises(ad.AutodiffError, match="norm_affine"):
            ad.norm_affine(x, g, b, ad.tensor(np.eye(4)), b)

    def test_overflowing_scores_name_causal_attention(self):
        qkv = ad.tensor(np.concatenate([np.full((1, 3, 4), 1e20), np.full((1, 3, 4), -1e20),
                                        np.full((1, 3, 4), 1e20)], axis=-1))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ad.AutodiffError, match="causal_attention"
        ):
            ad.causal_attention(qkv, 2, 0.0, None, train=False)


class TestCausalSoftmax:
    """The softmax and its backward inside causal_attention."""

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        x, w, d = (rng.standard_normal((2, 5, 5)) for _ in range(3))
        h = 1e-6
        analytic = float(np.sum(ad._softmax_vjp(ad._causal_softmax(x), w) * d))
        fd = float(np.sum((ad._causal_softmax(x + h * d) - ad._causal_softmax(x - h * d)) * w)) / (2 * h)
        assert abs(analytic - fd) <= 1e-6 * max(1.0, abs(analytic), abs(fd))

    def test_future_weights_are_exactly_zero(self):
        rng = np.random.default_rng(13)
        out = ad._causal_softmax(rng.standard_normal((3, 6, 6)).astype(np.float32))
        for t in range(6):
            assert np.all(out[:, t, t + 1 :] == 0.0)
            assert np.allclose(out[:, t, : t + 1].sum(axis=-1), 1.0, atol=1e-6)

    def test_prefix_rows_are_bit_identical(self):
        """Appending future rows must not change earlier rows at all."""
        rng = np.random.default_rng(14)
        full = rng.standard_normal((2, 8, 8)).astype(np.float32)
        out_full = ad._causal_softmax(full)
        for t in (1, 3, 5):
            out_prefix = ad._causal_softmax(full[:, :t, :t].copy())
            assert np.array_equal(out_prefix, out_full[:, :t, :t])

    @pytest.mark.parametrize("t", [1, 5, 20])
    def test_column_max_equals_the_row_reduction_bitwise(self, t):
        """Max is exact, so taking it column by column changes no bit, also
        where a row's largest scores tie."""
        rng = np.random.default_rng(17 + t)
        scores = rng.standard_normal((256, t, t)).astype(np.float32)
        for x in (scores, np.round(scores), np.zeros_like(scores)):
            assert np.array_equal(ad._causal_softmax(x), _row_max_causal_softmax(x))

    def test_masked_inputs_get_zero_gradient(self):
        x, g = np.random.default_rng(15).standard_normal((2, 1, 4, 4)).astype(np.float32)
        grad = ad._softmax_vjp(ad._causal_softmax(x), g)
        for t in range(4):
            assert np.all(grad[0, t, t + 1 :] == 0.0)


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = ad.tensor(np.random.default_rng(16).standard_normal((3, 4)))
        out = ad.dropout(x, 0.5, None, train=False)
        assert out is x  # no copy and no tape node

    def test_train_mode_scales_survivors(self):
        rng_data = np.random.default_rng(17)
        x = ad.tensor(np.abs(rng_data.standard_normal((100, 100))) + 1.0)
        out = ad.dropout(x, 0.25, np.random.default_rng(5), train=True).data
        kept = out != 0.0
        assert abs(kept.mean() - 0.75) < 0.02
        ratio = out[kept] / x.data[kept]
        assert np.allclose(ratio, 1.0 / 0.75, atol=1e-6)

    def test_gradient_uses_same_mask(self):
        x = ad.tensor(np.ones((50, 50)), requires_grad=True)
        out = ad.dropout(x, 0.5, np.random.default_rng(6), train=True)
        ad.backward(ad.mean_all(out))
        assert np.array_equal(x.grad != 0.0, out.data != 0.0)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.3])
    def test_mask_values_are_zero_or_the_scale(self, p):
        thr = round(p * 65536)
        keep, scale = ad._dropout_keep((7, 9, 11), p, np.random.default_rng(20))
        assert keep.dtype == np.bool_ and keep.shape == (7, 9, 11)
        assert scale == 65536 / (65536 - thr)
        for dtype in (np.float32, np.float64):
            dropped = ad._dropped(np.ones(keep.shape, dtype=dtype), keep, scale)
            assert dropped.dtype == dtype
            assert np.all((dropped == 0) | (dropped == dtype(scale)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_boolean_mask_then_scale_equals_one_float_multiply_bitwise(self, dtype):
        """x * keep * scale has the bits of x * (keep * scale), signed zeros
        included, in place or not."""
        rng = np.random.default_rng(22)
        x = rng.standard_normal((64, 20, 64)).astype(dtype)
        keep, scale = ad._dropout_keep(x.shape, 0.1, np.random.default_rng(23))
        want = x * np.multiply(keep.astype(dtype), scale, dtype=dtype)
        assert _same_bits(ad._dropped(x, keep, scale), want)
        assert _same_bits(ad._dropped(x, keep, scale, out=x.copy()), want)

    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_kept_fraction_is_the_rounded_rate(self, p):
        """Over about 10^6 draws the kept fraction lies within 5 sigma of
        1 - thr / 2^16."""
        n = 1 << 20
        kept = np.count_nonzero(ad._dropout_keep((n,), p, np.random.default_rng(21))[0])
        want = 1.0 - round(p * 65536) / 65536
        assert abs(kept / n - want) <= 5.0 * np.sqrt(want * (1.0 - want) / n)

    def test_fixed_generator_gives_a_fixed_mask(self):
        """Four 16-bit values per raw 64-bit word, lowest bits first."""
        keep, scale = ad._dropout_keep((2, 8), 0.5, np.random.default_rng(0))
        words = np.random.default_rng(0).bit_generator.random_raw(4)
        u = [(int(w) >> (16 * j)) & 0xFFFF for w in words for j in range(4)]
        assert scale == 2.0
        assert np.array_equal(keep.ravel(), [v >= 32768 for v in u])
        assert "".join("1" if v else "0" for v in keep.ravel()) == "1111111010001000"
        again, _ = ad._dropout_keep((2, 8), 0.5, np.random.default_rng(0))
        assert np.array_equal(keep, again)

    def test_a_rate_that_rounds_to_one_is_refused(self):
        with pytest.raises(ad.AutodiffError, match="16-bit"):
            ad._dropout_keep((4,), 1.0 - 2.0**-18, np.random.default_rng(0))


class TestResidualAffine:
    """residual_affine, one node for h + dropout(x @ w + b)."""

    @pytest.mark.parametrize("p", [0.1, 0.0])
    @pytest.mark.parametrize("x_shape,fan_out", [
        ((64, 20, 64), 64),    # the desk BeT's attention output projection
        ((64, 20, 256), 64),   # and its MLP's second layer
        ((1280, 64), 64),      # rank 2
        ((3, 5, 64), 64),      # 15 rows, not a multiple of 4
        ((7, 256), 64),
    ])
    @pytest.mark.exact_bits
    def test_equals_the_unfused_branch_bitwise(self, p, x_shape, fan_out):
        """Output and the gradients of h, x, w and b, float32, with a fixed
        generator for the mask."""
        rng = np.random.default_rng(sum(x_shape) + fan_out)
        data = [rng.standard_normal(x_shape[:-1] + (fan_out,)),
                rng.standard_normal(x_shape),
                0.1 * rng.standard_normal((x_shape[-1], fan_out)),
                rng.standard_normal(fan_out)]
        probe = ad.Tensor(rng.standard_normal(x_shape[:-1] + (fan_out,)).astype(np.float32))
        got = []
        for branch in (ad.residual_affine, _unfused_residual):
            leaves = [ad.Tensor(a.astype(np.float32), requires_grad=True) for a in data]
            out = branch(*leaves, p, np.random.default_rng(24), True)
            ad.backward(ad.mean_all(ad.mul(out, probe)))
            got.append([out.data] + [leaf.grad for leaf in leaves])
        for name, fused, ref in zip(("out", "h", "x", "w", "b"), *got):
            assert _same_bits(fused, ref), name

    def test_eval_mode_equals_the_sum_bitwise(self):
        rng = np.random.default_rng(25)
        h, x = (ad.Tensor(rng.standard_normal((5, 4, 64)).astype(np.float32)) for _ in range(2))
        w = ad.Tensor((0.1 * rng.standard_normal((64, 64))).astype(np.float32))
        b = ad.Tensor(rng.standard_normal(64).astype(np.float32))
        want = ad.add(h, ad.affine(x, w, b)).data
        with ad.no_grad():
            assert _same_bits(ad.residual_affine(h, x, w, b, 0.1, None, False).data, want)

    def test_matches_finite_differences_at_rank_2_and_3(self):
        rng = np.random.default_rng(26)
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)
        for shape in ((6, 4), (2, 3, 4)):
            h = rng.standard_normal(shape[:-1] + (3,))
            x = rng.standard_normal(shape)
            probe = rng.standard_normal(shape[:-1] + (3,))

            def build(hh, a, W, c):
                # A fresh generator per evaluation: every call drops the same units.
                out = ad.residual_affine(hh, a, W, c, 0.3, np.random.default_rng(27), True)
                return probe_loss(out, probe)

            check_grads(build, [h, x, w, b], rng)

    def test_a_stream_of_another_shape_is_refused(self):
        """Refused before anything is written: a leaf stream and a taped
        interior one, whose buffer the sum would take, keep their values,
        also where the (2, 3) product would broadcast into them."""
        x, w, b = ad.tensor(np.ones((2, 4))), ad.tensor(np.ones((4, 3))), ad.tensor(np.zeros(3))
        for shape in ((3,), (1, 3), (2, 2, 3), (3, 2)):
            values = np.arange(np.prod(shape), dtype=np.float32).reshape(shape)
            leaf = ad.Tensor(values.copy(), requires_grad=True)
            for h in (leaf, ad.scale(leaf, 1.0)):
                with pytest.raises(ad.AutodiffError, match="residual_affine"):
                    ad.residual_affine(h, x, w, b, 0.0, None, False)
                assert _same_bits(h.data, values), (shape, h.is_leaf)

    def test_an_interior_stream_takes_the_sum_in_place(self):
        """A taped interior h gives its buffer to the output; a leaf h, an h
        that takes no gradient and any h under no_grad keep theirs. Output
        and gradients keep the bits of the unfused branch."""
        rng = np.random.default_rng(28)
        data = [rng.standard_normal((5, 4, 64)), rng.standard_normal((5, 4, 64)),
                0.1 * rng.standard_normal((64, 64)), rng.standard_normal(64)]
        probe = ad.Tensor(rng.standard_normal((5, 4, 64)).astype(np.float32))
        got = []
        for branch in (ad.residual_affine, _unfused_residual):
            leaves = [ad.Tensor(a.astype(np.float32), requires_grad=True) for a in data]
            h = ad.scale(leaves[0], 1.0)
            out = branch(h, *leaves[1:], 0.1, np.random.default_rng(29), True)
            assert np.shares_memory(out.data, h.data) == (branch is ad.residual_affine)
            ad.backward(ad.mean_all(ad.mul(out, probe)))
            got.append([out.data] + [leaf.grad for leaf in leaves])
        for name, fused, ref in zip(("out", "h", "x", "w", "b"), *got):
            assert _same_bits(fused, ref), name
        x, w, b = (ad.Tensor(a.astype(np.float32)) for a in data[1:])
        leaf = ad.Tensor(data[0].astype(np.float32), requires_grad=True)
        for h in (leaf, ad.scale(ad.Tensor(leaf.data), 1.0)):
            out = ad.residual_affine(h, x, w, b, 0.0, None, False)
            assert not np.shares_memory(out.data, h.data)
        taped = ad.scale(leaf, 1.0)
        with ad.no_grad():
            out = ad.residual_affine(taped, x, w, b, 0.0, None, False)
        assert not np.shares_memory(out.data, taped.data)
        assert _same_bits(taped.data, leaf.data)


class TestTapeSemantics:
    def test_shared_subexpression_accumulates(self):
        x = ad.tensor([3.0], requires_grad=True)
        y = ad.mul(x, x)
        ad.backward(ad.mean_all(y))
        assert np.allclose(x.grad, [6.0])

    def test_diamond_graph(self):
        x = ad.tensor([2.0], requires_grad=True)
        a = ad.scale(x, 3.0)
        b = ad.square(x)
        ad.backward(ad.mean_all(ad.add(a, b)))
        assert np.allclose(x.grad, [3.0 + 4.0])

    def test_untouched_leaf_keeps_no_gradient(self):
        x = ad.tensor([1.0], requires_grad=True)
        unused = ad.tensor([1.0], requires_grad=True)
        ad.backward(ad.mean_all(ad.square(x)))
        assert unused.grad is None

    def test_two_backwards_accumulate_until_zeroed(self):
        x = ad.tensor([1.0, 2.0], requires_grad=True)
        ad.backward(ad.mean_all(ad.square(x)))
        first = x.grad.copy()
        ad.backward(ad.mean_all(ad.square(x)))
        assert np.allclose(x.grad, 2.0 * first)
        ad.zero_grads([x])
        assert x.grad is None

    def test_serials_follow_construction_order(self):
        x = ad.tensor([1.0])
        a = ad.square(x)
        b = ad.tanh(a)
        c = ad.add(a, b)
        assert x._serial < a._serial < b._serial < c._serial

    def test_backward_requires_scalar(self):
        x = ad.tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ad.AutodiffError):
            ad.backward(ad.square(x))


class TestNoGrad:
    def test_outputs_are_constants_without_parents(self):
        w = ad.tensor([[1.0, -2.0]], requires_grad=True)
        with ad.no_grad():
            out = ad.tanh(ad.affine(ad.tensor([[0.5], [2.0]]), w, ad.tensor([0.0, 1.0])))
        assert out.is_leaf and not out.requires_grad and out._vjp is None
        taped = ad.tanh(ad.affine(ad.tensor([[0.5], [2.0]]), w, ad.tensor([0.0, 1.0])))
        assert np.array_equal(out.data, taped.data) and taped.requires_grad

    def test_skips_the_nonfinite_scan(self):
        with ad.no_grad(), np.errstate(invalid="ignore"):
            out = ad.sqrt(ad.tensor([-1.0], requires_grad=True))
        assert np.isnan(out.data).all()

    def test_tape_is_restored_when_nested_and_after_an_exception(self):
        x = ad.tensor([1.0], requires_grad=True)
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not ad.square(x).requires_grad
        assert ad.square(x).requires_grad
        with pytest.raises(ZeroDivisionError), ad.no_grad():
            1 / 0
        assert ad.square(x).requires_grad
        with np.errstate(invalid="ignore"), pytest.raises(ad.AutodiffError, match="sqrt"):
            ad.sqrt(ad.tensor([-1.0]))

    def test_predict_between_forward_and_backward_leaves_gradients_alone(self):
        from racelab import nets

        rng = np.random.default_rng(20)
        mlp = nets.MLP([3, 8, 1], ["tanh", "identity"], rng)
        x = ad.tensor(rng.standard_normal((4, 3)))
        params = mlp.params().values()

        def grads(between):
            ad.zero_grads(params)
            loss = ad.mean_all(ad.square(mlp(x)))
            between()
            assert all(p.grad is None for p in params)
            ad.backward(loss)
            return [p.grad.copy() for p in params]

        plain = grads(lambda: None)
        interleaved = grads(lambda: mlp.predict(rng.standard_normal((5, 3)).astype(np.float32)))
        assert all(np.array_equal(a, b) for a, b in zip(plain, interleaved))


class TestErrorBehavior:
    def test_nonfinite_output_names_the_op(self):
        x = ad.tensor([-1.0])
        with np.errstate(invalid="ignore"), pytest.raises(ad.AutodiffError, match="sqrt"):
            ad.sqrt(x)

    def test_rank_limit_enforced(self):
        with pytest.raises(ad.AutodiffError, match="rank"):
            ad.Tensor(np.zeros((2, 2, 2, 2)))

    def test_overflowing_exp_names_the_op(self):
        x = ad.tensor([1000.0])
        with np.errstate(over="ignore"), pytest.raises(ad.AutodiffError, match="exp"):
            ad.exp(x)
