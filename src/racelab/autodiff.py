"""Reverse-mode automatic differentiation on numpy buffers.

Tensors wrap numpy arrays of rank <= 3. Every op assigns its output a
monotonically increasing serial number, so the set of nodes reachable from
a loss, sorted by serial, reproduces exact tape append order; backward()
walks that order reversed and visits each node exactly once. Gradients
accumulate by summation, and leaves that never participate in a loss keep
a zero gradient rather than a missing one.

The ops are the ones the package's networks and losses call, and no
more; a test checks that each public name has a caller. Most are
elementwise or shape primitives. Four are fused, one tape node each
with an analytic backward, because the networks run them many times per
step: :func:`affine` (matrix product plus bias, and the relu after it
when asked), :func:`norm_affine` (a layer norm and the affine that reads
it), :func:`residual_affine` (a transformer block's residual branch: its
last affine, its dropout and the residual sum) and
:func:`causal_attention` (multi-head causal self-attention). A fused
node keeps only what its backward reads, so its intermediates are never
tape tensors, and a dropout mask is kept as booleans. One op has no
backward: :func:`newest_query_attention`, causal attention for the last
position alone, which inference reads; it refuses to be taped.

A node's output buffer belongs to the node, with one exception: the
residual stream. No backward reads the stream's values, so when the
stream ``h`` passed to :func:`residual_affine` is a taped op output, the
branch is added into ``h``'s buffer and the new node shares it; a
transformer's whole stream is then one buffer. An op output given to
``residual_affine`` as ``h`` must therefore feed only ops whose backward
does not read their input (:func:`norm_affine`, :func:`narrow`, another
``residual_affine``). A leaf's buffer, and every buffer under
:func:`no_grad`, is never written.

Inside :func:`no_grad` the same ops serve gradient-free forwards
(rollouts, bootstrap targets, rewards, evaluation): outputs are constants
with no parents and no backward closure, so nothing is retained between
ops, and every network has one forward whose bits do not depend on
whether it is taped.

Default element type is float32; wrap code in ``precision("float64")`` for
the high-accuracy mode used by finite-difference tests. Every taped op
checks its output for non-finite values and raises :class:`AutodiffError`
naming the op, so a NaN is caught where it is produced, not steps later. A
fused op also checks the intermediates that its output could hide, such as
a variance that overflows inside ``norm_affine``. Under ``no_grad`` the
scan is skipped: those forwards feed no gradient, and scanning would add
about 5 % to the desk transformer's inference at batch 256 and about 30 %
at batch 20.
"""

from __future__ import annotations

import contextlib
import functools
import itertools

import numpy as np

__all__ = [
    "AutodiffError",
    "Tensor",
    "tensor",
    "precision",
    "no_grad",
    "default_dtype",
    "backward",
    "zero_grads",
    "add",
    "sub",
    "mul",
    "neg",
    "scale",
    "shift",
    "matmul",
    "affine",
    "norm_affine",
    "residual_affine",
    "transpose_last2",
    "concat",
    "narrow",
    "tanh",
    "sigmoid",
    "exp",
    "sqrt",
    "square",
    "softplus",
    "clip",
    "minimum",
    "causal_attention",
    "newest_query_attention",
    "dropout",
    "mean_all",
    "sum_last",
    "mse",
    "bce_with_logits",
]


class AutodiffError(RuntimeError):
    """Raised when an op produces non-finite values or is misused."""


_DTYPE = np.float32
_TAPE = True
_SERIAL = itertools.count()
_MAX_RANK = 3


def default_dtype():
    """Current default element type (float32 unless inside precision())."""
    return _DTYPE


@contextlib.contextmanager
def precision(name):
    """Temporarily switch the default element type ("float32"/"float64")."""
    global _DTYPE
    chosen = {"float32": np.float32, "float64": np.float64}[name]
    prior = _DTYPE
    _DTYPE = chosen
    try:
        yield
    finally:
        _DTYPE = prior


@contextlib.contextmanager
def no_grad():
    """Temporarily build no tape: op outputs are constants without parents."""
    global _TAPE
    prior = _TAPE
    _TAPE = False
    try:
        yield
    finally:
        _TAPE = prior


def _checked(out, op_name):
    if _TAPE and not np.all(np.isfinite(out)):
        raise AutodiffError(f"op '{op_name}' produced non-finite values")
    return out


class Tensor:
    """A node in the computation tape.

    Leaves are created with :func:`tensor`; interior nodes are produced by
    ops. ``grad`` is lazily allocated by backward() and accumulates across
    calls until :func:`zero_grads` resets it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_serial")

    def __init__(self, data, requires_grad=False, _parents=(), _vjp=None):
        arr = np.asarray(data)
        if arr.ndim > _MAX_RANK:
            raise AutodiffError(f"rank {arr.ndim} exceeds supported maximum {_MAX_RANK}")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._vjp = _vjp
        self._serial = next(_SERIAL)

    @property
    def shape(self):
        return self.data.shape

    @property
    def is_leaf(self):
        return not self._parents

    def _accumulate(self, g, owned=False):
        # owned: g is a fresh array no one else holds, so it may become
        # the gradient buffer without a copy.
        if self.grad is None:
            if owned and g.shape == self.data.shape and g.dtype == self.data.dtype:
                self.grad = g
            else:
                self.grad = np.array(np.broadcast_to(g, self.data.shape), dtype=self.data.dtype)
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad=False):
    """Create a leaf tensor in the current default precision."""
    return Tensor(np.asarray(data, dtype=_DTYPE), requires_grad=requires_grad)


def _node(op_name, data, parents, vjp):
    if not _TAPE:
        return Tensor(data)
    needs = any(p.requires_grad for p in parents)
    out = Tensor(_checked(data, op_name), requires_grad=needs, _parents=parents if needs else (), _vjp=vjp if needs else None)
    return out


def _unbroadcast(g, shape):
    # Sum the upstream gradient back down to a broadcast operand's shape.
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _binary(op_name, a, b, fwd, da, db):
    data = fwd(a.data, b.data)
    if data.ndim > _MAX_RANK:
        raise AutodiffError(f"op '{op_name}' output rank {data.ndim} exceeds {_MAX_RANK}")

    def vjp(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(da(g), a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(db(g), b.data.shape))

    return _node(op_name, data, (a, b), vjp)


def add(a, b):
    return _binary("add", a, b, np.add, lambda g: g, lambda g: g)


def sub(a, b):
    return _binary("sub", a, b, np.subtract, lambda g: g, lambda g: -g)


def mul(a, b):
    return _binary("mul", a, b, np.multiply, lambda g: g * b.data, lambda g: g * a.data)


def neg(a):
    def vjp(g):
        a._accumulate(-g)

    return _node("neg", -a.data, (a,), vjp)


def scale(a, c):
    """Multiply by a python scalar (kept off the tape)."""
    c = float(c)

    def vjp(g):
        a._accumulate(g * c)

    return _node("scale", a.data * c, (a,), vjp)


def shift(a, c):
    """Add a python scalar (kept off the tape)."""
    c = float(c)

    def vjp(g):
        a._accumulate(g)

    return _node("shift", a.data + c, (a,), vjp)


def matmul(a, b):
    """Matrix product, 2D x 2D or batched 3D; a 2D operand broadcasts.

    Per-position projections of a (B, T, in) batch use :func:`affine`,
    whose flattened product keeps rows independent of the batch size.
    """
    if a.data.ndim not in (2, 3) or b.data.ndim not in (2, 3):
        raise AutodiffError("matmul expects rank-2 or rank-3 operands")
    data = a.data @ b.data

    def vjp(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return _node("matmul", data, (a, b), vjp)


def affine(x, w, b, relu=False):
    """x @ w + b for x of shape (N, in) or (B, T, in) and w of (in, out);
    with relu=True, max(x @ w + b, 0).

    One tape node, relu included: the relu runs in place on the product,
    and its backward zeroes the upstream gradient where the output is not
    positive (subgradient 0 at exactly 0) before the affine backward. The
    finite scan reads the product before the relu, which would hide -inf.

    A rank-3 x is evaluated as one flattened 2D product. The flattened
    rows are zero-padded to a multiple of 4 and the result is sliced
    back: OpenBLAS picks its kernel by row count (one row goes through
    gemv), and some kernels change a row's bits at counts that are not a
    multiple of 4. Padded, each row's result is the same at every row
    count, which the exact-prefix property of the transformer and its
    last-position inference rely on. Row counts that are already a
    multiple of 4 take no copy.
    """
    out = _affine(x.data, w.data, b.data, "affine")

    def vjp(g):
        if relu:
            # g is the node's own gradient buffer, dropped after this call.
            g *= out > 0
        gx = _affine_vjp(g, x.data, w, b, x.requires_grad)
        if gx is not None:
            x._accumulate(gx, owned=True)

    node = _node("affine", out, (x, w, b), vjp)
    if relu:
        np.maximum(out, 0, out=out)
    return node


def _affine(x, w, b, op_name):
    # The array-level product of affine, on numpy arrays.
    if x.ndim not in (2, 3) or w.ndim != 2:
        raise AutodiffError(f"{op_name} expects a rank-2 or rank-3 input and a rank-2 weight")
    flat = x.reshape(-1, x.shape[-1])
    rows = flat.shape[0]
    if rows % 4:
        padded = np.zeros((rows + -rows % 4, flat.shape[1]), dtype=flat.dtype)
        padded[:rows] = flat
        flat = (padded @ w)[:rows]
    else:
        flat = flat @ w
    flat += b
    return flat.reshape(x.shape[:-1] + (w.shape[-1],))


def _affine_vjp(g, x, w, b, input_grad):
    # Accumulates the gradients of x @ w + b, for the array x, into the
    # tensors w and b; returns x's gradient when input_grad, else None.
    g2 = g.reshape(-1, g.shape[-1])
    if w.requires_grad:
        w._accumulate(x.reshape(-1, x.shape[-1]).T @ g2, owned=True)
    if b.requires_grad:
        b._accumulate(_unbroadcast(g, b.data.shape))
    if not input_grad:
        return None
    if w.data.shape[1] > 1:
        return (g2 @ w.data.T).reshape(x.shape)
    # A one-column weight (a critic's or the discriminator's output layer)
    # makes x's gradient an outer product, which OpenBLAS runs as a K = 1
    # matrix product at about 1 GFLOP/s. The broadcast product has its
    # bits once +0.0 is added: that turns each -0.0 product into the +0.0
    # that the matrix product's zeroed accumulator gives.
    gx = g2 * w.data.T
    gx += 0.0
    return gx.reshape(x.shape)


def norm_affine(a, gain, bias, w, b, relu=False):
    """affine(layer_norm(a), w, b, relu) as one tape node: a layer norm
    over the last axis (arXiv 1607.06450, eps 1e-5) with its own gain and
    bias, and the projection that reads it.

    The normalized output is never a tape tensor. The node keeps the
    normalized rows xhat = (a - mean) / std and the std, and its backward
    recomputes xhat * gain + bias, with the forward's own ops, for the
    weight gradient. With gn the gradient of that normalized output and
    gx = gn * gain, the input gradient is
    dx = (gx - mean(gx) - xhat * mean(gx * xhat)) / std over the last axis.
    The output and every gradient have the bits of the two nodes it
    replaces, a layer norm and an ``affine``. A standard deviation that
    overflows raises here, although the normalized output would still be
    finite.
    """
    normed, xhat, std = _layer_norm(a.data, gain.data, bias.data, 1e-5)
    _checked(std, "norm_affine")
    out = _affine(normed, w.data, b.data, "norm_affine")

    def vjp(g):
        if relu:
            # g is the node's own gradient buffer, dropped after this call.
            g *= out > 0
        needs = a.requires_grad or gain.requires_grad or bias.requires_grad
        gn = _affine_vjp(g, _gained(xhat, gain.data, bias.data), w, b, needs)
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(gn * xhat, gain.data.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(gn, bias.data.shape))
        if a.requires_grad:
            gx = gn * gain.data
            centre = _row_mean(gx)
            slope = _row_mean(gx * xhat)
            gx -= centre
            gx -= xhat * slope
            gx /= std
            a._accumulate(gx, owned=True)

    node = _node("norm_affine", out, (a, gain, bias, w, b), vjp)
    if relu:
        np.maximum(out, 0, out=out)
    return node


def residual_affine(h, x, w, b, p, rng, train):
    """h + dropout(x @ w + b, p): a residual branch's last projection, its
    dropout and the residual sum as one tape node.

    The product and its dropped copy are never tape tensors; the node
    keeps only the boolean mask. The output and every gradient have the
    bits of ``add(h, dropout(affine(x, w, b), p, rng, train))``: addition
    commutes exactly, and the mask draws the same numbers from rng. h must
    have the shape of the product, which is checked before anything is
    computed. When h is a taped op output (it has parents), the sum is
    written into h's buffer, which the output then shares; a leaf h, and
    any h under no_grad, is left as it was.
    """
    if h.data.shape != x.data.shape[:-1] + w.data.shape[-1:]:
        raise AutodiffError("residual_affine expects h to have the shape of x @ w")
    out = _affine(x.data, w.data, b.data, "residual_affine")
    keep, scale = _dropout_keep(out.shape, p, rng) if train and p else (None, None)
    if keep is not None:
        _dropped(out, keep, scale, out=out)
    if _TAPE and h._parents:
        out = np.add(h.data, out, out=h.data)
    else:
        out += h.data

    def vjp(g):
        gx = _affine_vjp(g if keep is None else _dropped(g, keep, scale), x.data, w, b,
                         x.requires_grad)
        if gx is not None:
            x._accumulate(gx, owned=True)
        if h.requires_grad:
            h._accumulate(g, owned=True)

    return _node("residual_affine", out, (h, x, w, b), vjp)


def transpose_last2(a):
    def vjp(g):
        a._accumulate(np.swapaxes(g, -1, -2))

    return _node("transpose_last2", np.swapaxes(a.data, -1, -2), (a,), vjp)


def concat(parts, axis=-1):
    parts = tuple(parts)
    sizes = [p.data.shape[axis] for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)

    def vjp(g):
        offset = 0
        for p, size in zip(parts, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis if axis >= 0 else g.ndim + axis] = slice(offset, offset + size)
            if p.requires_grad:
                p._accumulate(g[tuple(sl)])
            offset += size

    return _node("concat", data, parts, vjp)


def narrow(a, start, length, axis=-1):
    """Contiguous slice [start, start+length) along one axis."""
    ax = axis if axis >= 0 else a.data.ndim + axis
    sl = [slice(None)] * a.data.ndim
    sl[ax] = slice(start, start + length)
    sl = tuple(sl)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[sl] = g
        a._accumulate(full)

    return _node("narrow", a.data[sl], (a,), vjp)


def _unary(op_name, a, fwd, dfdx_from_out):
    data = fwd(a.data)

    def vjp(g):
        a._accumulate(g * dfdx_from_out(data, a.data), owned=True)

    return _node(op_name, data, (a,), vjp)


def tanh(a):
    return _unary("tanh", a, np.tanh, lambda out, _x: 1.0 - out * out)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus(x):
    # log(1 + e^x), evaluated as max(x, 0) + log1p(e^-|x|) for stability.
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(a):
    return _unary("sigmoid", a, _sigmoid, lambda out, _x: out * (1.0 - out))


def exp(a):
    return _unary("exp", a, np.exp, lambda out, _x: out)


def sqrt(a):
    return _unary("sqrt", a, np.sqrt, lambda out, _x: 0.5 / out)


def square(a):
    return _unary("square", a, np.square, lambda _out, x: 2.0 * x)


def softplus(a):
    return _unary("softplus", a, _softplus, lambda _out, x: _sigmoid(x))


def clip(a, lo, hi):
    """Clamp to [lo, hi]; subgradient is 0 at and beyond the boundaries."""
    lo = float(lo)
    hi = float(hi)

    def vjp(g):
        inside = (a.data > lo) & (a.data < hi)
        a._accumulate(g * inside.astype(a.data.dtype))

    return _node("clip", np.clip(a.data, lo, hi), (a,), vjp)


def minimum(a, b):
    """Elementwise minimum; ties route the gradient to the first operand."""

    def vjp(g):
        take_a = a.data <= b.data
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * take_a.astype(g.dtype), a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * (~take_a).astype(g.dtype), b.data.shape))

    return _node("minimum", np.minimum(a.data, b.data), (a, b), vjp)


@functools.lru_cache(maxsize=64)
def _causal_mask(rows, t, dtype):
    # The additive mask of the last `rows` of t positions: -inf on every
    # column after a row's own position, 0 elsewhere. Read-only, as it is
    # shared by every call.
    mask = np.triu(np.full((t, t), -np.inf, dtype=dtype), 1)[t - rows :]
    mask.flags.writeable = False
    return mask


def _causal_softmax(x):
    # Row softmax of (..., Q, T) scores of the last Q of T positions under
    # a strict causal mask. An additive -inf mask gives future columns
    # exp(-inf) = 0 exactly, and their gradients in _softmax_vjp are
    # exactly zero too, so position t depends only on columns <= t.
    # Row totals are summed column by column: appending masked (zero)
    # columns must not change earlier rows' normalization bits, which a
    # pairwise sum would. The row max is taken column by column too: over
    # these short rows that is cheaper than a reduction once there are a
    # few dozen heads x windows (the desk BeT at B >= 20), and max being
    # exact, it gives the same bits. Each row's bits do not depend on how
    # many of the rows before it are computed.
    t = x.shape[-1]
    w = x + _causal_mask(x.shape[-2], t, x.dtype)
    top = w[..., :1].copy()
    for j in range(1, t):
        np.maximum(top, w[..., j : j + 1], out=top)
    w -= top
    np.exp(w, out=w)
    totals = w[..., :1].copy()
    for j in range(1, t):
        totals += w[..., j : j + 1]
    w /= totals
    return w


def _softmax_vjp(out, g):
    return out * (g - (g * out).sum(axis=-1, keepdims=True))


def _dropout_keep(shape, p, rng):
    # Inverted-dropout mask from 16-bit integers u, four to each 64-bit
    # word of the generator's raw stream: an element is kept when
    # u >= thr = round(p * 2^16), and a kept one scaled by
    # 2^16 / (2^16 - thr). So the rate is p rounded to a multiple of 2^-16.
    # Returns the boolean mask and the scale, which _dropped applies.
    thr = round(p * 65536)
    if not 0 <= thr < 65536:
        raise AutodiffError(f"dropout rate {p} is not in [0, 1) at 16-bit resolution")
    n = int(np.prod(shape))
    u = rng.bit_generator.random_raw(-(-n // 4)).astype("<u8", copy=False).view("<u2")[:n]
    return (u >= thr).reshape(shape), 65536 / (65536 - thr)


def _dropped(x, keep, scale, out=None):
    # x * keep, then * scale: the bits of x * (keep * scale), since
    # multiplying by 1 or 0 is exact, with a one-byte mask.
    out = np.multiply(x, keep, out=out)
    out *= scale
    return out


def _heads(x, n):
    # (B, T, n*d) -> (n, B, T, d) as a view: [i, b] is column block i of
    # window b.
    b, t, width = x.shape
    return x.reshape(b, t, n, width // n).transpose(2, 0, 1, 3)


def _qkv_heads(qkv, n_heads):
    # The queries, keys and values of a packed (B, T, 3*H*d) array, each
    # an (H, B, T, d) view of it.
    heads = _heads(qkv, 3 * n_heads)
    return heads[:n_heads], heads[n_heads : 2 * n_heads], heads[2 * n_heads :]


def _inv_sqrt(d):
    return float(1.0 / np.sqrt(d))


def causal_attention(qkv, n_heads, p, rng, train):
    """Multi-head causal self-attention over a packed (B, T, 3*H*d)
    projection: the queries, keys and values side by side, each (H*d)
    wide with its heads in order.

    Every head of every window runs in a few batched matmuls over
    head-major (H, B, T, d) strided views of the packed projection,
    [h, b] holding head h of window b: scaled scores, a row softmax that
    gives every future position exactly zero weight, inverted dropout on
    the weights and the value product, written through a view into the
    (B, T, H*d) output, heads side by side. Only the transposed keys are
    copied, for the score product, and the copy is not kept.
    A dropout draw takes four mask values from each 64-bit word, so one
    draw of shape (H, B, T, T) equals, value for value, H successive
    per-head draws of shape (B, T, T) when each head's B*T*T is a multiple
    of 4. The node keeps the softmax weights and the boolean mask; the
    backward masks the weights again and writes the query, key and value
    gradients through views into one packed buffer.
    """
    if qkv.data.ndim != 3 or qkv.data.shape[-1] % (3 * n_heads):
        raise AutodiffError("causal_attention expects a (B, T, 3*H*d) packed projection")
    b, t, width = qkv.data.shape
    q, k, v = _qkv_heads(qkv.data, n_heads)
    inv_sqrt = _inv_sqrt(width // (3 * n_heads))
    w = _attention_weights(q, k, inv_sqrt, "causal_attention")
    keep, scale = _dropout_keep(w.shape, p, rng) if train and p else (None, None)
    out = np.empty((b, t, width // 3), dtype=qkv.data.dtype)
    np.matmul(w if keep is None else _dropped(w, keep, scale), v, out=_heads(out, n_heads))

    def vjp(g):
        q, k, v = _qkv_heads(qkv.data, n_heads)
        grads = np.empty(qkv.data.shape, dtype=qkv.data.dtype)
        gq, gk, gv = _qkv_heads(grads, n_heads)
        gh = _heads(g, n_heads)
        wd = w if keep is None else _dropped(w, keep, scale)
        np.matmul(np.swapaxes(wd, -1, -2), gh, out=gv)
        # A contiguous copy of the transposed values, as for the keys.
        gw = gh @ np.ascontiguousarray(np.swapaxes(v, -1, -2))
        if keep is not None:
            _dropped(gw, keep, scale, out=gw)
        gs = _softmax_vjp(w, gw)
        gs *= inv_sqrt
        np.matmul(gs, k, out=gq)
        np.matmul(np.swapaxes(gs, -1, -2), q, out=gk)
        qkv._accumulate(grads, owned=True)

    return _node("causal_attention", out, (qkv,), vjp)


def newest_query_attention(qkv, n_heads):
    """The last position of ``causal_attention(qkv, n_heads, p, rng,
    train=False)``, (B, 1, H*d), with its bits: only the newest query is
    scored, against every key. It has no backward, so it raises
    AutodiffError where a tape would record it (qkv requires a gradient
    outside ``no_grad``).

    Its score and value products have one query row where the full op's
    have T; OpenBLAS gives each row the same bits at both row counts,
    which the tests check at the BeT's shapes with one and two BLAS
    threads."""
    if _TAPE and qkv.requires_grad:
        raise AutodiffError("newest_query_attention has no backward; run it under no_grad()")
    if qkv.data.ndim != 3 or qkv.data.shape[-1] % (3 * n_heads):
        raise AutodiffError("newest_query_attention expects a (B, T, 3*H*d) packed projection")
    b, t, width = qkv.data.shape
    q, k, v = _qkv_heads(qkv.data, n_heads)
    w = _attention_weights(q[:, :, t - 1 :], k, _inv_sqrt(width // (3 * n_heads)),
                           "newest_query_attention")
    out = np.empty((b, 1, width // 3), dtype=qkv.data.dtype)
    np.matmul(w, v, out=_heads(out, n_heads))
    return Tensor(out)


def _attention_weights(q, k, inv_sqrt, op_name):
    # Causal softmax weights of (H, B, Q, d) queries, the last Q positions,
    # against (H, B, T, d) keys. The keys are transposed into a contiguous
    # copy: a product against a transposed view gives the same bits, but
    # OpenBLAS runs it about three times slower at these small sizes.
    scores = q @ np.ascontiguousarray(np.swapaxes(k, -1, -2))
    scores *= inv_sqrt
    _checked(scores, op_name)
    return _causal_softmax(scores)


def dropout(a, p, rng, train):
    """Inverted dropout: zero with probability p and rescale by 1/(1-p),
    with p rounded to a multiple of 2^-16 (the mask draws 16-bit integers).
    The node keeps a boolean mask and applies it, then the scale, which
    gives the bits of one multiply by a mask of zeros and scales.

    Outside training (or at p = 0) it is the identity and returns ``a``
    itself, adding nothing to the tape.
    """
    p = float(p)
    if not train or p == 0.0:
        return a
    keep, scale = _dropout_keep(a.data.shape, p, rng)

    def vjp(g):
        # g is the node's own gradient buffer, dropped after this call.
        a._accumulate(_dropped(g, keep, scale, out=g), owned=True)

    return _node("dropout", _dropped(a.data, keep, scale), (a,), vjp)


def mean_all(a):
    n = a.data.size

    def vjp(g):
        a._accumulate(np.full_like(a.data, float(g) / n))

    return _node("mean_all", np.asarray(a.data.mean(), dtype=a.data.dtype), (a,), vjp)


def sum_last(a):
    """Sum over the last axis, which is kept with size 1."""

    def vjp(g):
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _node("sum_last", a.data.sum(axis=-1, keepdims=True), (a,), vjp)


def mse(pred, target):
    """Mean squared error over all elements; scalar output."""
    diff = pred.data - target.data
    n = diff.size

    def vjp(g):
        common = (2.0 / n) * float(g) * diff
        if pred.requires_grad:
            pred._accumulate(common)
        if target.requires_grad:
            target._accumulate(-common)

    return _node("mse", np.asarray(np.mean(diff * diff), dtype=pred.data.dtype), (pred, target), vjp)


def bce_with_logits(logits, targets):
    """Mean binary cross-entropy from logits; scalar output.

    Stable form: mean(softplus(l) - l * y). Gradient wrt logits is
    (sigmoid(l) - y) / n.
    """
    x = logits.data
    y = targets.data
    sp = _softplus(x)
    n = x.size

    def vjp(g):
        sig = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        if logits.requires_grad:
            logits._accumulate(float(g) / n * (sig - y))
        if targets.requires_grad:
            targets._accumulate(float(g) / n * (-x))

    return _node("bce_with_logits", np.asarray(np.mean(sp - x * y), dtype=x.dtype), (logits, targets), vjp)


def _row_mean(x):
    # np.add.reduce over the last axis, divided by the width: the bits of
    # x.mean(axis=-1, keepdims=True) without np.mean's per-call overhead.
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _layer_norm(x, gain, bias, eps):
    c = x - _row_mean(x)
    std = np.sqrt(_row_mean(np.square(c)) + eps)
    c /= std
    return _gained(c, gain, bias), c, std


def _gained(xhat, gain, bias):
    # xhat * gain + bias: the layer norm's output from its normalized rows.
    out = xhat * gain
    out += bias
    return out


def backward(root):
    """Accumulate gradients of a scalar root into every reachable leaf.

    Nodes are visited exactly once, in reverse tape append order. Calling
    twice without zero_grads() sums the two gradient fields.
    """
    if root.data.size != 1:
        raise AutodiffError("backward requires a scalar root")
    nodes = []
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    nodes.sort(key=lambda n: n._serial)
    root._accumulate(np.ones_like(root.data))
    for node in reversed(nodes):
        if node._vjp is not None and node.grad is not None:
            node._vjp(node.grad)
        if not node.is_leaf:
            node.grad = None


def zero_grads(tensors):
    for t in tensors:
        t.grad = None
