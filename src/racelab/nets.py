"""Network building blocks on top of the autodiff core.

Every net has one forward, ``__call__``, on tape tensors. ``predict``
runs that same forward under ``autodiff.no_grad()`` on a numpy array and
returns an array, for gradient-free uses (rollouts, bootstrap targets,
reward computation); it builds no tape and leaves parameter gradients
untouched.

Also here: the taped input-gradient construction used by the gradient
penalty. It writes the backward pass of a small MLP as ordinary tape ops,
so differentiating the resulting gradient norm again yields exact
second-order parameter gradients without a dedicated double-backward
engine.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from collections import OrderedDict

import numpy as np

from . import autodiff as ad

__all__ = [
    "trunc_normal",
    "Affine",
    "MLP",
    "frozen",
    "mlp_input_gradient",
    "gradient_penalty",
    "CheckpointError",
    "replacing",
    "save_params",
    "load_meta",
    "load_params",
    "params_checksum",
]

CHECKPOINT_FORMAT = "racelab-tensors-v1"


class CheckpointError(ValueError):
    """A checkpoint file or bundle that this version cannot read: another
    format, truncated or padded bytes, or contents that do not match."""


def trunc_normal(shape, std, rng):
    """Normal(0, std) redrawn until within two standard deviations."""
    out = rng.standard_normal(shape)
    for _ in range(8):
        bad = np.abs(out) > 2.0
        if not bad.any():
            break
        out[bad] = rng.standard_normal(int(bad.sum()))
    return (np.clip(out, -2.0, 2.0) * std).astype(ad.default_dtype())


class Affine:
    """x @ W + b with W of shape (fan_in, fan_out)."""

    def __init__(self, fan_in, fan_out, rng, w_std=None, zero=False):
        if zero:
            w = np.zeros((fan_in, fan_out), dtype=ad.default_dtype())
        else:
            std = w_std if w_std is not None else 1.0 / np.sqrt(fan_in)
            w = trunc_normal((fan_in, fan_out), std, rng)
        self.W = ad.Tensor(w, requires_grad=True)
        self.b = ad.Tensor(np.zeros(fan_out, dtype=ad.default_dtype()), requires_grad=True)

    def __call__(self, x, relu=False):
        return ad.affine(x, self.W, self.b, relu=relu)


class MLP:
    """Fully connected stack with one activation per layer: relu (fused
    into the layer's affine node), tanh or identity."""

    def __init__(self, dims, acts, rng, name="mlp", final_zero=False):
        if len(acts) != len(dims) - 1 or not set(acts) <= {"relu", "tanh", "identity"}:
            raise ValueError("need one activation per layer: relu, tanh or identity")
        self.dims = list(dims)
        self.acts = list(acts)
        self.name = name
        self.layers = []
        for i in range(len(dims) - 1):
            zero = final_zero and i == len(dims) - 2
            self.layers.append(Affine(dims[i], dims[i + 1], rng, zero=zero))

    def params(self):
        out = OrderedDict()
        for i, layer in enumerate(self.layers):
            out[f"{self.name}.{i}.W"] = layer.W
            out[f"{self.name}.{i}.b"] = layer.b
        return out

    def __call__(self, x):
        return self.outputs(x)[-1]

    def outputs(self, x):
        """Every layer's output, after its activation, in layer order."""
        out = [x]
        for layer, act in zip(self.layers, self.acts):
            h = layer(out[-1], relu=act == "relu")
            out.append(ad.tanh(h) if act == "tanh" else h)
        return out[1:]

    def predict(self, x):
        """Gradient-free forward of an array, which is not cast."""
        with ad.no_grad():
            return self(ad.Tensor(np.asarray(x))).data


@contextlib.contextmanager
def frozen(params):
    """Hold parameter tensors fixed for the block.

    Their requires_grad is cleared, so a backward through them computes
    no gradient for them and leaves their .grad as it was, and restored
    when the block ends, however it ends.
    """
    prior = [(p, p.requires_grad) for p in params]
    for p, _ in prior:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, flag in prior:
            p.requires_grad = flag


def mlp_input_gradient(mlp, x):
    """Tape-resident gradient of a scalar-output MLP wrt its input.

    Returns (output, input_grad) as tensors of shapes (B, 1) and (B, in).
    The backward pass is spelled out with primitive ops, so backward()
    through input_grad produces exact second-order parameter gradients.
    Supported activations: tanh and identity, the discriminator's. Any
    other activation, relu included, raises naming it: this backward
    pass is written for those two only.
    """
    if mlp.dims[-1] != 1:
        raise ad.AutodiffError("input gradient requires a scalar-output net")
    for act in mlp.acts:
        if act not in ("tanh", "identity"):
            raise ad.AutodiffError(f"input gradient does not support activation '{act}'")
    post = mlp.outputs(x)
    g = ad.tensor(np.ones((x.data.shape[0], 1)))
    for layer, act, h in reversed(list(zip(mlp.layers, mlp.acts, post))):
        if act == "tanh":
            g = ad.mul(g, ad.shift(ad.neg(ad.square(h)), 1.0))
        g = ad.matmul(g, ad.transpose_last2(layer.W))
    return post[-1], g


def gradient_penalty(mlp, x_hat, target):
    """Mean squared deviation of the input-gradient norm from target.

    x_hat is a constant batch (B, in). Returns the scalar penalty tensor;
    backward() through it updates the net toward unit input gradients.
    """
    _, grad = mlp_input_gradient(mlp, ad.tensor(x_hat))
    norm = ad.sqrt(ad.shift(ad.sum_last(ad.square(grad)), 1e-12))
    want = ad.tensor(np.full((x_hat.shape[0], 1), float(target)))
    return ad.mse(norm, want)


@contextlib.contextmanager
def replacing(path, mode):
    """Yield ``<path>.tmp`` open in mode, and rename it onto path when the
    block ends. A block stopped by any exception, an interrupt included,
    removes the temporary file and re-raises, so path keeps its old bytes
    or stays absent, and nothing is left beside it."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_params(path, named_arrays, meta):
    """Write named arrays as a JSON header line plus raw buffers.

    Buffers follow in sorted name order, little-endian, dtype per entry
    recorded in the header. The byte stream is a pure function of the
    inputs, so identical params produce identical files. Each buffer is
    written as it stands when it is already contiguous and little-endian,
    so a save holds no copy of it. The file is written beside path and
    then renamed onto it, so a stopped save leaves no partial checkpoint.
    """
    entries = []
    buffers = []
    for name in sorted(named_arrays):
        arr = named_arrays[name]
        arr = arr.data if hasattr(arr, "data") and isinstance(getattr(arr, "data"), np.ndarray) else np.asarray(arr)
        code = {"float32": "<f4", "float64": "<f8"}[str(arr.dtype)]
        entries.append({"name": name, "shape": list(arr.shape), "dtype": code})
        buffers.append(np.ascontiguousarray(arr, dtype=code))
    header = {"format": CHECKPOINT_FORMAT, "meta": meta, "tensors": entries}
    with replacing(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for buf in buffers:
            fh.write(memoryview(buf))


def _read_header(fh, path):
    """The header of an open checkpoint, and its tensors as (name, shape,
    dtype) in file order. A header that is not a dict with a meta dict and
    a list of tensors, each a string name, a shape of integers >= 0 and a
    dtype that save_params writes, is refused."""
    try:
        header = json.loads(fh.readline().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint header in {path}") from exc
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"unrecognized checkpoint format in {path}")
    tensors = header.get("tensors")
    if not isinstance(header.get("meta"), dict) or not isinstance(tensors, list) or not all(
            isinstance(e, dict) and isinstance(e.get("name"), str)
            and isinstance(e.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in e["shape"])
            and e.get("dtype") in ("<f4", "<f8") for e in tensors):
        raise CheckpointError(f"unreadable checkpoint header in {path}")
    return header, [(e["name"], tuple(e["shape"]), np.dtype(e["dtype"])) for e in tensors]


def load_meta(path):
    """The meta dict of a checkpoint, read from its header alone."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)[0]["meta"]


def load_params(path, into=None):
    """Read a checkpoint written by save_params; returns (meta, arrays).

    The file's size is checked against its header before anything is
    read, so a truncated or padded file is refused whole. Each tensor's
    bytes are then read straight into its final array, so a load holds
    one copy of each.

    into, when given, is called with the meta and the stored shapes by
    name, and returns the destinations, arrays or parameter tensors by
    name, that those tensors are read into in place; it may raise to
    refuse the file. Every destination must be in the file, as a tensor of
    its shape and dtype, and C-contiguous; otherwise the file is refused
    before any byte is read into one. A tensor with no destination is
    read into a fresh array.
    """
    with open(path, "rb") as fh:
        header, entries = _read_header(fh, path)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        for name, shape, dt in entries:
            left -= math.prod(shape) * dt.itemsize
            if left < 0:
                raise CheckpointError(f"truncated checkpoint {path} at tensor {name}")
        if left:
            raise CheckpointError(f"trailing bytes in checkpoint {path}")
        stored = {name: (shape, dt) for name, shape, dt in entries}
        dests = {} if into is None else into(header["meta"],
                                             {name: shape for name, (shape, _) in stored.items()})
        dests = {name: d.data if isinstance(d, ad.Tensor) else d for name, d in dests.items()}
        for name, arr in dests.items():
            if name not in stored:
                raise CheckpointError(f"checkpoint missing parameter {name}")
            shape, dt = stored[name]
            if arr.shape != shape or arr.dtype != dt or not arr.flags.c_contiguous:
                raise CheckpointError(f"{path} holds {name} as {shape} {dt}, which does not "
                                      f"fit its destination {arr.shape} {arr.dtype}")
        arrays = OrderedDict()
        for name, shape, dt in entries:
            arr = dests[name] if name in dests else np.empty(shape, dtype=dt)
            if fh.readinto(arr) != arr.nbytes:
                raise CheckpointError(f"truncated checkpoint {path} at tensor {name}")
            arrays[name] = arr
    return header["meta"], arrays


def params_checksum(named):
    """SHA-256 over parameter names and bytes, in name order."""
    digest = hashlib.sha256()
    for name in sorted(named):
        digest.update(name.encode("utf-8"))
        digest.update(named[name].data.tobytes())
    return digest.hexdigest()
