"""Reverse-mode automatic differentiation over numpy arrays.

Tensors are float64 numpy arrays plus gradient bookkeeping. Every operation whose
inputs require gradients appends its output node to a module-level tape in
creation order; backward() replays the tape in reverse, which is a valid
topological order, so each node propagates to its parents exactly once and
gradients of reused tensors accumulate additively. backward() releases
each tape node (its gradient, rule and parent links) as soon as the node's
rule has run, so only leaf tensors keep a .grad afterwards.

Gradient buffers have one owner. A backward rule hands each parent an
array that no other tensor holds: a new array, or a reshape, transpose or
slice of the incoming gradient, which is never read again once the node's
own rule has run. The first gradient a tensor receives becomes its .grad
without a copy; later ones are added into it in place. add() is the one
rule that could give the same array to two parents, so it copies for the
second.

Shapes follow numpy broadcasting on the elementwise ops; reductions that
broadcasting introduces are summed back out in the backward rules. All
softmax/log paths are max-shifted so finite inputs never produce NaN/Inf.

matmul against a 2-d right operand (a weight or a transposed item table)
is one 2-d GEMM over the flattened leading axes of the left operand, in
the forward and in both gradients; only stacked products (attention)
take numpy's batched matmul.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ShapeError

class Tensor:
    """A numpy array with an optional gradient and a backward rule."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_bw")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._bw = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # Arithmetic sugar; scalars and arrays are wrapped as constants.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return mul(self, _as_tensor(-1.0))

    def __sub__(self, other):
        return add(self, -_as_tensor(other))

    def __rsub__(self, other):
        return add(_as_tensor(other), -self)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def param(data) -> Tensor:
    """Trainable leaf tensor."""
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

_TAPE: list[Tensor] = []
_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference/eval paths)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def tape_size() -> int:
    return len(_TAPE)


def clear_tape() -> None:
    for node in _TAPE:
        node._parents = ()
        node._bw = None
    _TAPE.clear()


def _record(out: Tensor, parents: tuple[Tensor, ...], bw) -> Tensor:
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._bw = bw
        _TAPE.append(out)
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add g into t.grad; the first g is taken over, not copied (see module doc)."""
    if not t.requires_grad:
        return
    if t.grad is None:
        if type(g) is np.ndarray and g.dtype == t.data.dtype:
            t.grad = g
        else:
            t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Populate .grad on every leaf requires_grad tensor reachable from loss.

    The loss must be a scalar produced on the current tape. Gradients add
    into any grads already present (call zero_grad/optimizer step between
    passes). Each tape node is released as soon as its rule has run, and
    the tape is empty afterwards.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.grad is None:
        loss.grad = np.ones_like(loss.data)
    else:
        loss.grad += np.ones_like(loss.data)
    while _TAPE:
        node = _TAPE.pop()
        if node.grad is not None:
            node._bw(node.grad)
        node.grad = node._bw = None
        node._parents = ()


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Elementwise and linear-algebra ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = Tensor(a.data + b.data)
    except ValueError as exc:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from exc

    def bw(g):
        ga = _unbroadcast(g, a.shape)
        _accum(a, ga)
        gb = _unbroadcast(g, b.shape)
        if gb is ga and a.requires_grad:
            gb = gb.copy()  # a may own ga now
        _accum(b, gb)

    return _record(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = Tensor(a.data * b.data)
    except ValueError as exc:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from exc

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _record(out, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product on the last two axes; leading axes broadcast.

    A 2-d right operand (a weight, or a transposed item table) is one 2-d
    GEMM: the leading axes of a are flattened into rows, for the forward,
    the input gradient and the weight gradient alike. Any other b takes
    numpy's stacked matmul.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    if b.ndim == 2:
        k, m = b.shape
        lead = a.shape[:-1]
        a2 = a.data.reshape(-1, k)
        out = Tensor((a2 @ b.data).reshape(*lead, m))

        def bw(g):
            g2 = g.reshape(-1, m)
            _accum(a, (g2 @ b.data.T).reshape(*lead, k))
            _accum(b, a2.T @ g2)

        return _record(out, (a, b), bw)
    out = Tensor(np.matmul(a.data, b.data))

    def bw(g):
        _accum(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        _accum(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

    return _record(out, (a, b), bw)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = Tensor(np.transpose(x.data, axes))
    inv = np.argsort(axes)

    def bw(g):
        _accum(x, np.transpose(g, inv))

    return _record(out, (x,), bw)


def transpose_last(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.ndim < 2:
        raise ShapeError(f"transpose_last needs >=2-d input, got {x.shape}")
    axes = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    return transpose(x, axes)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(x.data.reshape(shape))
    orig = x.shape

    def bw(g):
        _accum(x, g.reshape(orig))

    return _record(out, (x,), bw)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return _record(out, tuple(tensors), bw)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of a (V, e) table; ids may have any shape."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"embedding table must be 2-d, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"id out of range [0, {table.shape[0]}): min={ids.min()}, max={ids.max()}"
        )
    out = Tensor(table.data[ids])

    def bw(g):
        if not table.requires_grad:
            return
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        _accum(table, gt)

    return _record(out, (table,), bw)


def tensor_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))

    def bw(g):
        if axis is None:
            _accum(x, np.broadcast_to(g, x.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accum(x, np.broadcast_to(g, x.shape).copy())

    return _record(out, (x,), bw)


def tensor_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = x.size if axis is None else x.shape[axis]
    return mul(tensor_sum(x, axis=axis, keepdims=keepdims), _as_tensor(1.0 / count))


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))

    def bw(g):
        _accum(x, g * (x.data > 0))

    return _record(out, (x,), bw)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), computed without overflow."""
    out = Tensor(np.log1p(np.exp(-np.abs(x.data))) + np.maximum(x.data, 0.0))

    def bw(g):
        _accum(x, g / (1.0 + np.exp(-x.data)))

    return _record(out, (x,), bw)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, max-shifted for stability."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def bw(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accum(x, y * (g - inner))

    return _record(out, (x,), bw)


def layer_norm(x: Tensor, eps: float = 1e-8) -> Tensor:
    """Normalize the last axis to zero mean, unit variance (no affine)."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = Tensor(xhat)

    def bw(g):
        gm = g.mean(axis=-1, keepdims=True)
        gx = (g * xhat).mean(axis=-1, keepdims=True)
        _accum(x, inv * (g - gm - xhat * gx))

    return _record(out, (x,), bw)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with a mask drawn from rng; identity when rate is 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.data.dtype)
    scale = 1.0 / (1.0 - rate)
    out = Tensor(x.data * keep * scale)

    def bw(g):
        _accum(x, g * keep * scale)

    return _record(out, (x,), bw)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """-log softmax(logits)[target] along the last axis.

    targets: int scalar or int array matching logits.shape[:-1]. Returns the
    per-example losses (a scalar tensor for a single 1-d logits row); reduce
    with .mean()/.sum() as needed.
    """
    targets = np.asarray(targets, dtype=np.int64)
    n_classes = logits.shape[-1]
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(
            f"targets shape {targets.shape} does not match logits rows {logits.shape[:-1]}"
        )
    if targets.size and (targets.min() < 0 or targets.max() >= n_classes):
        raise ValueError(
            f"target id out of range [0, {n_classes}): min={targets.min()}, max={targets.max()}"
        )
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    out = Tensor(-picked)

    def bw(g):
        d = np.exp(logp)  # softmax, minus 1 at each target
        at = targets[..., None]
        np.put_along_axis(d, at, np.take_along_axis(d, at, axis=-1) - 1.0, axis=-1)
        d *= g[..., None]
        _accum(logits, d)

    return _record(out, (logits,), bw)


def xavier_init(shape, seed) -> Tensor:
    """Uniform(-a, a) parameter tensor with a = sqrt(6 / (fan_in + fan_out)).

    fan_in/fan_out are the first/last dims (equal for 1-d shapes). Accepts
    an int seed or an existing Generator; an int gives a reproducible draw.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) < 1 or any(s < 1 for s in shape):
        raise ShapeError(f"xavier_init needs positive dims, got {shape}")
    fan_in, fan_out = shape[0], shape[-1]
    a = np.sqrt(6.0 / (fan_in + fan_out))
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return Tensor(rng.uniform(-a, a, size=shape), requires_grad=True)
