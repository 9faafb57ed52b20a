"""Reverse-mode automatic differentiation over numpy arrays.

Tensors are float64 numpy arrays plus gradient bookkeeping. Every operation
whose inputs require gradients records a node on a module-level tape in
creation order; backward() replays the tape in reverse, which is a valid
topological order, so each node propagates to its parents exactly once and
gradients of reused tensors accumulate additively. backward() releases
each tape node (its gradient, rule and sinks) as soon as the node's
rule has run, so only leaf tensors keep a .grad afterwards.

The tape holds gradient slots, not outputs. A node is data-free: a grad
slot, the op's backward rule, the output's dtype, and one gradient sink
per input (the input's own node, the input itself when it is a leaf that
requires grad, or None for a constant). The rule runs as rule(g, *sinks)
and saves only the arrays it reads; it never holds a Tensor. So an
intermediate's data is freed as soon as the forward code drops it, unless
a rule reads it: matmul keeps each operand only for the other operand's
gradient, softmax and relu keep their output, cross_entropy keeps its
softmax, embedding_lookup keeps only its ids, dropout keeps its boolean
mask, recompute keeps only its inputs' arrays and its generators' states,
and add, reshape, transpose, concat, row_slice and sum keep no array at
all. A rule computes nothing for a constant input.

Gradient buffers have one owner. A backward rule hands each sink an
array that no other sink holds: a new array, or a reshape, transpose or
slice of the incoming gradient, which is never read again once the node's
own rule has run. The first gradient a sink receives becomes its grad
without a copy; later ones are added into it in place. add() is the one
rule that could give the same array to two sinks, so it copies for the
second.

An op writes in place only into an array it allocated itself, never into
its inputs' data. The one exception is relu(x, in_place=True), which
writes its output into x's array. Only a caller that owns that buffer and
drops x may ask for it: ffn hands over its W1 product, which no rule
reads (matmul's rule reads its operands, not its output). A backward rule
may write into the incoming gradient g, because g is its node's own (see
above) and never read once the rule has run: relu, dropout and softmax
turn g into their input's gradient in place. It may also write into an
array its own forward allocated and saved, because a node's rule runs
once and is released right after. Within that rule the block ops build
each result in the one array they create: matmul adds its bias into the
GEMM output, layer_norm centres, scales and applies its affine in two
buffers (the normalised copy it keeps for backward, and the output),
softmax copies its input with each blocked cell set to NEG_INF, then
shifts, exponentiates and normalises that copy, and dropout keeps a
boolean mask and scales its masked copy. cross_entropy holds one
catalog-wide buffer: its shifted copy, exponentiated and normalised in
place into the softmax it saves, which its backward turns into the
logits' gradient in place.

Shapes follow numpy broadcasting on the elementwise ops; reductions that
broadcasting introduces are summed back out in the backward rules. All
softmax/log paths are max-shifted so finite inputs never produce NaN/Inf.
A masked logit is NEG_INF, defined here once: softmax takes a boolean
"allowed" mask and applies it itself, and the contrastive self-mask adds
it.

matmul against a 2-d right operand (a weight or a transposed item table)
is one 2-d GEMM over the flattened leading axes of the left operand, in
the forward and in both gradients; only stacked products (attention)
take numpy's batched matmul.

recompute(fn, inputs, rngs) is gradient checkpointing (Chen et al.,
2016): fn runs untaped, and one node keeps only its inputs' arrays. Its
rule sets each listed generator back to its state before the forward,
replays fn on the tape over fresh leaves of those arrays, runs the
replayed nodes alone from the node's gradient, and adds each leaf's
gradient into its sink. ffn and attention are their composed ops under
recompute, so a block's sublayers leave no intermediate on the tape, and
their gradients are those ops' own rules. A tracer that wraps the ops
sees each step in the forward and again in the replay.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ShapeError

NEG_INF = -1e30  # a blocked logit; finite, so a row blocked throughout stays NaN-free


class Tensor:
    """A numpy array with an optional gradient; a taped op's output also has a node."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None  # a leaf's gradient; a taped output's lives on its node
        self._node = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

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

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return mul(self, _as_tensor(-1.0))

    def __sub__(self, other):
        return add(self, -_as_tensor(other))

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


class _Node:
    """A taped op: its output's gradient slot, backward rule, dtype and input sinks."""

    __slots__ = ("grad", "rule", "sinks", "dtype")

    def __init__(self, rule, sinks: tuple, dtype):
        self.grad = None
        self.rule = rule
        self.sinks = sinks
        self.dtype = dtype


_TAPE: list[_Node] = []
_GRAD_ENABLED = True


@contextlib.contextmanager
def _grad_mode(enabled: bool):
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = enabled
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def no_grad():
    """Disable tape recording inside the block (inference/eval paths)."""
    return _grad_mode(False)


def tape_size() -> int:
    return len(_TAPE)


def clear_tape() -> None:
    for node in _TAPE:
        node.grad = node.rule = None
        node.sinks = ()
    _TAPE.clear()


def _sink(t: Tensor):
    """Where t's gradient goes: its node, t itself if a grad leaf, else None."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _record(out: Tensor, parents: tuple[Tensor, ...], rule) -> Tensor:
    """Tape out's node if any parent requires grad; rule(g, *sinks) runs in backward."""
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(rule, tuple(_sink(p) for p in parents), out.data.dtype)
        _TAPE.append(out._node)
    return out


def _accum(sink, g: np.ndarray) -> None:
    """Add g into sink.grad; the first g is taken over, not copied (see module doc)."""
    if sink is None:
        return
    if sink.grad is None:
        if type(g) is np.ndarray and g.dtype == sink.dtype:
            sink.grad = g
        else:
            sink.grad = np.array(g, dtype=sink.dtype)
    else:
        sink.grad += g


def backward(loss: Tensor) -> None:
    """Populate .grad on every leaf requires_grad tensor reachable from loss.

    The loss must be a scalar produced on the current tape. Gradients add
    into any grads already present (call zero_grad/optimizer step between
    passes). Each tape node is released as soon as its rule has run, and
    the tape is empty afterwards.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    _accum(_sink(loss), np.ones_like(loss.data))
    _drain(0)


def _drain(mark: int) -> None:
    """Run the rules of the tape's nodes above position mark, last first,
    releasing each node as soon as its rule has run."""
    while len(_TAPE) > mark:
        node = _TAPE.pop()
        if node.grad is not None:
            node.rule(node.grad, *node.sinks)
        node.grad = node.rule = None
        node.sinks = ()


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
    a_shape, b_shape = a.shape, b.shape

    def bw(g, sa, sb):
        ga = None
        if sa is not None:
            ga = _unbroadcast(g, a_shape)
            _accum(sa, ga)
        if sb is not None:
            gb = _unbroadcast(g, b_shape)
            _accum(sb, gb.copy() if gb is ga else gb)  # sa may own ga now

    return _record(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = Tensor(a.data * b.data)
    except ValueError as exc:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from exc
    a_shape, b_shape = a.shape, b.shape
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def bw(g, sa, sb):
        if sa is not None:
            _accum(sa, _unbroadcast(g * bd, a_shape))
        if sb is not None:
            _accum(sb, _unbroadcast(g * ad, b_shape))

    return _record(out, (a, b), bw)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product on the last two axes, plus an optional bias row; leading axes broadcast.

    A 2-d right operand (a weight, or a transposed item table) is one 2-d
    GEMM: the leading axes of a are flattened into rows, for the forward,
    the input gradient and the weight gradient alike. The bias, of shape
    (b.shape[1],), is added in place into that GEMM's output. Any other b
    takes numpy's stacked matmul and no bias.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    if bias is not None and (b.ndim != 2 or bias.shape != b.shape[-1:]):
        raise ShapeError(f"matmul: a bias of shape {bias.shape} needs a 2-d right operand "
                         f"with as many columns, got {b.shape}")
    a_shape, b_shape = a.shape, b.shape
    if b.ndim == 2:
        k, m = b_shape
        a2 = a.data.reshape(-1, k)
        y = a2 @ b.data
        if bias is not None:
            y += bias.data
        out = Tensor(y.reshape(*a_shape[:-1], m))
        a2 = a2 if b.requires_grad else None
        bd = b.data if a.requires_grad else None

        def bw(g, sa, sb, sbias=None):
            g2 = g.reshape(-1, m)
            if sa is not None:
                _accum(sa, (g2 @ bd.T).reshape(a_shape))
            if sb is not None:
                _accum(sb, a2.T @ g2)
            if sbias is not None:
                _accum(sbias, _unbroadcast(g, (m,)))

        return _record(out, (a, b) if bias is None else (a, b, bias), bw)
    out = Tensor(np.matmul(a.data, b.data))
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def bw(g, sa, sb):
        if sa is not None:
            _accum(sa, _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), a_shape))
        if sb is not None:
            _accum(sb, _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), b_shape))

    return _record(out, (a, b), bw)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = Tensor(np.transpose(x.data, axes))
    inv = np.argsort(axes)

    def bw(g, sx):
        _accum(sx, np.transpose(g, inv))

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

    def bw(g, sx):
        _accum(sx, g.reshape(orig))

    return _record(out, (x,), bw)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def bw(g, *sinks):
        for s, lo, hi in zip(sinks, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(s, g[tuple(idx)])

    return _record(out, tuple(tensors), bw)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of a (V, e) table; ids may have any shape.

    The backward scatter is one bincount over the flat cell index
    id * e + column, which adds each cell's rows in id order as np.add.at
    does, so the table gradient is the same bit for bit.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"embedding table must be 2-d, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"id out of range [0, {table.shape[0]}): min={ids.min()}, max={ids.max()}"
        )
    out = Tensor(table.data[ids])
    v, e = table.shape

    def bw(g, st):
        cells = (ids.reshape(-1, 1) * e + np.arange(e)).ravel()
        _accum(st, np.bincount(cells, weights=g.ravel(), minlength=v * e).reshape(v, e))

    return _record(out, (table,), bw)


def row_slice(table: Tensor, start: int, stop: int) -> Tensor:
    """Rows start..stop-1 of a 2-d table, as a view; the gradient fills those rows of zeros."""
    if table.ndim != 2 or not 0 <= start <= stop <= table.shape[0]:
        raise ShapeError(f"row_slice: rows [{start}, {stop}) of a table of shape {table.shape}")
    out = Tensor(table.data[start:stop])
    shape = table.shape

    def bw(g, st):
        gt = np.zeros(shape, dtype=g.dtype)
        gt[start:stop] = g
        _accum(st, gt)

    return _record(out, (table,), bw)


def tensor_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))
    shape = x.shape

    def bw(g, sx):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(sx, np.broadcast_to(g, shape).copy())

    return _record(out, (x,), bw)


def tensor_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = x.size if axis is None else x.shape[axis]
    return mul(tensor_sum(x, axis=axis, keepdims=keepdims), _as_tensor(1.0 / count))


def relu(x: Tensor, in_place: bool = False) -> Tensor:
    """max(x, 0). With in_place, written into x's own array, which the caller
    hands over: it must own that buffer, no rule may read it, and it must
    drop x (see the module doc)."""
    y = np.maximum(x.data, 0.0, out=x.data if in_place else None)
    out = Tensor(y)

    def bw(g, sx):
        g *= y > 0  # y > 0 exactly where x > 0
        _accum(sx, g)

    return _record(out, (x,), bw)


def recompute(fn, inputs, rngs=()) -> Tensor:
    """fn(*inputs), taped as one node that keeps only the inputs' arrays.

    fn composes this module's ops over the Tensors it is given; it may
    capture floats, arrays and generators, never a Tensor. The forward runs
    fn untaped. The rule sets each generator in rngs back to its state
    before the forward, replays fn on the tape (under no_grad too) over
    fresh leaves of the inputs' arrays, runs only the replayed nodes from
    g and adds each leaf's gradient into its input's sink once. So a
    dropout inside fn draws the forward's mask again only when its
    generator is listed in rngs.

    Each gradient is the composed ops' bit for bit when each input feeds fn
    once, or feeds nothing outside it; otherwise an input's parts from
    inside fn are summed before they join its other parts.
    """
    states = [rng.bit_generator.state for rng in rngs]
    with no_grad():
        out = fn(*inputs)
    arrays = [x.data for x in inputs]

    def bw(g, *sinks):
        for rng, state in zip(rngs, states):
            rng.bit_generator.state = state
        mark = len(_TAPE)
        leaves = [Tensor(a, requires_grad=s is not None) for a, s in zip(arrays, sinks)]
        with _grad_mode(True):
            y = fn(*leaves)
        _accum(_sink(y), g)
        del y
        _drain(mark)
        for leaf, s in zip(leaves, sinks):
            if leaf.grad is not None:
                _accum(s, leaf.grad)

    return _record(out, tuple(inputs), bw)


def ffn(h: Tensor, W1: Tensor, b1: Tensor, W2: Tensor, b2: Tensor) -> Tensor:
    """relu(h @ W1 + b1) @ W2 + b2 under recompute; ReLU writes into the W1
    product, so a pass holds one (rows, inner) hidden array, not two."""
    def fn(h, W1, b1, W2, b2):
        return matmul(relu(matmul(h, W1, b1), in_place=True), W2, b2)

    return recompute(fn, (h, W1, b1, W2, b2))


def attention(h: Tensor, Wq: Tensor, Wk: Tensor, Wv: Tensor, Wo: Tensor, allowed: np.ndarray,
              n_heads: int, rate: float = 0.0, rngs=None, last_only: bool = False) -> Tensor:
    """A block's attention sublayer, h + dropout(attend(h) @ Wo), under recompute.

    h is (N, T, e) and allowed the boolean (N, 1, T, T) mask softmax
    applies. Each head's queries, keys and values are h's projections by
    Wq, Wk and Wv, split into n_heads; the scores, scaled by 1/sqrt(e /
    n_heads), go through softmax(scores, allowed) and dropout and weigh the
    values; the context goes through Wo and dropout and is added to h.
    rngs is None (no dropout) or the generators of the two dropout sites,
    the attention weights' then the output's, each dropping at rate. With
    last_only the queries, the residual and so the (N, 1, e) output are h's
    final column alone, gathered from h; keys and values still cover all T
    columns.

    The ops run in the order keys, values, the final column's gather,
    queries, and each intermediate is dropped once read.
    """
    n, t, e = h.shape
    dh = e // n_heads
    rows = 1 if last_only else t
    if last_only:
        allowed = allowed[:, :, -1:, :]
    scale = 1.0 / np.sqrt(dh)

    def split(x, r):
        return transpose(x.reshape(n, r, n_heads, dh), (0, 2, 1, 3))

    def fn(h, Wq, Wk, Wv, Wo):
        k = split(matmul(h, Wk), t)
        v = split(matmul(h, Wv), t)
        if last_only:
            h = embedding_lookup(h.reshape(n * t, e), np.arange(n) * t + (t - 1)).reshape(n, 1, e)
        q = split(matmul(h, Wq), rows)
        w = softmax(matmul(q, transpose_last(k)) * scale, allowed)
        del q, k
        if rngs is not None:
            w = dropout(w, rate, rngs[0])
        ctx = transpose(matmul(w, v), (0, 2, 1, 3)).reshape(n, rows, e)
        del w, v
        o = matmul(ctx, Wo)
        del ctx
        if rngs is not None:
            o = dropout(o, rate, rngs[1])
        return h + o

    return recompute(fn, (h, Wq, Wk, Wv, Wo), rngs or ())


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), computed without overflow."""
    xd = x.data
    out = Tensor(np.log1p(np.exp(-np.abs(xd))) + np.maximum(xd, 0.0))

    def bw(g, sx):
        _accum(sx, g / (1.0 + np.exp(-xd)))

    return _record(out, (x,), bw)


def softmax(x: Tensor, allowed: np.ndarray) -> Tensor:
    """Softmax over the last axis of x where the boolean allowed (broadcast
    against x) is True; a blocked cell gets weight 0, or 1/T in a row
    blocked throughout. Max-shifted for stability.

    The one copy is x with every blocked cell set to NEG_INF, which is what
    adding an additive mask of 0 and NEG_INF gives bit for bit while |x| is
    below 7e13. The rule is the unmasked softmax's: a blocked cell of a row
    with an allowed cell has weight exactly 0, so its gradient is exactly 0.
    """
    y = np.where(allowed, x.data, NEG_INF)
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def bw(g, sx):
        inner = (g * y).sum(axis=-1, keepdims=True)
        g -= inner
        g *= y
        _accum(sx, g)

    return _record(out, (x,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-8) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then scale by gain and add bias."""
    e = x.shape[-1]
    if gain.shape != (e,) or bias.shape != (e,):
        raise ShapeError(f"layer_norm: gain {gain.shape} and bias {bias.shape} "
                         f"must both be ({e},) for input {x.shape}")
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / e  # np.var, bit for bit
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    y = xhat * gain.data
    y += bias.data
    out = Tensor(y)
    gd = gain.data if x.requires_grad else None

    def bw(g, sx, sgain, sbias):
        if sgain is not None:
            _accum(sgain, _unbroadcast(g * xhat, (e,)))
        if sx is not None:
            gh = g * gd
            gm = gh.mean(axis=-1, keepdims=True)
            gx = (gh * xhat).mean(axis=-1, keepdims=True)
            gh -= gm
            gh -= xhat * gx
            gh *= inv
            _accum(sx, gh)
        if sbias is not None:
            _accum(sbias, _unbroadcast(g, (e,)))  # last: the bias may take g itself

    return _record(out, (x, gain, bias), bw)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with a mask drawn from rng; identity when rate is 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    y = x.data * keep
    y *= scale
    out = Tensor(y)

    def bw(g, sx):
        g *= keep
        g *= scale
        _accum(sx, g)

    return _record(out, (x,), bw)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """-log softmax(logits)[target] along the last axis.

    targets: int scalar or int array matching logits.shape[:-1]. Returns the
    per-example losses (a scalar tensor for a single 1-d logits row); reduce
    with .mean()/.sum() as needed.

    One buffer holds the whole head: the max-shifted copy of the logits is
    exponentiated and normalised in place into the softmax the rule keeps,
    and backward turns that softmax into the gradient in place. Only the
    target column of the log-softmax is formed, so no second catalog-wide
    array is made, forward or backward. The losses are taken before the
    normalisation, which an untaped call (no_grad, or constant logits)
    skips.
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
    at = targets[..., None]
    p = logits.data - logits.data.max(axis=-1, keepdims=True)
    picked = np.take_along_axis(p, at, axis=-1)[..., 0]
    np.exp(p, out=p)
    total = p.sum(axis=-1, keepdims=True)
    picked -= np.log(total[..., 0])  # log_softmax at the target
    out = Tensor(-picked)
    if not (_GRAD_ENABLED and logits.requires_grad):
        return out  # no rule will read the softmax
    p /= total  # the softmax, the one array the rule keeps

    def bw(g, sl):
        # the rule runs once, so it may spend its own softmax as the gradient
        np.put_along_axis(p, at, np.take_along_axis(p, at, axis=-1) - 1.0, axis=-1)
        np.multiply(p, g[..., None], out=p)
        _accum(sl, p)

    return _record(out, (logits,), bw)


def xavier_init(shape, rng: np.random.Generator) -> Tensor:
    """Uniform(-a, a) parameter tensor drawn from rng, a = sqrt(6 / (fan_in + fan_out)).

    fan_in/fan_out are the first/last dims (equal for 1-d shapes).
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) < 1 or any(s < 1 for s in shape):
        raise ShapeError(f"xavier_init needs positive dims, got {shape}")
    fan_in, fan_out = shape[0], shape[-1]
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-a, a, size=shape), requires_grad=True)
