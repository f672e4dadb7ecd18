"""Dense tensors with reverse-mode automatic differentiation.

Forward values are plain numpy arrays (float32 for training, float64 for
verification oracles).  Every differentiable op links its output to its
inputs and records a closure that pushes the upstream gradient back to
them; ``backward`` replays those closures once, in reverse topological
order, accumulating gradients additively across fan-out.

``backward`` consumes the graph as it goes: once the sweep has passed a
node, that node's gradient, closure and parent links are released, so
activations and intermediate gradients are freed during the sweep and
only leaf gradients (the parameters') survive it.  A second ``backward``
on the same root finds nothing left to do.

The op set is deliberately small: exactly what a pre-norm transformer
encoder/decoder with GELU FFNs, masked-token gathering, and MSE /
cross-entropy losses needs.  The ops a block and the MAE loss are made
of keep only what backward cannot cheaply recompute (Chen et al. 2016,
arXiv:1604.06174):

- ``attention`` runs on the packed output of the qkv projection; its
  closure keeps views of q, k and v into that output and the row
  log-sum-exp, never the (B, H, T, T) weights or a scaled copy of q.
- ``ffn`` is fc1 -> GELU -> fc2; its closure keeps its input and the
  fc1 pre-activation, never the tanh or the GELU output.  The hidden
  downstream classifier head is one ``ffn`` node too; ``gelu`` shares
  its arithmetic.
- ``layer_norm`` keeps its input and the (…, 1) mean and inverse
  standard deviation; backward recomputes the normalized input.
- ``masked_mse_head`` is the MAE reconstruction head and loss in one
  node: it applies the head to the gathered masked rows only and keeps
  those rows and their residual, never a full (B, T, patch) output.

The library itself no longer calls ``gelu``, ``matmul``, ``softmax``,
``transpose``, ``swap_last``, ``reshape``, ``sub``, ``mul``, ``square``,
``sum_``, ``mean_`` or ``mse``.  They stay for the tests and their
composite oracles and for ``perfbench/``, whose tracer looks every op
it times up by name.
"""

from __future__ import annotations

import math

import numpy as np

_GELU_C0 = 0.7978845608028654  # sqrt(2/pi)
_GELU_C1 = 0.044715
LAYER_NORM_EPS = 1e-6


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


class Tensor:
    """A numpy array plus a gradient buffer and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g, *, fresh: bool = False):
        """Add ``g`` into this tensor's gradient.

        The first gradient is stored as a copy unless ``fresh`` is set:
        pass ``fresh=True`` only for an array the backward closure has
        just built and hands to no other tensor, never for ``g`` itself,
        a view of it or a broadcast of it.  A fresh array of the right
        dtype is kept as is, since later fan-out adds into it in place.
        """
        if self.grad is not None:
            self.grad += g
        elif fresh and type(g) is np.ndarray and g.dtype == self.data.dtype:
            self.grad = g
        else:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)

    def backward(self):
        """Reverse sweep from this (scalar or otherwise) tensor.

        The sweep consumes the graph: after it has run a node's closure,
        it drops that node's gradient, closure and parent links, so every
        intermediate array is freed as soon as nothing upstream needs it.
        Leaf gradients are kept.  A tensor without a closure (a leaf, or
        a root whose graph an earlier call consumed) has nothing to sweep,
        so calling ``backward`` on it does nothing.
        """
        if self._backward is None:
            return
        nodes = tape(self).nodes
        if self.grad is None:
            self.grad = np.ones_like(self.data)
        while nodes:
            node = nodes.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, None, ()

    def __getitem__(self, key):
        return slice_(self, key)


class Tape:
    """Topologically ordered record of the graph below a root tensor.

    ``nodes`` lists every reachable tensor with parents before children,
    so popping from the end visits each node exactly once, children first.
    """

    def __init__(self, nodes):
        self.nodes = nodes


def tape(root: Tensor) -> Tape:
    nodes, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            nodes.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return Tape(nodes)


# ---------------------------------------------------------------------
# helpers


def as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---------------------------------------------------------------------
# primitives


def add(a, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b, like=a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b, like=a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape), fresh=True)

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b, like=a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape), fresh=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape), fresh=True)

    return _make(a.data * b.data, (a, b), backward)


def square(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (2.0 * a.data), fresh=True)

    return _make(a.data * a.data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.data.shape), fresh=True)
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.data.shape), fresh=True)

    return _make(np.matmul(a.data, b.data), (a, b), backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    axes = tuple(axes) if axes is not None else tuple(reversed(range(a.data.ndim)))
    inv = np.argsort(axes)

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.transpose(g, inv))

    return _make(np.transpose(a.data, axes), (a,), backward)


def swap_last(a: Tensor) -> Tensor:
    axes = list(range(a.data.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return transpose(a, axes)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def slice_(a: Tensor, key) -> Tensor:
    """Basic slicing (slices / ints); backward scatters into zeros."""

    def backward(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            buf[key] = g
            a._accumulate(buf, fresh=True)

    return _make(a.data[key], (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        parts = np.split(g, splits, axis=axis)
        for t, part in zip(tensors, parts):
            if t.requires_grad:
                t._accumulate(part)

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows along axis 0; integer ``idx`` may have any shape.

    Output shape is ``idx.shape + a.shape[1:]``; duplicate indices
    accumulate gradient additively.
    """
    idx = np.asarray(idx)

    def backward(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            np.add.at(buf, idx, g)
            a._accumulate(buf, fresh=True)

    return _make(a.data[idx], (a,), backward)


def _check_distinct(idx: np.ndarray, n: int, op: str):
    """Raise ``ShapeError`` when a row of ``idx`` names one of ``n`` positions twice."""
    pos = np.sort(idx % n, axis=1)
    if (pos[:, 1:] == pos[:, :-1]).any():
        raise ShapeError(f"{op}: a row of idx repeats a position")


def gather_tokens(a: Tensor, idx) -> Tensor:
    """Per-sample row selection: a is (B, T, ...), idx is (B, K) ints.

    Each row of ``idx`` must hold distinct positions (a repeat raises
    ``ShapeError``), so the backward pass scatters by plain assignment.
    """
    idx = np.asarray(idx)
    if a.data.ndim < 2 or idx.ndim != 2 or idx.shape[0] != a.data.shape[0]:
        raise ShapeError(f"gather_tokens: got data {a.data.shape}, idx {idx.shape}")
    _check_distinct(idx, a.data.shape[1], "gather_tokens")
    batch = np.arange(idx.shape[0])[:, None]

    def backward(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            buf[batch, idx] = g
            a._accumulate(buf, fresh=True)

    return _make(a.data[batch, idx], (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            a._accumulate(y * (g - (g * y).sum(axis=axis, keepdims=True)), fresh=True)

    return _make(y, (a,), backward)


def _heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """(B, T, H * hd) -> a (B, H, T, hd) view."""
    b, t, dim = a.shape
    return a.reshape(b, t, n_heads, dim // n_heads).transpose(0, 2, 1, 3)


def attention(qkv: Tensor, n_heads: int) -> Tensor:
    """Multi-head self-attention on the packed output of a qkv projection.

    ``qkv`` is (B, T, 3D): q, k and v side by side, each D = H * hd wide
    with the heads contiguous.  Returns (B, T, D), the heads concatenated:
    softmax(q kᵀ / sqrt(hd)) v per head.

    The (B, H, T, T) weights are built in one buffer and dropped once the
    output is written; the closure keeps q, k and v as views of ``qkv``
    and the row log-sum-exp (B, H, T, 1).  Backward recomputes the scaled
    q and the weights from them (FlashAttention, Dao et al. 2022) and
    reads ``rowsum(dO ∘ O)`` from the op's own output.
    """
    if qkv.data.ndim != 3 or qkv.data.shape[-1] % (3 * n_heads):
        raise ShapeError(f"attention: qkv {qkv.data.shape} is not (B, T, 3 * {n_heads} heads * hd)")
    b, t, d3 = qkv.data.shape
    dim = d3 // 3
    hd = dim // n_heads
    scale = 1.0 / math.sqrt(hd)
    q, k, v = qkv.data.reshape(b, t, 3, n_heads, hd).transpose(2, 0, 3, 1, 4)  # each (B, H, T, hd)
    s = np.matmul(q * scale, k.swapaxes(-1, -2))
    m = s.max(axis=-1, keepdims=True)
    s -= m
    np.exp(s, out=s)
    rowsum = s.sum(axis=-1, keepdims=True)
    s /= rowsum
    lse = m + np.log(rowsum)
    out = np.empty((b, t, dim), dtype=qkv.data.dtype)
    np.matmul(s, v, out=_heads(out, n_heads))

    def backward(g):
        if not qkv.requires_grad:
            return
        qs = q * scale
        p = np.matmul(qs, k.swapaxes(-1, -2))
        p -= lse
        np.exp(p, out=p)
        g_h = _heads(g, n_heads)
        delta = (g_h * _heads(out, n_heads)).sum(axis=-1, keepdims=True)
        buf = np.empty((b, t, 3, n_heads, hd), dtype=qkv.data.dtype)
        gq, gk, gv = buf.transpose(2, 0, 3, 1, 4)
        np.matmul(p.swapaxes(-1, -2), g_h, out=gv)
        ds = np.matmul(g_h, v.swapaxes(-1, -2))
        ds -= delta
        ds *= p
        del p
        np.matmul(ds, k, out=gq)
        gq *= scale
        np.matmul(ds.swapaxes(-1, -2), qs, out=gk)
        qkv._accumulate(buf.reshape(b, t, d3), fresh=True)

    return _make(out, (qkv,), backward)


def _gelu(x: np.ndarray) -> tuple:
    """GELU, tanh form, and its tanh: 0.5 x (1 + tanh(c0 (x + c1 x^3))).

    Two allocations: the tanh is built in place in one array and the
    output in a second.  ``gelu`` and ``ffn`` both call it, so the fused
    op's forward is bit-identical to fc1 -> ``gelu`` -> fc2.
    """
    th = _GELU_C1 * x
    th *= x
    th *= x
    th += x
    th *= _GELU_C0
    np.tanh(th, out=th)
    y = th + 1.0
    y *= x
    y *= 0.5
    return y, th


def _gelu_grad(x: np.ndarray, th: np.ndarray, out: np.ndarray) -> np.ndarray:
    """dGELU/dx written into ``out``; ``th`` is ``_gelu(x)``'s tanh and is overwritten.

    d = 0.5 (1 + t) + 0.5 x (1 - t^2) c0 (1 + 3 c1 x^2), with
    1 - t^2 taken as (1 - t)(1 + t).
    """
    np.multiply(x, x, out=out)
    out *= 3.0 * _GELU_C1
    out += 1.0
    out *= _GELU_C0
    out *= x
    out *= 0.5
    np.subtract(1.0, th, out=th)
    out *= th
    np.subtract(2.0, th, out=th)
    out *= th
    th *= 0.5
    out += th
    return out


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh form; the closure keeps only the input and recomputes the tanh."""
    x = a.data

    def backward(g):
        if a.requires_grad:
            y, th = _gelu(x)
            d = _gelu_grad(x, th, out=y)
            d *= g
            a._accumulate(d, fresh=True)

    return _make(_gelu(x)[0], (a,), backward)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize over the last axis, then apply learnable scale and shift.

    The closure keeps the input and the (…, 1) mean and inverse standard
    deviation; backward recomputes the normalized input from them with
    the forward's own operations, so its bits are the forward's.
    """
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def backward(g):
        xhat = (x - mu) * inv
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).reshape(-1, x.shape[-1]).sum(axis=0), fresh=True)
        if beta.requires_grad:
            beta._accumulate(g.reshape(-1, x.shape[-1]).sum(axis=0), fresh=True)
        if a.requires_grad:
            gx = g * gamma.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            a._accumulate(inv * (gx - m1 - xhat * m2), fresh=True)

    return _make(gamma.data * xhat + beta.data, (a, gamma, beta), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b); w is (in, out), x is (..., in).

    The leading axes of ``x`` are flattened into one row axis, so the
    forward product and both backward products are each a single 2-D
    GEMM; the weight gradient is ``x2.T @ g2`` over all rows at once.
    """
    if w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear: x {x.data.shape} incompatible with w {w.data.shape}")
    n_in, n_out = w.data.shape
    if b is not None and b.data.shape != (n_out,):
        raise ShapeError(f"linear: bias {b.data.shape} does not match w {w.data.shape}")
    x2 = x.data.reshape(-1, n_in)
    y = x2 @ w.data
    if b is not None:
        y += b.data

    def backward(g):
        g2 = g.reshape(-1, n_out)
        if x.requires_grad:
            x._accumulate((g2 @ w.data.T).reshape(x.data.shape), fresh=True)
        if w.requires_grad:
            w._accumulate(x2.T @ g2, fresh=True)
        if b is not None and b.requires_grad:
            b._accumulate(g2.sum(axis=0), fresh=True)

    parents = (x, w) if b is None else (x, w, b)
    return _make(y.reshape(*x.data.shape[:-1], n_out), parents, backward)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """gelu(x @ w1 + b1) @ w2 + b2 as one node: a transformer block's FFN.

    ``w1`` is (in, hidden) and ``w2`` (hidden, out); like ``linear``, the
    leading axes of ``x`` are flattened so every product is one 2-D GEMM.
    The closure keeps ``x`` and the pre-activation ``h`` only; backward
    recomputes the tanh and ``gelu(h)`` from ``h`` for the fc2 weight
    gradient and the GELU derivative (Chen et al. 2016, arXiv:1604.06174).
    """
    shapes = f"x {x.data.shape}, w1 {w1.data.shape}, b1 {b1.data.shape}, w2 {w2.data.shape}, b2 {b2.data.shape}"
    if w1.data.ndim != 2 or w2.data.ndim != 2:
        raise ShapeError(f"ffn: weights must be 2-D: {shapes}")
    (n_in, n_hid), n_out = w1.data.shape, w2.data.shape[1]
    if x.data.shape[-1:] != (n_in,) or w2.data.shape[0] != n_hid or b1.data.shape != (n_hid,) or b2.data.shape != (n_out,):
        raise ShapeError(f"ffn: shapes do not chain: {shapes}")
    x2 = x.data.reshape(-1, n_in)
    h = x2 @ w1.data
    h += b1.data
    y = _gelu(h)[0] @ w2.data
    y += b2.data

    def backward(g):
        g2 = g.reshape(-1, n_out)
        a, th = _gelu(h)
        if w2.requires_grad:
            w2._accumulate(a.T @ g2, fresh=True)
        if b2.requires_grad:
            b2._accumulate(g2.sum(axis=0), fresh=True)
        d = _gelu_grad(h, th, out=a)
        gh = np.matmul(g2, w2.data.T, out=th)
        gh *= d
        del a, d
        if x.requires_grad:
            x._accumulate((gh @ w1.data.T).reshape(x.data.shape), fresh=True)
        if w1.requires_grad:
            w1._accumulate(x2.T @ gh, fresh=True)
        if b1.requires_grad:
            b1._accumulate(gh.sum(axis=0), fresh=True)

    return _make(y.reshape(*x.data.shape[:-1], n_out), (x, w1, b1, w2, b2), backward)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def backward(g):
        if a.requires_grad:
            if axis is None:
                a._accumulate(np.broadcast_to(g, a.data.shape))
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                a._accumulate(np.broadcast_to(gg, a.data.shape))

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else np.prod([a.data.shape[i] for i in np.atleast_1d(axis)])
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


def mse(pred: Tensor, target) -> Tensor:
    """Mean over all entries of the squared difference."""
    target = as_tensor(target, like=pred)
    if pred.data.shape != target.data.shape:
        raise ShapeError(f"mse: {pred.data.shape} vs {target.data.shape}")
    return mean_(square(sub(pred, target)))


def masked_mse_head(x: Tensor, w: Tensor, b: Tensor, idx, targets) -> Tensor:
    """Mean over (B, M) of ``||x[i, idx[i, j]] @ w + b - targets[i, j]||²`` as one node.

    ``x`` is (B, T, D), ``w`` (D, P), ``b`` (P,), ``idx`` (B, M) ints whose
    rows hold distinct positions (a repeat raises ``ShapeError``) and
    ``targets`` (B, M, P).  This is the MAE reconstruction head and its
    masked-patch loss: the head runs on the M gathered rows only, and the
    closure keeps those rows (B·M, D) and the residual (B·M, P), never a
    (B, T, P) output.  Backward scatters the rows' gradient into zeros by
    assignment, as ``gather_tokens`` does.
    """
    idx, targets = np.asarray(idx), np.asarray(targets)
    shapes = f"x {x.data.shape}, w {w.data.shape}, b {b.data.shape}, idx {idx.shape}, targets {targets.shape}"
    if x.data.ndim != 3 or w.data.ndim != 2 or idx.ndim != 2 or not idx.shape[1]:
        raise ShapeError(f"masked_mse_head: {shapes}")
    (n_b, n_t, n_in), n_m, n_out = x.data.shape, idx.shape[1], w.data.shape[1]
    if w.data.shape[0] != n_in or b.data.shape != (n_out,) or idx.shape[0] != n_b or targets.shape != (n_b, n_m, n_out):
        raise ShapeError(f"masked_mse_head: shapes do not chain: {shapes}")
    _check_distinct(idx, n_t, "masked_mse_head")
    batch = np.arange(n_b)[:, None]
    rows = x.data[batch, idx].reshape(-1, n_in)
    r = rows @ w.data
    r += b.data
    r -= targets.reshape(-1, n_out)
    inv_n = np.asarray(1.0 / (n_b * n_m), dtype=r.dtype)
    loss = np.square(r).sum(axis=-1).sum() * inv_n

    def backward(g):
        gr = 2.0 * r
        gr *= g * inv_n
        if w.requires_grad:
            w._accumulate(rows.T @ gr, fresh=True)
        if b.requires_grad:
            b._accumulate(gr.sum(axis=0), fresh=True)
        if x.requires_grad:
            buf = np.zeros_like(x.data)
            buf[batch, idx] = (gr @ w.data.T).reshape(n_b, n_m, n_in)
            x._accumulate(buf, fresh=True)

    return _make(loss, (x, w, b), backward)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of integer ``labels`` under row-wise softmax."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2 or labels.shape != (logits.data.shape[0],):
        raise ShapeError(f"cross entropy: logits {logits.data.shape}, labels {labels.shape}")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    n = logits.data.shape[0]
    rows = np.arange(n)
    nll = -(z[rows, labels] - np.log(e.sum(axis=1))).mean()

    def backward(g):
        if logits.requires_grad:
            gl = p.copy()
            gl[rows, labels] -= 1.0
            logits._accumulate(gl * (g / n), fresh=True)

    return _make(np.asarray(nll, dtype=logits.data.dtype), (logits,), backward)


# ---------------------------------------------------------------------
# verification oracle


def grad_check(f, inputs, h: float = 1e-5) -> float:
    """Compare reverse-mode gradients of ``f`` against central differences.

    ``f`` maps the given tensors to a scalar Tensor.  The reverse-mode
    gradient is taken at the tensors' own precision; the finite-difference
    reference always re-evaluates ``f`` on float64 copies, perturbing one
    element at a time by ±h (scaled by the element magnitude).

    Returns the max over input tensors of
    ``||g_ad - g_fd|| / max(||g_ad||, ||g_fd||, 1e-8)``.
    """
    inputs = list(inputs)
    for t in inputs:
        t.zero_grad()
        t.requires_grad = True
    out = f(*inputs)
    if out.data.size != 1:
        raise ShapeError(f"grad_check needs a scalar output, got shape {out.data.shape}")
    if not np.isfinite(out.data).all():
        raise FloatingPointError("non-finite forward value in grad_check")
    out.backward()
    grads_ad = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]

    shadows = [Tensor(t.data.astype(np.float64)) for t in inputs]
    worst = 0.0
    for t, shadow, g_ad in zip(inputs, shadows, grads_ad):
        g_fd = np.zeros_like(shadow.data)
        flat = shadow.data.reshape(-1)
        fd = g_fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            step = h * max(1.0, abs(orig))
            flat[i] = orig + step
            hi = float(f(*shadows).data)
            flat[i] = orig - step
            lo = float(f(*shadows).data)
            flat[i] = orig
            fd[i] = (hi - lo) / (2.0 * step)
        na, nf = np.linalg.norm(g_ad), np.linalg.norm(g_fd)
        err = np.linalg.norm(g_ad.astype(np.float64) - g_fd) / max(na, nf, 1e-8)
        worst = max(worst, float(err))
    return worst
