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
cross-entropy losses needs.  Every projection has a bias, so ``linear``
always takes one, and every LayerNorm uses ``LAYER_NORM_EPS``.  The ops
a block and the MAE loss are made of keep only what backward cannot
cheaply recompute (Chen et al. 2016, arXiv:1604.06174; Korthikanti et
al. 2022, arXiv:2205.05198):

- ``attention_sublayer`` is a block's first half, x + proj(attention(
  qkv(LayerNorm(x)))), as one node.  Its closure keeps the LayerNorm's
  (B, T, 1) mean and inverse standard deviation, the row log-sum-exp and
  the attention output, but no qkv: backward rebuilds the packed qkv from
  the recomputed LayerNorm output with the forward's GEMM, so with the
  same bits, for one more (rows × D) @ (D × 3D) GEMM.
- ``ffn_sublayer`` is the second half, x + FFN(LayerNorm(x)); its closure
  keeps only the LayerNorm statistics.  Backward recomputes the fc1
  pre-activation ``h`` with the forward's GEMM, one extra GEMM for the
  largest activation a block would otherwise hold.
- Neither keeps a LayerNorm output or its output before the residual
  add: backward recomputes the LayerNorm output from the statistics and
  never reads the pre-residual value.  It adds the residual gradient into
  the LayerNorm's input gradient in place, so no ``add`` node and no
  gradient copy exist.
- Attention is no op of its own: ``_split_heads``, ``_attend`` and
  ``_attend_grad`` work on views of q, k and v and the row log-sum-exp,
  never the (B, H, T, T) weights.  The tests' attention oracle is built
  on the same helpers.
- Nor is the FFN: ``_ffn_forward`` and ``_ffn_hidden_grad`` keep nothing;
  the tanh and the GELU output live only inside them.
- ``layer_norm`` keeps its input and the (…, 1) mean and inverse
  standard deviation; backward recomputes the normalized input.  The
  encoder's final norm is one.
- ``masked_mse_head`` is the MAE reconstruction head and loss in one
  node: it applies the head to the gathered masked rows only and keeps
  those rows and their residual, never a full (B, T, patch) output.  It
  subtracts the targets and squares the residual a row block at a time,
  and it takes its targets only as a function that reads one block of
  rows, so the MAE's targets are gathered from the clip array block by
  block and never exist whole.
- ``decoder_tokens`` is the MAE decoder's input as one node: the
  projected latent's CLS row, then each patch position's visible token or
  mask token plus its position.  It fills its output by assignment, and
  its closure keeps only the index arrays, no full-size array.

The sublayer ops share every piece of arithmetic with ``layer_norm``,
``linear`` and ``gelu`` through the private helpers below, so each is
bit-identical to the composite of those ops and the attention helpers.

The step's large elementwise passes run in blocks of about
``BLOCK_ELEMS`` entries, so their temporaries stay in cache: the GELU
and its derivative over row blocks (``_row_blocks``), attention's
weights and score gradient over (batch, head) slabs (``_slabs``), the
loss's residual and its square over row blocks, and ``training.adamw_step``
over flat blocks of each parameter.  None of this changes a bit: the
elementwise work is per entry, every reduction runs along whole rows,
and a stacked ``matmul`` runs the same GEMM per matrix whichever slab
holds it.  Only GEMMs over all rows, whose sums a row split would
reorder, run whole.

The library itself no longer calls ``matmul``, ``softmax``, ``gelu``,
``transpose``, ``swap_last``, ``reshape``, ``sub``, ``mul``, ``square``,
``sum_``, ``mean_``, ``mse`` or ``gather_tokens``.  They stay for the
tests and their composite oracles and for ``perfbench/``, whose tracer
looks every op it times up by name.
"""

from __future__ import annotations

import math

import numpy as np

_GELU_C0 = 0.7978845608028654  # sqrt(2/pi)
_GELU_C1 = 0.044715
LAYER_NORM_EPS = 1e-6
GRAD_CHECK_STEP = 1e-5  # grad_check's relative central-difference step
# Entries in one block of every blocked pass: a GELU row block, the
# attention weights of one (batch, head) slab, the loss's squared rows, an
# AdamW block.  A GELU block's input, tanh and output (3 x 512 KiB of
# float32) stay in a 2 MiB L2, where the step's 10-23 MB arrays would
# stream through memory on every pass; 1 << 18 made the GELU about 20 %
# slower, and 1 << 15 or 1 << 16 no faster.
BLOCK_ELEMS = 1 << 17


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


def decoder_tokens(d: Tensor, mask_token: Tensor, pos: Tensor, vis_idx, masked_idx) -> Tensor:
    """The MAE decoder's input as one node: CLS row, then each patch position's token plus ``pos``.

    ``d`` is the projected latent (B, 1+V, D), CLS row first, ``mask_token``
    (1, 1, D), ``pos`` (N, D), ``vis_idx`` (B, V) and ``masked_idx`` (B, M)
    ints with V + M = N.  Output row ``1 + vis_idx[i, j]`` of sample ``i``
    is ``d[i, 1 + j] + pos[vis_idx[i, j]]``, row ``1 + masked_idx[i, j]``
    is ``mask_token + pos[masked_idx[i, j]]`` and row 0 is ``d[i, 0]``.
    The output is filled by assignment, so every row of ``concat(vis_idx,
    masked_idx)`` must be a permutation of ``range(N)``, or ``ShapeError``
    is raised.  The closure keeps only the index arrays.  Forward and
    gradients are bit-identical to slicing ``d``, ``concat`` with a
    zeros + ``mask_token`` ``add``, ``gather_tokens`` by the inverse
    permutation, a ``pos`` ``add`` and a CLS ``concat``.
    """
    vis_idx, masked_idx = np.asarray(vis_idx), np.asarray(masked_idx)
    shapes = f"d {d.data.shape}, mask_token {mask_token.data.shape}, pos {pos.data.shape}, "
    shapes += f"vis_idx {vis_idx.shape}, masked_idx {masked_idx.shape}"
    if d.data.ndim != 3 or vis_idx.ndim != 2 or masked_idx.ndim != 2:
        raise ShapeError(f"decoder_tokens: {shapes}")
    n_b, n_v1, dim = d.data.shape
    order = np.concatenate([vis_idx, masked_idx], axis=1)
    n = order.shape[1]
    chained = vis_idx.shape == (n_b, n_v1 - 1) and masked_idx.shape[0] == n_b
    if not chained or mask_token.data.shape != (1, 1, dim) or pos.data.shape != (n, dim):
        raise ShapeError(f"decoder_tokens: shapes do not chain: {shapes}")
    if not (np.sort(order, axis=1) == np.arange(n)).all():
        raise ShapeError("decoder_tokens: a row of vis_idx and masked_idx is not a permutation of range(N)")
    batch = np.arange(n_b)[:, None]
    out = np.empty((n_b, 1 + n, dim), dtype=np.result_type(d.data, mask_token.data, pos.data))
    out[:, 0] = d.data[:, 0]
    body = out[:, 1:]
    body[batch, vis_idx] = d.data[:, 1:]
    body[batch, masked_idx] = mask_token.data + 0.0  # the composite's zeros + token: -0.0 reads +0.0
    body += pos.data

    def backward(g):
        gb = g[:, 1:]
        if d.requires_grad:
            # added into zeros, as the composite's two slices scatter into zeros
            gd = np.zeros_like(d.data)
            gd[:, :1] += g[:, :1]
            gd[:, 1:] += gb[batch, vis_idx]
            d._accumulate(gd, fresh=True)
        if mask_token.requires_grad:
            mask_token._accumulate(_unbroadcast(gb[batch, masked_idx], mask_token.data.shape), fresh=True)
        if pos.requires_grad:
            pos._accumulate(_unbroadcast(gb, pos.data.shape), fresh=True)

    return _make(out, (d, mask_token, pos), backward)


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


def _split_heads(qkv: np.ndarray, n_heads: int) -> tuple:
    """(B, T, 3 * H * hd) packed qkv -> q, k and v, each a (B, H, T, hd) view."""
    b, t, d3 = qkv.shape
    return qkv.reshape(b, t, 3, n_heads, d3 // (3 * n_heads)).transpose(2, 0, 3, 1, 4)


def _row_blocks(n_rows: int, width: int) -> list:
    """Slices that split ``n_rows`` rows of ``width`` entries into blocks of at most ``BLOCK_ELEMS`` entries (one row at least)."""
    step = max(1, BLOCK_ELEMS // max(1, width))
    return [slice(i, i + step) for i in range(0, n_rows, step)]


def _slabs(b: int, n_heads: int, t: int) -> list:
    """(batch, head) index pairs that cover a (B, H, T, T) array in slabs of at most ``BLOCK_ELEMS`` entries.

    A slab is whole samples while one sample's heads fit, else heads of
    one sample; a single (T, T) matrix larger than the budget is a slab of
    its own.
    """
    per = max(1, BLOCK_ELEMS // (t * t))
    if per >= n_heads:
        step = per // n_heads
        return [(slice(i, i + step), slice(None)) for i in range(0, b, step)]
    return [(slice(i, i + 1), slice(j, j + per)) for i in range(b) for j in range(0, n_heads, per)]


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> tuple:
    """softmax(q kᵀ / sqrt(hd)) v per head: the (B, T, H * hd) output and the (B, H, T, 1) row log-sum-exp.

    The weights are built one ``_slabs`` slab at a time, so no (B, H, T, T)
    array exists.  A stacked ``matmul`` runs one GEMM per (T, T) matrix
    and the softmax works row by row, so the bits are those of the whole
    array at once.
    """
    b, n_heads, t, hd = q.shape
    scale = 1.0 / math.sqrt(hd)
    out = np.empty((b, t, n_heads * hd), dtype=q.dtype)
    lse = np.empty((b, n_heads, t, 1), dtype=q.dtype)
    out_h = _heads(out, n_heads)
    for sl in _slabs(b, n_heads, t):
        s = np.matmul(q[sl] * scale, k[sl].swapaxes(-1, -2))
        m = s.max(axis=-1, keepdims=True)
        s -= m
        np.exp(s, out=s)
        rowsum = s.sum(axis=-1, keepdims=True)
        s /= rowsum
        np.add(m, np.log(rowsum), out=lse[sl])
        np.matmul(s, v[sl], out=out_h[sl])
    return out, lse


def _attend_grad(g: np.ndarray, q, k, v, out: np.ndarray, lse: np.ndarray) -> np.ndarray:
    """Gradient of the packed qkv (B, T, 3D), fresh, from the output gradient ``g`` (B, T, D).

    Recomputes the scaled q and the weights from q, k and the log-sum-exp
    (FlashAttention, Dao et al. 2022) and reads ``rowsum(dO ∘ O)`` from
    the forward output ``out``.  It runs over the forward's ``_slabs``, so
    the weights and the score gradient exist one slab at a time, with the
    bits of the whole array at once.
    """
    b, n_heads, t, hd = q.shape
    scale = 1.0 / math.sqrt(hd)
    g_h, out_h = _heads(g, n_heads), _heads(out, n_heads)
    buf = np.empty((b, t, 3, n_heads, hd), dtype=q.dtype)
    gq, gk, gv = buf.transpose(2, 0, 3, 1, 4)
    for sl in _slabs(b, n_heads, t):
        qs = q[sl] * scale
        p = np.matmul(qs, k[sl].swapaxes(-1, -2))
        p -= lse[sl]
        np.exp(p, out=p)
        gs = g_h[sl]
        delta = (gs * out_h[sl]).sum(axis=-1, keepdims=True)
        np.matmul(p.swapaxes(-1, -2), gs, out=gv[sl])
        ds = np.matmul(gs, v[sl].swapaxes(-1, -2))
        ds -= delta
        ds *= p
        del p
        np.matmul(ds, k[sl], out=gq[sl])
        gq[sl] *= scale
        np.matmul(ds.swapaxes(-1, -2), qs, out=gk[sl])
    return buf.reshape(b, t, 3 * n_heads * hd)


def _gelu(x: np.ndarray) -> tuple:
    """GELU, tanh form, and its tanh: 0.5 x (1 + tanh(c0 (x + c1 x^3))).

    Two allocations: the tanh is built in place in one array and the
    output in a second.  ``gelu`` and ``_ffn_forward`` both call it, so
    ``ffn_sublayer``'s forward is bit-identical to fc1 -> ``gelu`` -> fc2.
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


def _ln_stats(x: np.ndarray) -> tuple:
    """The (…, 1) mean and inverse standard deviation of ``x`` over its last axis, eps ``LAYER_NORM_EPS``."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    np.multiply(xc, xc, out=xc)
    return mu, 1.0 / np.sqrt(xc.mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)


def _ln_normalize(x: np.ndarray, mu: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The normalized input (x - mu) * inv, in a fresh array; forward and backward both call it."""
    xhat = x - mu
    xhat *= inv
    return xhat


def _ln_scale(xhat: np.ndarray, gamma: Tensor, beta: Tensor) -> np.ndarray:
    """gamma * xhat + beta."""
    y = gamma.data * xhat
    y += beta.data
    return y


def _ln_grads(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gamma: Tensor, beta: Tensor, need_x: bool):
    """Accumulate gamma's and beta's gradients; return the input gradient (fresh) if ``need_x``."""
    dim = xhat.shape[-1]
    if gamma.requires_grad:
        gamma._accumulate((g * xhat).reshape(-1, dim).sum(axis=0), fresh=True)
    if beta.requires_grad:
        beta._accumulate(g.reshape(-1, dim).sum(axis=0), fresh=True)
    if not need_x:
        return None
    gx = g * gamma.data
    m1 = gx.mean(axis=-1, keepdims=True)
    m2 = (gx * xhat).mean(axis=-1, keepdims=True)
    gx -= m1
    gx -= xhat * m2
    gx *= inv
    return gx


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis, then apply learnable scale and shift.

    The closure keeps the input and the (…, 1) mean and inverse standard
    deviation; backward recomputes the normalized input from them with
    the forward's own operations, so its bits are the forward's.
    """
    x = a.data
    mu, inv = _ln_stats(x)

    def backward(g):
        gx = _ln_grads(g, _ln_normalize(x, mu, inv), inv, gamma, beta, a.requires_grad)
        if gx is not None:
            a._accumulate(gx, fresh=True)

    return _make(_ln_scale(_ln_normalize(x, mu, inv), gamma, beta), (a, gamma, beta), backward)


def _affine(x2: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    """x2 @ w + b over 2-D rows: the forward GEMM of every projection."""
    y = x2 @ w.data
    y += b.data
    return y


def _affine_grads(g2: np.ndarray, x2: np.ndarray, w: Tensor, b: Tensor, need_x: bool):
    """Accumulate ``w``'s and ``b``'s gradients from the row gradient ``g2``; return x2's (fresh) if ``need_x``."""
    if w.requires_grad:
        w._accumulate(x2.T @ g2, fresh=True)
    if b.requires_grad:
        b._accumulate(g2.sum(axis=0), fresh=True)
    return g2 @ w.data.T if need_x else None


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b; w is (in, out), x is (..., in), b is (out,).

    The leading axes of ``x`` are flattened into one row axis, so the
    forward product and both backward products are each a single 2-D
    GEMM; the weight gradient is ``x2.T @ g2`` over all rows at once.
    """
    if w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear: x {x.data.shape} incompatible with w {w.data.shape}")
    n_in, n_out = w.data.shape
    if b.data.shape != (n_out,):
        raise ShapeError(f"linear: bias {b.data.shape} does not match w {w.data.shape}")
    x2 = x.data.reshape(-1, n_in)

    def backward(g):
        gx = _affine_grads(g.reshape(-1, n_out), x2, w, b, x.requires_grad)
        if gx is not None:
            x._accumulate(gx.reshape(x.data.shape), fresh=True)

    return _make(_affine(x2, w, b).reshape(*x.data.shape[:-1], n_out), (x, w, b), backward)


def _ffn_forward(x2: np.ndarray, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> np.ndarray:
    """gelu(x2 @ w1 + b1) @ w2 + b2 over 2-D rows.

    The GELU overwrites fc1's output one ``_row_blocks`` block at a time,
    so its tanh exists only per block; GELU is elementwise, so the bits
    are those of the whole array at once.
    """
    a = _affine(x2, w1, b1)
    for rows in _row_blocks(*a.shape):
        a[rows] = _gelu(a[rows])[0]
    return _affine(a, w2, b2)


def _ffn_hidden_grad(g2: np.ndarray, h: np.ndarray, w2: Tensor, b2: Tensor) -> np.ndarray:
    """Accumulate fc2's gradients; return the gradient at the pre-activation ``h`` (fresh).

    ``h`` is overwritten.  One pass over its row blocks builds each
    block's tanh once and from it writes ``gelu(h)`` into a new array, for
    fc2's weight gradient, and the GELU derivative over ``h``.  The
    result reuses the ``gelu(h)`` array, so two (rows, hidden) arrays
    exist, not three.  Elementwise work in blocks gives the bits of the
    whole array at once.
    """
    a = np.empty_like(h)
    for rows in _row_blocks(*h.shape):
        y, th = _gelu(h[rows])
        a[rows] = y
        h[rows] = _gelu_grad(h[rows], th, out=y)
    if w2.requires_grad:
        w2._accumulate(a.T @ g2, fresh=True)
    if b2.requires_grad:
        b2._accumulate(g2.sum(axis=0), fresh=True)
    gh = np.matmul(g2, w2.data.T, out=a)
    gh *= h
    return gh


def _check_sublayer(op: str, x: Tensor, params: tuple, want: list):
    """Raise ``ShapeError`` unless each of ``params`` has the shape in ``want``."""
    got = [p.data.shape for p in params]
    if got != want:
        raise ShapeError(f"{op}: x {x.data.shape} needs parameter shapes {want}, got {got}")


def _residual_grads(g: np.ndarray, gy: np.ndarray, x: Tensor, xhat: np.ndarray, inv: np.ndarray, gamma: Tensor, beta: Tensor):
    """Backward of ``x + f(layer_norm(x))`` through the LayerNorm, given ``gy`` at its output.

    The residual gradient ``g`` is added into the LayerNorm's input
    gradient in place, the same bits as the composite's ``g + ln_grad``.
    """
    gx = _ln_grads(gy, xhat, inv, gamma, beta, x.requires_grad)
    if gx is not None:
        gx += g
        x._accumulate(gx, fresh=True)


def attention_sublayer(x: Tensor, ln_g: Tensor, ln_b: Tensor, w_qkv: Tensor, b_qkv: Tensor, w_proj: Tensor,
                       b_proj: Tensor, n_heads: int) -> Tensor:
    """x + proj(attention(qkv(layer_norm(x)))): a pre-norm block's attention half as one node.

    ``x`` is (B, T, D), ``w_qkv`` (D, 3D) and ``w_proj`` (D, D).  The
    closure keeps the LayerNorm's (B, T, 1) mean and inverse standard
    deviation, the row log-sum-exp and the attention output; never the
    LayerNorm output, the packed qkv, the (B, H, T, T) weights or the
    projection's output before the residual add.  Backward recomputes the
    LayerNorm output, which the qkv weight gradient needs anyway, and from
    it qkv: the forward's GEMM on the same inputs, so the same bits, for
    one more (rows × D) @ (D × 3D) GEMM.  Forward and gradients are
    bit-identical to ``layer_norm`` -> ``linear`` -> attention
    (``_attend``, ``_attend_grad``) -> ``linear`` -> ``add``.
    """
    if x.data.ndim != 3 or x.data.shape[-1] % n_heads:
        raise ShapeError(f"attention_sublayer: x {x.data.shape} is not (B, T, {n_heads} heads * hd)")
    n_b, n_t, dim = x.data.shape
    _check_sublayer("attention_sublayer", x, (ln_g, ln_b, w_qkv, b_qkv, w_proj, b_proj),
                    [(dim,), (dim,), (dim, 3 * dim), (3 * dim,), (dim, dim), (dim,)])
    xd = x.data
    mu, inv = _ln_stats(xd)

    def qkv_of(h2):
        return _affine(h2, w_qkv, b_qkv).reshape(n_b, n_t, 3 * dim)

    qkv = qkv_of(_ln_scale(_ln_normalize(xd, mu, inv), ln_g, ln_b).reshape(-1, dim))
    att, lse = _attend(*_split_heads(qkv, n_heads))
    del qkv
    y = _affine(att.reshape(-1, dim), w_proj, b_proj)
    y += xd.reshape(-1, dim)

    def backward(g):
        xhat = _ln_normalize(xd, mu, inv)
        h2 = _ln_scale(xhat, ln_g, ln_b).reshape(-1, dim)
        ga = _affine_grads(g.reshape(-1, dim), att.reshape(-1, dim), w_proj, b_proj, True)
        gqkv = _attend_grad(ga.reshape(xd.shape), *_split_heads(qkv_of(h2), n_heads), att, lse).reshape(-1, 3 * dim)
        del ga
        gy = _affine_grads(gqkv, h2, w_qkv, b_qkv, True)
        del gqkv, h2
        _residual_grads(g, gy.reshape(xd.shape), x, xhat, inv, ln_g, ln_b)

    return _make(y.reshape(xd.shape), (x, ln_g, ln_b, w_qkv, b_qkv, w_proj, b_proj), backward)


def ffn_sublayer(x: Tensor, ln_g: Tensor, ln_b: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """x + fc2(gelu(fc1(layer_norm(x)))): a pre-norm block's FFN half as one node.

    ``x`` is (…, D), ``w1`` (D, hidden) and ``w2`` (hidden, D).  The
    closure keeps only the LayerNorm's (…, 1) mean and inverse standard
    deviation: never the LayerNorm output, the (…, hidden) fc1
    pre-activation ``h`` or the FFN output before the residual add.
    Backward recomputes the LayerNorm output, which fc1's weight gradient
    needs anyway, and from it ``h``: the forward's GEMM on the same
    inputs, so the same bits, for one more (rows × D) @ (D × hidden) GEMM.
    Forward and gradients are bit-identical to ``layer_norm`` -> ``linear``
    -> ``gelu`` -> ``linear`` -> ``add``.
    """
    dim, n_hid = x.data.shape[-1], w1.data.shape[-1]
    _check_sublayer("ffn_sublayer", x, (ln_g, ln_b, w1, b1, w2, b2),
                    [(dim,), (dim,), (dim, n_hid), (n_hid,), (n_hid, dim), (dim,)])
    xd = x.data
    mu, inv = _ln_stats(xd)
    y = _ffn_forward(_ln_scale(_ln_normalize(xd, mu, inv), ln_g, ln_b).reshape(-1, dim), w1, b1, w2, b2)
    y += xd.reshape(-1, dim)

    def backward(g):
        xhat = _ln_normalize(xd, mu, inv)
        x2 = _ln_scale(xhat, ln_g, ln_b).reshape(-1, dim)
        gh = _ffn_hidden_grad(g.reshape(-1, dim), _affine(x2, w1, b1), w2, b2)
        gy = _affine_grads(gh, x2, w1, b1, True)
        del gh, x2
        _residual_grads(g, gy.reshape(xd.shape), x, xhat, inv, ln_g, ln_b)

    return _make(y.reshape(xd.shape), (x, ln_g, ln_b, w1, b1, w2, b2), backward)


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


def masked_mse_head(x: Tensor, w: Tensor, b: Tensor, idx, read) -> Tensor:
    """Mean over (B, M) of ``||x[i, idx[i, j]] @ w + b - targets[i, j]||²`` as one node.

    ``x`` is (B, T, D), ``w`` (D, P), ``b`` (P,), ``idx`` (B, M) ints whose
    rows hold distinct positions (a repeat raises ``ShapeError``).  The
    (B, M, P) ``targets`` are given as a function ``read(sl)`` that
    returns rows ``sl`` (a slice) of their (B·M, P) reshape, so targets
    gathered from elsewhere never exist whole.  This is the MAE
    reconstruction head and its masked-patch loss: the head runs on the M
    gathered rows only, as one GEMM, and the closure keeps those rows
    (B·M, D) and the residual (B·M, P), never a (B, T, P) output.  The
    targets are subtracted and the squared residual summed one
    ``_row_blocks`` block at a time, so no full-size square is built; a
    block of the wrong shape raises ``ShapeError``.  Backward turns the
    kept residual into its gradient in place (the graph is consumed once)
    and scatters the rows' gradient into zeros by assignment, as
    ``gather_tokens`` does.
    """
    idx = np.asarray(idx)
    shapes = f"x {x.data.shape}, w {w.data.shape}, b {b.data.shape}, idx {idx.shape}"
    if x.data.ndim != 3 or w.data.ndim != 2 or idx.ndim != 2 or not idx.shape[1]:
        raise ShapeError(f"masked_mse_head: {shapes}")
    (n_b, n_t, n_in), n_m, n_out = x.data.shape, idx.shape[1], w.data.shape[1]
    if w.data.shape[0] != n_in or b.data.shape != (n_out,) or idx.shape[0] != n_b:
        raise ShapeError(f"masked_mse_head: shapes do not chain: {shapes}")
    _check_distinct(idx, n_t, "masked_mse_head")
    batch = np.arange(n_b)[:, None]
    rows = x.data[batch, idx].reshape(-1, n_in)
    r = _affine(rows, w, b)
    sums = np.empty(r.shape[0], dtype=r.dtype)
    for sl in _row_blocks(*r.shape):
        block = read(sl)
        if block.shape != r[sl].shape:
            raise ShapeError(f"masked_mse_head: target rows {sl.start}:{sl.start + len(r[sl])} are {block.shape}")
        r[sl] -= block
        np.square(r[sl]).sum(axis=-1, out=sums[sl])
    inv_n = np.asarray(1.0 / (n_b * n_m), dtype=r.dtype)
    loss = sums.sum() * inv_n

    def backward(g):
        np.multiply(r, 2.0, out=r)
        np.multiply(r, g * inv_n, out=r)
        gx = _affine_grads(r, rows, w, b, x.requires_grad)
        if gx is not None:
            buf = np.zeros_like(x.data)
            buf[batch, idx] = gx.reshape(n_b, n_m, n_in)
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


def grad_check(f, inputs) -> float:
    """Compare reverse-mode gradients of ``f`` against central differences.

    ``f`` maps the given tensors to a scalar Tensor.  The reverse-mode
    gradient is taken at the tensors' own precision; the finite-difference
    reference always re-evaluates ``f`` on float64 copies, perturbing one
    element at a time by ±``GRAD_CHECK_STEP`` (scaled by the element
    magnitude).

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
            step = GRAD_CHECK_STEP * max(1.0, abs(orig))
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
