"""Autodiff engine: per-primitive gradient checks against finite differences."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csimae import tensors as T


def t64(arr, grad=True):
    return T.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def rand(rng, *shape, dtype=np.float64):
    return T.Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)


def test_quadratic_grad_matches_hand_value():
    x = t64([1.0, -2.0, 3.0])
    loss = T.sum_(T.square(x))
    loss.backward()
    np.testing.assert_allclose(x.grad, [2.0, -4.0, 6.0], rtol=0, atol=0)
    err = T.grad_check(lambda v: T.sum_(T.square(v)), [t64([1.0, -2.0, 3.0])])
    assert err < 1e-8


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.standard_normal((5, 7)).astype(np.float32))
    y = T.softmax(x, axis=-1)
    np.testing.assert_allclose(y.data.sum(axis=-1), np.ones(5), atol=1e-6)


def test_layer_norm_zero_mean_unit_var():
    rng = np.random.default_rng(1)
    x = T.Tensor(rng.standard_normal((4, 16)).astype(np.float32))
    g = T.Tensor(np.ones(16, dtype=np.float32))
    b = T.Tensor(np.zeros(16, dtype=np.float32))
    y = T.layer_norm(x, g, b).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-5)
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-3)


def test_gelu_zero_and_shape_on_grid():
    # gelu(0) = 0; monotone for x >= 0; one interior minimum near -0.75
    x = T.Tensor(np.linspace(-5.0, 5.0, 201))
    y = T.gelu(x).data
    assert y[100] == 0.0
    assert np.all(np.diff(y[100:]) > 0)
    mins = np.flatnonzero(np.diff(np.sign(np.diff(y))) > 0)
    assert len(mins) == 1 and -1.0 < x.data[mins[0] + 1] < -0.5


def test_gradient_accumulation_over_fanout():
    x = t64([1.5, -0.5])
    loss = T.add(T.sum_(T.square(x)), T.sum_(T.square(x)))
    loss.backward()
    np.testing.assert_allclose(x.grad, [6.0, -2.0])


def test_backward_visits_each_node_once():
    # shared subexpression: y = x*x reused twice; tape must hold it once
    x = t64([2.0])
    y = T.mul(x, x)
    z = T.add(y, y)
    nodes = T.tape(z).nodes
    assert len(nodes) == len({id(n) for n in nodes})
    z.backward()
    np.testing.assert_allclose(x.grad, [8.0])


def test_shape_mismatch_raises_named_error():
    a = t64(np.ones((2, 3)))
    b = t64(np.ones((2, 3)))
    with pytest.raises(T.ShapeError, match="matmul"):
        T.matmul(a, b)
    with pytest.raises(T.ShapeError, match="linear"):
        T.linear(a, t64(np.ones(3)), t64(np.ones(3)))
    with pytest.raises(T.ShapeError, match="bias"):
        T.linear(a, t64(np.ones((3, 4))), t64(np.ones((1, 4))))


@pytest.mark.parametrize("seed", range(3))
def test_primitive_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    cases = {
        "add": lambda a, b: T.sum_(T.add(a, b)),
        "mul": lambda a, b: T.sum_(T.square(T.mul(a, b))),
        "sub": lambda a, b: T.sum_(T.square(T.sub(a, b))),
        "matmul": lambda a, b: T.sum_(T.square(T.matmul(a, b))),
    }
    a, b = rand(rng, 3, 4), rand(rng, 3, 4)
    for name in ("add", "mul", "sub"):
        assert T.grad_check(cases[name], [rand(rng, 3, 4), rand(rng, 3, 4)]) < 1e-7, name
    assert T.grad_check(cases["matmul"], [rand(rng, 3, 4), rand(rng, 4, 2)]) < 1e-7
    a.zero_grad()


def test_broadcast_add_gradients():
    rng = np.random.default_rng(7)
    f = lambda x, b: T.sum_(T.square(T.add(x, b)))
    assert T.grad_check(f, [rand(rng, 4, 6), rand(rng, 6)]) < 1e-7
    assert T.grad_check(f, [rand(rng, 2, 4, 6), rand(rng, 1, 1, 6)]) < 1e-7


def test_batched_matmul_gradients():
    rng = np.random.default_rng(8)
    f = lambda a, b: T.sum_(T.square(T.matmul(a, b)))
    assert T.grad_check(f, [rand(rng, 2, 3, 4, 5), rand(rng, 2, 3, 5, 2)]) < 1e-7
    # stacked @ shared matrix (the linear-layer pattern)
    assert T.grad_check(f, [rand(rng, 2, 3, 4), rand(rng, 4, 6)]) < 1e-7


def test_structural_op_gradients():
    rng = np.random.default_rng(9)
    assert T.grad_check(lambda a: T.sum_(T.square(T.transpose(a, (2, 0, 1)))), [rand(rng, 2, 3, 4)]) < 1e-7
    assert T.grad_check(lambda a: T.sum_(T.square(T.reshape(a, (6, 4)))), [rand(rng, 2, 3, 4)]) < 1e-7
    assert T.grad_check(lambda a: T.sum_(T.square(a[1:, ::2])), [rand(rng, 4, 6)]) < 1e-7
    assert (
        T.grad_check(lambda a, b: T.sum_(T.square(T.concat([a, b], axis=1))), [rand(rng, 2, 3), rand(rng, 2, 2)])
        < 1e-7
    )


def test_gather_gradients_accumulate_duplicates():
    rng = np.random.default_rng(10)
    idx = np.array([0, 2, 2, 1])
    f = lambda a: T.sum_(T.square(T.gather_rows(a, idx)))
    assert T.grad_check(f, [rand(rng, 3, 5)]) < 1e-7


def test_gather_tokens_needs_distinct_positions_per_row():
    rng = np.random.default_rng(10)
    bidx = np.array([[0, 2], [2, 1]])
    g = lambda a: T.sum_(T.square(T.gather_tokens(a, bidx)))
    assert T.grad_check(g, [rand(rng, 2, 3, 4)]) < 1e-7
    with pytest.raises(T.ShapeError, match="repeats"):
        T.gather_tokens(rand(rng, 2, 3, 4), np.array([[0, 2], [1, 1]]))
    with pytest.raises(T.ShapeError, match="repeats"):
        T.gather_tokens(rand(rng, 2, 3, 4), np.array([[0, 2], [2, -1]]))


def composite_decoder_tokens(d, mask_token, pos, vis_idx, masked_idx):
    """Slices of ``d``, a zeros + mask-token ``add``, ``concat``, ``gather_tokens`` by the inverse permutation,
    a ``pos`` ``add`` and a CLS ``concat``: the MAE decoder input from primitive ops, the oracle for
    ``T.decoder_tokens``."""
    b, n_masked = masked_idx.shape
    cls, vis = d[:, :1, :], d[:, 1:, :]
    zeros = T.Tensor(np.zeros((b, n_masked, d.shape[-1]), dtype=d.dtype))
    masked = T.add(zeros, mask_token)
    inv = np.argsort(np.concatenate([vis_idx, masked_idx], axis=1), axis=1)
    tokens = T.add(T.gather_tokens(T.concat([vis, masked], axis=1), inv), pos)
    return T.concat([cls, tokens], axis=1)


def decoder_token_inputs(rng, b, v, m, dim, dtype=np.float64, sort=True):
    """[d (B, 1+V, D), mask token (1, 1, D), pos (N, D)] and per-sample partitions of range(N) into V visible
    and M masked positions, each part sorted or in the order the permutation drew it."""
    tensors = [rand(rng, b, 1 + v, dim, dtype=dtype), rand(rng, 1, 1, dim, dtype=dtype), rand(rng, v + m, dim, dtype=dtype)]
    perms = np.stack([rng.permutation(v + m) for _ in range(b)])
    vis, masked = perms[:, :v], perms[:, v:]
    return tensors, (np.sort(vis, axis=1), np.sort(masked, axis=1)) if sort else (vis, masked)


def decoder_tokens_both_ways(tensors, vis, masked, seed):
    """Output and d, mask-token and pos gradient bytes of ``T.decoder_tokens`` and of its composite oracle."""
    d, _, pos = tensors
    up = np.random.default_rng(seed).standard_normal((d.shape[0], 1 + pos.shape[0], d.shape[2])).astype(d.dtype)
    got = []
    for op in (T.decoder_tokens, composite_decoder_tokens):
        ts = [T.Tensor(t.data.copy(), requires_grad=True) for t in tensors]
        y = op(*ts, vis, masked)
        T.sum_(T.mul(y, up)).backward()
        got.append([y.data.dtype, y.data.tobytes()] + [(t.grad.dtype, t.grad.tobytes()) for t in ts])
    return got


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2, 3, 5, 4), (3, 8, 28, 128), (2, 120, 480, 16)])
def test_decoder_tokens_match_the_composite_oracle_bit_for_bit(shape, dtype):
    # the last shape is the paper's small decoder input, 600 patches, at a narrow width
    tensors, (vis, masked) = decoder_token_inputs(np.random.default_rng([41, *shape]), *shape, dtype=dtype)
    fused, oracle = decoder_tokens_both_ways(tensors, vis, masked, 42)
    assert fused[0] == dtype
    assert fused == oracle


@settings(max_examples=40)
@given(
    b=st.integers(2, 3),
    v=st.integers(0, 5),
    m=st.integers(1, 5),
    dim=st.integers(1, 4),
    sort=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_decoder_tokens_match_the_composite_oracle_over_random_partitions(b, v, m, dim, sort, seed):
    tensors, (vis, masked) = decoder_token_inputs(np.random.default_rng(seed), b, v, m, dim, sort=sort)
    fused, oracle = decoder_tokens_both_ways(tensors, vis, masked, seed + 1)
    assert fused == oracle


def test_decoder_tokens_gradients_match_finite_differences():
    tensors, (vis, masked) = decoder_token_inputs(np.random.default_rng(43), 3, 2, 4, 5, sort=False)
    up = np.random.default_rng(44).standard_normal((3, 7, 5))
    err = T.grad_check(lambda *ts: T.sum_(T.square(T.mul(T.decoder_tokens(*ts, vis, masked), up))), tensors)
    assert err < 1e-7


def test_decoder_tokens_closure_keeps_only_the_index_arrays():
    tensors, (vis, masked) = decoder_token_inputs(np.random.default_rng(45), 2, 3, 4, 6)
    y = T.decoder_tokens(*tensors, vis, masked)
    kept = [c.cell_contents for c in y._backward.__closure__]
    arrays = [a for a in kept if isinstance(a, np.ndarray)]
    assert arrays and all(np.issubdtype(a.dtype, np.integer) for a in arrays)
    assert all(any(t is s for s in tensors) for t in kept if isinstance(t, T.Tensor))


@pytest.mark.parametrize(
    "vis, masked",
    [
        ([[0, 1], [2, 0]], [[2, 3], [3, 2]]),
        ([[0, 1], [2, 0]], [[2, 3], [1, 4]]),
        ([[0, 1], [2, 0]], [[2, 3], [3, -3]]),
    ],
    ids=["repeat", "missing", "negative"],
)
def test_decoder_tokens_refuse_a_row_that_is_not_a_permutation(vis, masked):
    tensors, _ = decoder_token_inputs(np.random.default_rng(46), 2, 2, 2, 3)
    with pytest.raises(T.ShapeError, match="not a permutation"):
        T.decoder_tokens(*tensors, np.array(vis), np.array(masked))


@pytest.mark.parametrize(
    "arg, shape",
    [(0, (2, 3)), (0, (2, 4, 3)), (0, (3, 3, 3)), (1, (1, 3)), (1, (1, 1, 4)), (2, (5, 3)), (2, (4, 2))],
    ids=["d-2d", "d-rows", "d-batch", "token-2d", "token-width", "pos-rows", "pos-width"],
)
def test_decoder_tokens_refuse_shapes_that_do_not_chain(arg, shape):
    tensors, (vis, masked) = decoder_token_inputs(np.random.default_rng(47), 2, 2, 2, 3)
    tensors[arg] = rand(np.random.default_rng(48), *shape)
    with pytest.raises(T.ShapeError, match="decoder_tokens"):
        T.decoder_tokens(*tensors, vis, masked)


def test_nonlinear_op_gradients():
    rng = np.random.default_rng(11)
    assert T.grad_check(lambda a: T.sum_(T.square(T.softmax(a, axis=-1))), [rand(rng, 3, 6)]) < 1e-6
    assert T.grad_check(lambda a: T.sum_(T.square(T.gelu(a))), [rand(rng, 4, 5)]) < 1e-6
    f = lambda x, g, b: T.sum_(T.square(T.layer_norm(x, g, b)))
    assert T.grad_check(f, [rand(rng, 3, 8), rand(rng, 8), rand(rng, 8)]) < 1e-6


def test_linear_and_loss_gradients():
    rng = np.random.default_rng(12)
    f = lambda x, w, b: T.sum_(T.square(T.linear(x, w, b)))
    assert T.grad_check(f, [rand(rng, 2, 5, 4), rand(rng, 4, 3), rand(rng, 3)]) < 1e-7

    tgt = rng.standard_normal((4, 6))
    assert T.grad_check(lambda p: T.mse(p, tgt), [rand(rng, 4, 6)]) < 1e-7

    labels = np.array([0, 2, 1])
    assert T.grad_check(lambda z: T.softmax_cross_entropy(z, labels), [rand(rng, 3, 4)]) < 1e-6


@pytest.mark.parametrize("lead", [(5,), (2, 5), (2, 3, 2)])
def test_linear_gradients_over_leading_axes(lead):
    rng = np.random.default_rng(15)
    f = lambda x, w, b: T.sum_(T.square(T.linear(x, w, b)))
    assert T.grad_check(f, [rand(rng, *lead, 4), rand(rng, 4, 3), rand(rng, 3)]) < 1e-7


def test_linear_gradients_on_non_contiguous_input():
    rng = np.random.default_rng(16)
    f = lambda a, w, b: T.sum_(T.square(T.linear(T.transpose(a, (0, 2, 1)), w, b)))
    assert T.grad_check(f, [rand(rng, 2, 4, 5), rand(rng, 4, 3), rand(rng, 3)]) < 1e-7


def test_linear_forward_backward_bit_deterministic():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((8, 9, 24)).astype(np.float32)
    w = rng.standard_normal((24, 32)).astype(np.float32)
    b = rng.standard_normal(32).astype(np.float32)

    def run():
        ts = [T.Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
        y = T.linear(*ts)
        T.sum_(T.square(y)).backward()
        return [y.data.tobytes()] + [t.grad.tobytes() for t in ts]

    assert run() == run()


def test_reduction_gradients():
    rng = np.random.default_rng(13)
    assert T.grad_check(lambda a: T.sum_(T.square(T.sum_(a, axis=1))), [rand(rng, 3, 4, 2)]) < 1e-7
    assert T.grad_check(lambda a: T.square(T.mean_(a)), [rand(rng, 5, 3)]) < 1e-7
    assert T.grad_check(lambda a: T.sum_(T.square(T.mean_(a, axis=0, keepdims=True))), [rand(rng, 4, 3)]) < 1e-7


def test_forward_backward_bit_deterministic():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((8, 16)).astype(np.float32)
    w = rng.standard_normal((16, 16)).astype(np.float32)

    def run():
        xt = T.Tensor(x.copy(), requires_grad=True)
        wt = T.Tensor(w.copy(), requires_grad=True)
        y = T.gelu(T.matmul(xt, wt))
        loss = T.mean_(T.square(y))
        loss.backward()
        return loss.data.copy(), xt.grad.copy(), wt.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1.tobytes() == l2.tobytes()
    assert gx1.tobytes() == gx2.tobytes()
    assert gw1.tobytes() == gw2.tobytes()


def test_grad_check_rejects_nonfinite_forward():
    x = t64([1.0])
    with pytest.raises(FloatingPointError):
        T.grad_check(lambda v: T.mul(v, np.inf), [x])


def test_fanout_into_a_kept_gradient_still_accumulates():
    # add passes views of g (copied on arrival); mul hands over fresh arrays (kept as is)
    x = t64([1.5, -2.0, 0.25])
    T.sum_(T.add(x, x)).backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
    y = t64([1.5, -2.0, 0.25])
    T.sum_(T.mul(y, y)).backward()
    np.testing.assert_array_equal(y.grad, 2.0 * y.data)
    # one upstream gradient reaches two leaves and one of them again: no leaf may alias it
    u, v = t64([1.0, 2.0, 3.0]), t64([4.0, 5.0, 6.0])
    T.sum_(T.add(T.add(u, v), u)).backward()
    np.testing.assert_array_equal(u.grad, [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(v.grad, [1.0, 1.0, 1.0])


def test_backward_consumes_the_graph_and_a_second_call_is_a_no_op():
    rng = np.random.default_rng(18)
    x, w = rand(rng, 3, 4), rand(rng, 4, 5)
    h = T.gelu(T.matmul(x, w))
    loss = T.sum_(T.square(h))
    loss.backward()
    assert h.grad is None and h._backward is None and h._parents == ()
    assert T.tape(loss).nodes == [loss] and loss.grad is None
    gx, gw = x.grad.copy(), w.grad.copy()
    loss.backward()
    assert x.grad.tobytes() == gx.tobytes() and w.grad.tobytes() == gw.tobytes()


def attention(qkv, n_heads):
    """Multi-head self-attention on a packed (B, T, 3D) qkv as one node, on the engine's private helpers.

    ``T.attention_sublayer`` runs the same ``_split_heads``, ``_attend`` and
    ``_attend_grad``, so the tests below cover them at shapes no block takes.
    """
    q, k, v = T._split_heads(qkv.data, n_heads)
    out, lse = T._attend(q, k, v)

    def backward(g):
        if qkv.requires_grad:
            qkv._accumulate(T._attend_grad(g, q, k, v, out, lse), fresh=True)

    return T._make(out, (qkv,), backward)


def composite_attention(qkv, n_heads):
    """Multi-head self-attention built from primitive ops: the oracle for ``attention``."""
    b, t, d3 = qkv.shape
    dim = d3 // 3
    hd = dim // n_heads
    heads = []
    for part in range(3):
        h = T.reshape(qkv[:, :, part * dim : (part + 1) * dim], (b, t, n_heads, hd))
        heads.append(T.transpose(h, (0, 2, 1, 3)))
    q, k, v = heads
    att = T.softmax(T.mul(T.matmul(q, T.swap_last(k)), 1.0 / math.sqrt(hd)), axis=-1)
    return T.reshape(T.transpose(T.matmul(att, v), (0, 2, 1, 3)), (b, t, dim))


def attention_loss(n_heads):
    return lambda qkv: T.sum_(T.square(attention(qkv, n_heads)))


@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("t", [1, 5, 7])
def test_attention_gradients_match_finite_differences(b, t):
    rng = np.random.default_rng([19, b, t])
    for n_heads in (1, 2, 3):
        for hd in (2, 4):
            err = T.grad_check(attention_loss(n_heads), [rand(rng, b, t, 3 * n_heads * hd)])
            assert err < 1e-7, (n_heads, hd, err)


@pytest.mark.parametrize("shape", [(2, 7, 3, 4), (2, 9, 2, 16), (1, 37, 3, 64)])
def test_attention_matches_the_composite_oracle(shape):
    # hd a power of 4 makes 1/sqrt(hd) a power of two, so scaling q instead of the scores is exact
    b, t, n_heads, hd = shape
    rng = np.random.default_rng(20)
    x = rng.standard_normal((b, t, 3 * n_heads * hd)).astype(np.float32)
    w = rng.standard_normal((b, t, n_heads * hd)).astype(np.float32)
    fused, oracle = T.Tensor(x.copy(), requires_grad=True), T.Tensor(x.copy(), requires_grad=True)
    y_fused, y_oracle = attention(fused, n_heads), composite_attention(oracle, n_heads)
    assert y_fused.data.tobytes() == y_oracle.data.tobytes()
    T.sum_(T.mul(y_fused, w)).backward()
    T.sum_(T.mul(y_oracle, w)).backward()
    assert fused.grad.dtype == np.float32
    assert np.linalg.norm(fused.grad - oracle.grad) <= 1e-6 * np.linalg.norm(oracle.grad)


def test_attention_closure_keeps_no_weights_matrix():
    b, t, n_heads, hd = 2, 7, 3, 4
    y = attention(rand(np.random.default_rng(21), b, t, 3 * n_heads * hd), n_heads)
    kept = [c.cell_contents for c in y._backward.__closure__]
    arrays = [a for a in kept if isinstance(a, np.ndarray)]
    assert arrays and all(a.shape[-2:] != (t, t) for a in arrays)


@settings(max_examples=25)
@given(
    b=st.integers(1, 2),
    t=st.integers(1, 6),
    n_heads=st.integers(1, 3),
    hd=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_attention_gradients_over_random_shapes(b, t, n_heads, hd, seed):
    x = rand(np.random.default_rng(seed), b, t, 3 * n_heads * hd)
    assert T.grad_check(attention_loss(n_heads), [x]) < 1e-7


def composite_ffn(x, w1, b1, w2, b2):
    """fc1 -> GELU -> fc2 built from primitive ops, as the classifier head runs it: the FFN oracle."""
    return T.linear(T.gelu(T.linear(x, w1, b1)), w2, b2)


def ffn_inputs(rng, lead, n_in, n_hid, n_out, dtype=np.float64):
    shapes = [(*lead, n_in), (n_in, n_hid), (n_hid,), (n_hid, n_out), (n_out,)]
    return [rand(rng, *s, dtype=dtype) for s in shapes]


@pytest.mark.parametrize(
    "arg, shape",
    [(0, (3, 5)), (1, (4, 8, 1)), (3, (8,)), (1, (5, 8)), (3, (7, 5)), (2, (5,)), (4, (8,))],
    ids=["x", "w1-3d", "w2-1d", "w1-rows", "w2-rows", "b1", "b2"],
)
def test_ffn_rejects_bad_shapes(arg, shape):
    rng = np.random.default_rng(24)
    args = ffn_inputs(rng, (3,), 4, 8, 5)
    args[arg] = rand(rng, *shape)
    with pytest.raises(T.ShapeError, match="linear"):
        composite_ffn(*args)


# Axes into the GELU are at least 2 long: with one row and one hidden unit a
# pre-activation at GELU's stationary point or far tail leaves x, w1 and b1
# a gradient below the finite-difference reference's rounding floor.
@settings(max_examples=25)
@given(
    lead=st.lists(st.integers(2, 3), min_size=1, max_size=3),
    n_in=st.integers(2, 4),
    n_hid=st.integers(2, 6),
    n_out=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_ffn_gradients_over_random_shapes(lead, n_in, n_hid, n_out, seed):
    inputs = ffn_inputs(np.random.default_rng(seed), tuple(lead), n_in, n_hid, n_out)
    assert T.grad_check(lambda *t: T.sum_(T.square(composite_ffn(*t))), inputs) < 1e-7


def composite_masked_mse_head(x, w, b, idx, targets):
    """Head on every row, then gather, residual and mean squared patch error: the oracle for ``T.masked_mse_head``."""
    rec = T.gather_tokens(T.linear(x, w, b), idx)
    return T.mean_(T.sum_(T.square(T.sub(rec, targets)), axis=-1))


def rows_of(targets):
    """(B, M, P) ``targets`` as ``T.masked_mse_head`` takes them: a reader of row slices of their (B·M, P) reshape."""
    return targets.reshape(-1, targets.shape[-1]).__getitem__


def head_inputs(rng, b, t, m, d, p, dtype=np.float64):
    """x (B, T, D), w (D, P), bias (P,), per-row distinct positions (B, M) and targets (B, M, P)."""
    x, w, bias = rand(rng, b, t, d, dtype=dtype), rand(rng, d, p, dtype=dtype), rand(rng, p, dtype=dtype)
    idx = np.stack([rng.permutation(t)[:m] for _ in range(b)])
    return x, w, bias, idx, rng.standard_normal((b, m, p)).astype(dtype)


@pytest.mark.parametrize("shape", [(1, 5, 2, 3, 4), (3, 7, 5, 8, 6), (4, 37, 28, 128, 1500)])
def test_masked_mse_head_matches_the_composite_oracle(shape):
    rng = np.random.default_rng(25)
    x, w, bias, idx, targets = head_inputs(rng, *shape, dtype=np.float32)
    fused = [T.Tensor(t.data.copy(), requires_grad=True) for t in (x, w, bias)]
    oracle = [T.Tensor(t.data.copy(), requires_grad=True) for t in (x, w, bias)]
    loss_fused = T.masked_mse_head(*fused, idx, rows_of(targets))
    loss_oracle = composite_masked_mse_head(*oracle, idx, targets)
    assert loss_fused.data.shape == loss_oracle.data.shape == ()
    assert loss_fused.data.dtype == np.float32
    np.testing.assert_allclose(loss_fused.data, loss_oracle.data, rtol=1e-6, atol=0)
    loss_fused.backward()
    loss_oracle.backward()
    for f, o in zip(fused, oracle):
        assert f.grad.dtype == np.float32
        # norm-wise: the weight gradient sums B·M float32 products, so single entries can cancel
        assert np.linalg.norm(f.grad - o.grad) <= 1e-5 * np.linalg.norm(o.grad)


@settings(max_examples=25)
@given(
    b=st.integers(1, 3),
    t=st.integers(1, 6),
    m_frac=st.floats(0.0, 1.0),
    d=st.integers(1, 4),
    p=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_masked_mse_head_gradients_over_random_shapes(b, t, m_frac, d, p, seed):
    m = 1 + int(m_frac * (t - 1))
    x, w, bias, idx, targets = head_inputs(np.random.default_rng(seed), b, t, m, d, p)
    err = T.grad_check(lambda *ts: T.masked_mse_head(*ts, idx, rows_of(targets)), [x, w, bias])
    assert err < 1e-7


def test_masked_mse_head_closure_keeps_no_full_reconstruction():
    b, t, m, d, p = 2, 9, 4, 3, 5
    x, w, bias, idx, targets = head_inputs(np.random.default_rng(26), b, t, m, d, p)
    loss = T.masked_mse_head(x, w, bias, idx, rows_of(targets))
    kept = [c.cell_contents for c in loss._backward.__closure__]
    arrays = [a for a in kept if isinstance(a, np.ndarray)]
    assert all(a.size < b * t * p for a in arrays)
    assert {(b * m, d), (b * m, p)} <= {a.shape for a in arrays}
    assert all(any(k is s for s in (x, w, bias)) for k in kept if isinstance(k, T.Tensor))


def test_masked_mse_head_forward_builds_no_full_size_square():
    # B·M rows of P = 1500: the residual is 5.4 MB, and squaring it whole would add as much again
    x, w, bias, idx, targets = head_inputs(np.random.default_rng(37), 32, 37, 28, 128, 1500, dtype=np.float32)
    residual, rows = 32 * 28 * 1500 * 4, 32 * 28 * 128 * 4
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        T.masked_mse_head(x, w, bias, idx, rows_of(targets))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < rows + 1.5 * residual


def test_masked_mse_head_reads_its_targets_one_row_block_at_a_time(monkeypatch):
    monkeypatch.setattr(T, "BLOCK_ELEMS", 12)  # two rows of P = 6 per block: 15 rows in eight blocks
    x, w, bias, idx, targets = head_inputs(np.random.default_rng(38), 3, 7, 5, 4, 6, dtype=np.float32)
    flat, asked = targets.reshape(-1, 6), []

    def read(sl):
        asked.append((sl.start, sl.stop))
        return flat[sl].copy()

    losses, grads = [], []
    for given in (flat.__getitem__, read):  # views of one target matrix, then block copies
        ts = [T.Tensor(t.data.copy(), requires_grad=True) for t in (x, w, bias)]
        loss = T.masked_mse_head(*ts, idx, given)
        loss.backward()
        losses.append(loss.data.tobytes())
        grads.append([t.grad.tobytes() for t in ts])
    assert losses[0] == losses[1] and grads[0] == grads[1]
    assert asked == [(i, i + 2) for i in range(0, 15, 2)]


def test_masked_mse_head_refuses_a_wrongly_shaped_target_block():
    x, w, bias, idx, targets = head_inputs(np.random.default_rng(39), 2, 3, 2, 3, 5)
    flat = targets.reshape(-1, 5)
    with pytest.raises(T.ShapeError, match="masked_mse_head: target rows 0:4"):
        T.masked_mse_head(x, w, bias, idx, lambda sl: flat[sl, :4])


@pytest.mark.parametrize(
    "arg, value",
    [
        (3, np.array([[0, 2], [1, 1]])),
        (3, np.array([[0, 2], [2, -1]])),
        (0, np.ones((2, 3))),
        (1, np.ones((4, 5))),
        (1, np.ones((3, 5, 1))),
        (2, np.ones(4)),
        (3, np.array([[0, 1]])),
        (3, np.zeros((2, 0), dtype=int)),
        (4, np.ones((4, 4))),
        (4, np.ones((3, 5))),
    ],
    ids=["repeat", "repeat-negative", "x-2d", "w-rows", "w-3d", "bias", "idx-batch", "idx-empty", "targets-width",
         "targets-rows"],
)
def test_masked_mse_head_rejects_bad_inputs(arg, value):
    args = list(head_inputs(np.random.default_rng(27), 2, 3, 2, 3, 5))
    args[4] = rows_of(args[4])
    args[arg] = t64(value) if arg < 3 else value.__getitem__ if arg == 4 else value
    with pytest.raises(T.ShapeError, match="masked_mse_head"):
        T.masked_mse_head(*args)


def test_layer_norm_closure_keeps_its_input_and_no_other_full_size_array():
    rng = np.random.default_rng(28)
    x, g, b = rand(rng, 2, 3, 8), rand(rng, 8), rand(rng, 8)
    y = T.layer_norm(x, g, b)
    kept = [c.cell_contents for c in y._backward.__closure__]
    arrays = [a for a in kept if isinstance(a, np.ndarray)]
    assert any(a is x.data for a in arrays)
    assert all(a is x.data or a.shape == (2, 3, 1) for a in arrays)
    assert all(any(t is s for s in (x, g, b)) for t in kept if isinstance(t, T.Tensor))


def test_attention_closure_keeps_only_views_of_qkv_and_the_log_sum_exp():
    b, t, n_heads, hd = 2, 7, 3, 4
    qkv = rand(np.random.default_rng(29), b, t, 3 * n_heads * hd)
    y = attention(qkv, n_heads)
    kept = [c.cell_contents for c in y._backward.__closure__]
    own = [a for a in kept if isinstance(a, np.ndarray) and not np.shares_memory(a, qkv.data)]
    # besides the views, the log-sum-exp and the op's own output (its rowsum(dO ∘ O) source)
    assert sorted(a.shape for a in own if a is not y.data) == [(b, n_heads, t, 1)]
    assert sum(isinstance(a, np.ndarray) and np.shares_memory(a, qkv.data) for a in kept) == 3  # q, k and v


def test_layer_norm_recompute_is_bit_equal_to_keeping_the_normalized_input():
    rng = np.random.default_rng(30)
    x, g, b = (rng.standard_normal(s).astype(np.float32) for s in ((4, 9, 64), (64,), (64,)))
    up = rng.standard_normal((4, 9, 64)).astype(np.float32)
    ts = [T.Tensor(a.copy(), requires_grad=True) for a in (x, g, b)]
    y = T.layer_norm(*ts)
    T.sum_(T.mul(y, up)).backward()
    # the same arithmetic with the normalized input kept from the forward pass
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + T.LAYER_NORM_EPS)
    xhat = xc * inv
    gx = up * g
    dx = inv * (gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
    assert y.data.tobytes() == (g * xhat + b).tobytes()
    assert ts[0].grad.tobytes() == dx.tobytes()
    assert ts[1].grad.tobytes() == (up * xhat).reshape(-1, 64).sum(axis=0).tobytes()


# The normalized axis is at least 3 long: over 1 or 2 entries the normalized
def linear_case(draw, rng):
    lead = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n_in, n_out = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    f = lambda x, w, b: T.sum_(T.square(T.linear(x, w, b)))
    return f, [rand(rng, *lead, n_in), rand(rng, n_in, n_out), rand(rng, n_out)]


def gather_rows_case(draw, rng):
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    idx = rng.integers(0, n, size=draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))  # repeats allowed
    return lambda a: T.sum_(T.square(T.gather_rows(a, idx))), [rand(rng, n, d)]


def gather_tokens_case(draw, rng):
    b, t, d = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    k = draw(st.integers(1, t))
    idx = np.stack([rng.permutation(t)[:k] for _ in range(b)])  # distinct positions per row
    return lambda a: T.sum_(T.square(T.gather_tokens(a, idx))), [rand(rng, b, t, d)]


def concat_case(draw, rng):
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    axis = draw(st.integers(0, len(shape) - 1))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    inputs = [rand(rng, *shape[:axis], n, *shape[axis + 1 :]) for n in sizes]
    return lambda *ts: T.sum_(T.square(T.concat(ts, axis=axis))), inputs


def softmax_cross_entropy_case(draw, rng):
    n, c = draw(st.integers(1, 5)), draw(st.integers(2, 6))
    labels = rng.integers(0, c, size=n)
    return lambda z: T.softmax_cross_entropy(z, labels), [rand(rng, n, c)]


# name: (case(draw, rng) -> (scalar function, 64-bit inputs), the fixed-shape tests' threshold)
RANDOM_SHAPE_GRAD_CASES = {
    "linear": (linear_case, 1e-7),
    "gather_rows": (gather_rows_case, 1e-7),
    "gather_tokens": (gather_tokens_case, 1e-7),
    "concat": (concat_case, 1e-7),
    "softmax_cross_entropy": (softmax_cross_entropy_case, 1e-6),
}


@pytest.mark.parametrize("op", sorted(RANDOM_SHAPE_GRAD_CASES))
@settings(max_examples=25)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_op_gradients_over_random_shapes(op, data, seed):
    case, tol = RANDOM_SHAPE_GRAD_CASES[op]
    f, inputs = case(data.draw, np.random.default_rng(seed))
    assert T.grad_check(f, inputs) < tol


# input is 0 or ±1 whatever x is, so x's gradient is zero up to eps and the
# finite-difference reference is all rounding.
@settings(max_examples=25)
@given(
    lead=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    dim=st.integers(3, 8),
    seed=st.integers(0, 2**16),
)
def test_layer_norm_gradients_over_random_shapes(lead, dim, seed):
    rng = np.random.default_rng(seed)
    f = lambda x, g, b: T.sum_(T.square(T.layer_norm(x, g, b)))
    assert T.grad_check(f, [rand(rng, *lead, dim), rand(rng, dim), rand(rng, dim)]) < 1e-6


def composite_attention_sublayer(x, ln_g, ln_b, w_qkv, b_qkv, w_proj, b_proj, n_heads):
    """layer_norm -> linear -> attention -> linear -> add: the oracle for ``T.attention_sublayer``."""
    qkv = T.linear(T.layer_norm(x, ln_g, ln_b), w_qkv, b_qkv)
    return T.add(T.linear(attention(qkv, n_heads), w_proj, b_proj), x)


def composite_ffn_sublayer(x, ln_g, ln_b, w1, b1, w2, b2):
    """layer_norm -> FFN -> add: the oracle for ``T.ffn_sublayer``."""
    return T.add(composite_ffn(T.layer_norm(x, ln_g, ln_b), w1, b1, w2, b2), x)


def attention_sublayer_inputs(rng, b, t, dim, dtype=np.float64):
    shapes = [(b, t, dim), (dim,), (dim,), (dim, 3 * dim), (3 * dim,), (dim, dim), (dim,)]
    return [rand(rng, *s, dtype=dtype) for s in shapes]


def ffn_sublayer_inputs(rng, lead, dim, n_hid, dtype=np.float64):
    shapes = [(*lead, dim), (dim,), (dim,), (dim, n_hid), (n_hid,), (n_hid, dim), (dim,)]
    return [rand(rng, *s, dtype=dtype) for s in shapes]


SUBLAYERS = {
    # name: (fused op, composite oracle, inputs(rng, shape, dtype)); a shape is (B, T, D, heads or hidden)
    "attention": (
        lambda *a: T.attention_sublayer(*a[:-1], a[-1]),
        composite_attention_sublayer,
        lambda rng, s, dtype: attention_sublayer_inputs(rng, *s[:3], dtype=dtype) + [s[3]],
    ),
    "ffn": (
        T.ffn_sublayer,
        composite_ffn_sublayer,
        lambda rng, s, dtype: ffn_sublayer_inputs(rng, s[:2], s[2], s[3], dtype=dtype),
    ),
}


def sublayer_case(kind, shape, seed, dtype=np.float64):
    """(fused op, oracle, tensor inputs, extra positional args) for one sublayer draw."""
    op, oracle, make = SUBLAYERS[kind]
    args = make(np.random.default_rng(seed), shape, dtype)
    tensors = [a for a in args if isinstance(a, T.Tensor)]
    return op, oracle, tensors, args[len(tensors):]


@pytest.mark.parametrize("kind", sorted(SUBLAYERS))
@pytest.mark.parametrize("shape", [(1, 1, 4, 2), (2, 5, 6, 3), (2, 7, 8, 4), (3, 4, 12, 6)])
def test_sublayer_gradients_match_finite_differences(kind, shape):
    op, _, tensors, extra = sublayer_case(kind, shape, [31, *shape])
    err = T.grad_check(lambda *ts: T.sum_(T.square(op(*ts, *extra))), tensors)
    assert err < 1e-7, (kind, shape, err)


# The normalized axis is at least 3 long, as in the layer_norm property, and
# the FFN's hidden axis at least 2, as in the ffn property.
@settings(max_examples=25)
@given(
    kind=st.sampled_from(sorted(SUBLAYERS)),
    b=st.integers(1, 2),
    t=st.integers(1, 5),
    unit=st.integers(1, 4),
    split=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_sublayer_gradients_over_random_shapes(kind, b, t, unit, split, seed):
    # attention: `split` heads `unit` wide; ffn: width `unit` + 2 and 2 * `split` hidden units
    shape = (b, t, split * unit, split) if kind == "attention" else (b, t, unit + 2, 2 * split)
    assume(shape[2] >= 3)
    op, _, tensors, extra = sublayer_case(kind, shape, seed)
    assert T.grad_check(lambda *ts: T.sum_(T.square(op(*ts, *extra))), tensors) < 1e-7


@pytest.mark.parametrize("kind", sorted(SUBLAYERS))
@pytest.mark.parametrize("shape", [(2, 7, 12, 3), (2, 9, 32, 4), (4, 37, 128, 4)])
def test_sublayer_matches_the_composite_oracle_bit_for_bit(kind, shape):
    op, oracle, tensors, extra = sublayer_case(kind, shape, 32, dtype=np.float32)
    up = np.random.default_rng(33).standard_normal(tensors[0].shape).astype(np.float32)
    fused = [T.Tensor(t.data.copy(), requires_grad=True) for t in tensors]
    ref = [T.Tensor(t.data.copy(), requires_grad=True) for t in tensors]
    y_fused, y_ref = op(*fused, *extra), oracle(*ref, *extra)
    assert y_fused.data.dtype == np.float32
    assert y_fused.data.tobytes() == y_ref.data.tobytes()
    T.sum_(T.mul(y_fused, up)).backward()
    T.sum_(T.mul(y_ref, up)).backward()
    for i, (f, r) in enumerate(zip(fused, ref)):
        assert f.grad.dtype == np.float32 and f.grad.tobytes() == r.grad.tobytes(), i


@pytest.mark.parametrize("kind", sorted(SUBLAYERS))
def test_sublayer_closure_keeps_no_layer_norm_output_or_pre_residual_output(kind):
    n_heads = 3
    op, _, tensors, extra = sublayer_case(kind, (2, 5, 12, n_heads), 34)
    x, ln_g, ln_b, *rest = tensors
    ln_out = T.layer_norm(x, ln_g, ln_b)
    if kind == "attention":
        w_qkv, b_qkv, w_proj, b_proj = rest
        qkv = T.linear(ln_out, w_qkv, b_qkv)
        att = attention(qkv, n_heads)
        pre_residual = T.linear(att, w_proj, b_proj)
        # backward rebuilds qkv, so no q, k or v is kept: only the output attention reads rowsum(dO ∘ O) from
        forbidden = [qkv.data, *qkv.data.reshape(2, 5, 3, n_heads, 4).transpose(2, 0, 3, 1, 4)]
        allowed = [att.data]
    else:
        pre_residual = composite_ffn(ln_out, *rest)
        forbidden, allowed = [], []  # backward recomputes the fc1 pre-activation too
    y = op(*tensors, *extra)
    kept = [c.cell_contents for c in y._backward.__closure__]
    arrays = [a for a in kept if isinstance(a, np.ndarray) and a is not x.data]

    def among(a, refs):
        return any(a.shape == r.shape and np.array_equal(a, r) for r in refs)

    assert not any(among(a, [ln_out.data, pre_residual.data, *forbidden]) for a in arrays)
    # besides the input: the (…, 1) LayerNorm statistics and log-sum-exp, and the arrays above
    assert arrays and all(a.shape[-1] == 1 or among(a, allowed) for a in arrays)
    assert all(any(t is s for s in tensors) for t in kept if isinstance(t, T.Tensor))


# (kind, (B, T, D, heads or hidden)): with T = 5 every block of 7 or 40 entries
# is one head of one sample and 160 holds two whole samples, so B = 3 leaves a
# ragged last slab; the FFN's 15 rows of 16 hidden units fall in 15, 8 or 2 row blocks.
BLOCKED_SUBLAYERS = [("attention", (3, 5, 12, 3)), ("ffn", (3, 5, 12, 16))]


@pytest.mark.parametrize("block", [7, 40, 160])
def test_sublayers_in_small_blocks_are_bit_equal_to_one_block(monkeypatch, block):
    def run():
        got = []
        for kind, shape in BLOCKED_SUBLAYERS:
            op, _, tensors, extra = sublayer_case(kind, shape, 39, dtype=np.float32)
            y = op(*tensors, *extra)
            T.sum_(T.mul(y, np.random.default_rng(40).standard_normal(y.shape).astype(np.float32))).backward()
            got += [y.data.tobytes()] + [t.grad.tobytes() for t in tensors]
        return got

    whole = run()
    monkeypatch.setattr(T, "BLOCK_ELEMS", block)
    assert len(T._slabs(3, 3, 5)) > 1 and len(T._row_blocks(15, 16)) > 1
    assert run() == whole


def whole_attend(q, k, v):
    """``T._attend`` over the whole (B, H, T, T) array at once: the reference for its slabs."""
    b, n_heads, t, hd = q.shape
    s = np.matmul(q * (1.0 / math.sqrt(hd)), k.swapaxes(-1, -2))
    m = s.max(axis=-1, keepdims=True)
    s -= m
    np.exp(s, out=s)
    rowsum = s.sum(axis=-1, keepdims=True)
    s /= rowsum
    lse = m + np.log(rowsum)
    out = np.empty((b, t, n_heads * hd), dtype=q.dtype)
    np.matmul(s, v, out=T._heads(out, n_heads))
    return out, lse


def whole_attend_grad(g, q, k, v, out, lse):
    """``T._attend_grad`` over the whole (B, H, T, T) array at once: the reference for its slabs."""
    b, n_heads, t, hd = q.shape
    scale = 1.0 / math.sqrt(hd)
    qs = q * scale
    p = np.matmul(qs, k.swapaxes(-1, -2))
    p -= lse
    np.exp(p, out=p)
    g_h = T._heads(g, n_heads)
    delta = (g_h * T._heads(out, n_heads)).sum(axis=-1, keepdims=True)
    buf = np.empty((b, t, 3, n_heads, hd), dtype=q.dtype)
    gq, gk, gv = buf.transpose(2, 0, 3, 1, 4)
    np.matmul(p.swapaxes(-1, -2), g_h, out=gv)
    ds = np.matmul(g_h, v.swapaxes(-1, -2))
    ds -= delta
    ds *= p
    np.matmul(ds, k, out=gq)
    gq *= scale
    np.matmul(ds.swapaxes(-1, -2), qs, out=gk)
    return buf.reshape(b, t, 3 * n_heads * hd)


@pytest.mark.parametrize(
    "shape, head_slabs",
    [((2, 601, 8, 64), True), ((128, 37, 4, 32), False)],
    ids=["one-head-slabs", "whole-sample-slabs"],
)
def test_attend_and_its_gradient_are_bit_equal_to_the_whole_array_reference(shape, head_slabs):
    # the tests' attention oracle runs on _attend itself, so only this reference sees a slab bug
    b, t, n_heads, hd = shape
    slabs = T._slabs(b, n_heads, t)
    assert len(slabs) > 1
    assert all((s[0].stop - s[0].start == 1 and s[1] != slice(None)) == head_slabs for s in slabs)
    rng = np.random.default_rng(38)
    qkv = rng.standard_normal((b, t, 3 * n_heads * hd), dtype=np.float32)
    g = rng.standard_normal((b, t, n_heads * hd), dtype=np.float32)
    q, k, v = T._split_heads(qkv, n_heads)
    out, lse = T._attend(q, k, v)
    ref_out, ref_lse = whole_attend(q, k, v)
    assert out.tobytes() == ref_out.tobytes() and lse.tobytes() == ref_lse.tobytes()
    got, ref = T._attend_grad(g, q, k, v, out, lse), whole_attend_grad(g, q, k, v, ref_out, ref_lse)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "kind, arg, shape",
    [
        ("attention", 0, (5, 12)),
        ("attention", 0, (2, 5, 10)),  # 10 is not a multiple of 3 heads
        ("attention", 1, (11,)),
        ("attention", 3, (12, 24)),
        ("attention", 6, (11,)),
        ("ffn", 1, (11,)),
        ("ffn", 3, (12, 8, 1)),
        ("ffn", 4, (7,)),
        ("ffn", 5, (8, 11)),
        ("ffn", 6, (11,)),
    ],
)
def test_sublayer_rejects_bad_shapes(kind, arg, shape):
    op, _, tensors, extra = sublayer_case(kind, (2, 5, 12, 3 if kind == "attention" else 8), 35)
    tensors[arg] = rand(np.random.default_rng(36), *shape)
    with pytest.raises(T.ShapeError, match=f"{kind}_sublayer"):
        op(*tensors, *extra)
