"""Autodiff engine: per-primitive gradient checks against finite differences."""

import numpy as np
import pytest

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
        T.linear(a, t64(np.ones(3)))
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
