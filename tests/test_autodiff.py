"""The tape of ``gdu.autodiff``, and gradient checks of the generic ops in
``oracles.py``, op by op, that the reference chains are built from."""

import operator

import numpy as np
import pytest

from gdu import autodiff as ad
from gdu.regularization import RegConfig
from gdu.training import gradients, trainable_arrays

from helpers import build_small_gdu
from oracles import (
    absolute,
    add,
    amax,
    detach,
    div,
    exp,
    fd_gradient,
    is_tensor,
    log,
    matmul,
    max_relative_error,
    maximum,
    mean,
    mul,
    neg,
    relu,
    reshape,
    spectral_norm_sym,
    sqrt,
    sub,
    summation,
    tanh,
    value_of,
)


def check_gradient(build, arrays, tol=5e-6):
    """Compare backward() gradients against central finite differences."""

    def value():
        ts = {k: ad.Tensor(v) for k, v in arrays.items()}
        return float(value_of(build(ts)))

    ts = {k: ad.Tensor(v) for k, v in arrays.items()}
    out = build(ts)
    out.backward()
    analytic = {
        k: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for k, t in ts.items()
    }
    numeric = fd_gradient(value, arrays)
    assert max_relative_error(analytic, numeric) < tol


def test_arithmetic_chain():
    rng = np.random.default_rng(0)
    arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4)) + 3.0}
    check_gradient(
        lambda t: summation(add(sub(mul(t["a"], t["b"]), div(t["a"], t["b"])), mul(2.0, t["a"]))),
        arrays,
    )


def test_broadcasting_bias_add():
    rng = np.random.default_rng(1)
    arrays = {"x": rng.normal(size=(5, 3)), "b": rng.normal(size=(3,))}

    def build(t):
        s = add(t["x"], t["b"])
        return summation(mul(s, s))

    check_gradient(build, arrays)


def test_matmul_all_arities():
    rng = np.random.default_rng(2)
    arrays = {
        "A": rng.normal(size=(4, 3)),
        "B": rng.normal(size=(3, 2)),
        "v": rng.normal(size=(3,)),
        "u": rng.normal(size=(4,)),
    }

    def squares(p):
        return summation(mul(p, p))

    check_gradient(lambda t: squares(matmul(t["A"], t["B"])), arrays)
    check_gradient(lambda t: squares(matmul(t["A"], t["v"])), arrays)
    check_gradient(lambda t: squares(matmul(t["u"], t["A"])), arrays)
    check_gradient(lambda t: squares(matmul(t["v"], t["v"])), arrays)


def test_elementwise_functions():
    rng = np.random.default_rng(3)
    arrays = {"x": rng.uniform(0.5, 2.0, size=(4, 3))}
    for fn in (exp, log, sqrt, tanh):
        check_gradient(lambda t: summation(fn(t["x"])), arrays)
    signed = {"x": rng.normal(size=(4, 3)) + 0.1}
    check_gradient(lambda t: summation(relu(t["x"])), signed)
    check_gradient(lambda t: summation(absolute(t["x"])), signed)
    check_gradient(lambda t: summation(neg(t["x"])), signed)


def test_reductions_and_shapes():
    rng = np.random.default_rng(4)
    arrays = {"x": rng.normal(size=(4, 5))}

    def squares(p):
        return summation(mul(p, p))

    check_gradient(lambda t: squares(mean(t["x"], axis=1)), arrays)
    check_gradient(lambda t: squares(reshape(t["x"], (2, 10))), arrays)
    check_gradient(lambda t: squares(amax(t["x"])), arrays)
    check_gradient(
        lambda t: summation(mul(amax(t["x"], axis=1, keepdims=True), t["x"])), arrays
    )


def test_maximum_and_detach():
    rng = np.random.default_rng(6)
    arrays = {"x": rng.normal(size=(6,)), "y": rng.normal(size=(6,))}
    check_gradient(lambda t: summation(maximum(t["x"], t["y"])), arrays)

    x = ad.Tensor(np.array([1.0, 2.0]))
    out = summation(mul(x, detach(x)))
    out.backward()
    np.testing.assert_allclose(x.grad, np.array([1.0, 2.0]))


def test_spectral_norm_sym_value_and_gradient():
    rng = np.random.default_rng(7)
    base = rng.normal(size=(4, 4))
    sym = (base + base.T) / 2.0
    expected = np.max(np.abs(np.linalg.eigvalsh(sym)))
    assert spectral_norm_sym(sym) == pytest.approx(expected, abs=1e-12)

    # Gradient check through a symmetric construction K = S + v v^T, since
    # eigh reads one triangle only.
    arrays = {"v": rng.normal(size=4)}

    def build(t):
        outer = matmul(reshape(t["v"], (4, 1)), reshape(t["v"], (1, 4)))
        return spectral_norm_sym(add(sym, outer))

    check_gradient(build, arrays)


def test_plain_arrays_pass_through():
    x = np.array([[1.0, 2.0]])
    assert isinstance(exp(x), np.ndarray)
    assert isinstance(summation(x, axis=1), np.ndarray)
    assert float(mean(x)) == pytest.approx(1.5)
    assert not is_tensor(x)


def test_backward_requires_scalar():
    x = ad.Tensor(np.ones(3))
    with pytest.raises(ValueError):
        mul(x, 2.0).backward()


def test_tensor_defines_no_arithmetic_operators():
    x = ad.Tensor(np.ones((2, 3)))
    for other in (x, np.ones((2, 3)), 2.0):
        for op in (operator.add, operator.mul):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)
    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__sub__", "__truediv__",
                 "__matmul__", "__pow__", "__neg__", "__getitem__", "T"):
        assert not hasattr(ad.Tensor, name), name


def test_grad_accumulates_across_shared_subexpressions():
    x = ad.Tensor(np.array(3.0))
    y = add(mul(x, x), mul(x, x))  # 2x^2 -> grad 4x
    y.backward()
    assert float(x.grad) == pytest.approx(12.0)


def test_numpy_left_operand_defers_to_tensor():
    # ``__array_ufunc__ = None`` makes numpy hand the whole operation to the
    # tensor, which has no operators, instead of trying it entry by entry.
    assert ad.Tensor.__array_ufunc__ is None
    x = ad.Tensor(np.ones((2, 2)))
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.matmul):
        with pytest.raises(TypeError):
            op(np.full((2, 2), 3.0), x)


def test_constant_operands_are_not_tape_parents():
    rng = np.random.default_rng(8)
    x = ad.Tensor(rng.normal(size=(3, 3)))
    c = rng.normal(size=(3, 3))
    for out in (add(x, c), add(c, x), mul(2.0, x), mul(x, 2.0), mul(x, c), mul(c, x),
                matmul(x, c), matmul(c, x), sub(x, 1.0)):
        assert out._parents == (x,)

    # The constant side gets no gradient; the tensor side still does.
    out = add(summation(matmul(c, x)), summation(mul(x, x)))
    out.backward()
    expected = c.T @ np.ones((3, 3)) + 2.0 * x.data
    np.testing.assert_allclose(x.grad, expected, rtol=1e-12)


def test_first_gradient_is_an_owned_copy():
    # ``add`` hands the same output gradient to both operands; each leaf
    # must still own its gradient, or a later contribution to one would
    # leak into the other.
    for x_last in (False, True):
        x, y = ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3)))
        terms = [summation(add(x, y)), summation(mul(x, 3.0))]
        out = add(terms[1], terms[0]) if x_last else add(terms[0], terms[1])
        out.backward()
        assert not np.shares_memory(x.grad, y.grad)
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 4.0))
        np.testing.assert_array_equal(y.grad, np.ones((2, 3)))


def test_gradient_blocks_do_not_alias():
    model, X, y = build_small_gdu(3, "CS")
    reg = RegConfig(lambda_ols=0.5, lambda_l1=0.5)
    grads = gradients((X, y), model, reg)
    params = trainable_arrays(model, "E2E")
    for name, g in grads.items():
        assert not any(np.shares_memory(g, p) for p in params.values())
        assert not any(np.shares_memory(g, h) for k, h in grads.items() if k != name)
    grads_before = {k: g.copy() for k, g in grads.items()}
    params_before = {k: p.copy() for k, p in params.items()}
    for name in grads:
        grads[name][...] = np.nan
        for other, g in grads.items():
            if other != name:
                np.testing.assert_array_equal(g, grads_before[other])
        for pname, p in params.items():
            np.testing.assert_array_equal(p, params_before[pname])
        grads[name][...] = grads_before[name]
