"""The array nodes of a training step against the op chains they replaced.

The extractor, cross-entropy, the gate, the ensemble and each regularizer
(OLS, L1 and ORTH) are each one array forward that returns its backward.
Each value must equal its chain in ``oracles.py`` bit for bit, and each
backward must agree with central finite differences and, where the chain
is differentiable, with the chain's gradient.
"""

from dataclasses import replace

import numpy as np
import pytest

from gdu import autodiff as ad
from gdu.kernel import KernelConfig
from gdu.layer import _basis_inners, _ensemble, _gate_from_inners, basis_gram_matrix, init_layer
from gdu.regularization import _l1, _ols, _orth, omega_l1, omega_ols, omega_orth
from gdu.training import FeatureExtractor, _cross_entropy, _extract, cross_entropy_mean

from oracles import (
    cross_entropy_chain,
    ensemble_chain,
    fd_gradient,
    gate_chain,
    is_tensor,
    l1_chain,
    max_relative_error,
    mlp_chain,
    ols_chain,
    orth_chain,
    mul,
    summation,
)

FD_STEP = 1e-5
FD_TOL = 1e-4
CHAIN_TOL = 1e-12


def backward_error(node, inputs, wrt, seed=0):
    """Worst relative error of ``node``'s backward against central FD.

    ``node(**inputs)`` returns ``(value, grads)``, ``grads(g)`` the
    gradients by input name for the output gradient g. The value is
    contracted with a fixed random array to a scalar, and the gradients of
    the inputs in ``wrt`` are compared.
    """
    value, grads = node(**inputs)
    weights = np.random.default_rng(seed).normal(size=np.shape(value))
    analytic = {k: g for k, g in grads(weights).items() if k in wrt}
    assert set(analytic) == set(wrt)
    numeric = fd_gradient(
        lambda: float(np.sum(node(**inputs)[0] * weights)), {k: inputs[k] for k in wrt}, FD_STEP
    )
    return max_relative_error(analytic, numeric)


def node_and_chain_gradients(node, chain, inputs, wrt, seed=0):
    """The gradients of ``node`` and of ``chain`` for the same contraction."""
    value, grads = node(**inputs)
    weights = np.random.default_rng(seed).normal(size=np.shape(value))
    tensors = {k: ad.Tensor(v) if k in wrt else v for k, v in inputs.items()}
    summation(mul(chain(**tensors), weights)).backward()
    node_grads = {k: g for k, g in grads(weights).items() if k in wrt}
    return node_grads, {k: tensors[k].grad for k in wrt}


def chain_gradient_error(node, chain, inputs, wrt):
    """Worst relative disagreement between the node's and the chain's gradients."""
    return max_relative_error(*node_and_chain_gradients(node, chain, inputs, wrt))


def assert_forward_equals_chain(node, chain, inputs):
    """The node's value is the chain's bit for bit."""
    got = node(**inputs)[0]
    assert not is_tensor(got)
    np.testing.assert_array_equal(got, chain(**inputs))


# -- cross-entropy ---------------------------------------------------------------


def cross_entropy_node(labels):
    def node(logits):
        loss, back = _cross_entropy(logits, labels)
        return loss, lambda g: {"logits": back(g)}

    return node


def test_cross_entropy_forward_is_bit_identical_to_the_chain():
    rng = np.random.default_rng(0)
    for scale in (1.0, 30.0, 1e3):
        logits = rng.normal(scale=scale, size=(9, 4))
        labels = rng.integers(0, 4, size=9)
        got = cross_entropy_mean(logits, labels)
        assert got == cross_entropy_chain(logits, labels)
        assert got == cross_entropy_node(labels)(logits)[0]


def test_cross_entropy_backward_matches_finite_differences():
    rng = np.random.default_rng(1)
    for b, c in ((1, 2), (7, 3), (12, 5)):
        labels = rng.integers(0, c, size=b)
        inputs = {"logits": rng.normal(scale=2.0, size=(b, c))}
        node = cross_entropy_node(labels)
        err = backward_error(node, inputs, {"logits"})
        assert err < FD_TOL, (b, c, err)
        chain = lambda logits: cross_entropy_chain(logits, labels)
        assert chain_gradient_error(node, chain, inputs, {"logits"}) < CHAIN_TOL


@pytest.mark.parametrize(
    "labels, match",
    [
        ([-1], "label -1"),
        ([3], "label 3"),
        ([0, 1, 7], "expected 1 labels"),
        ([[2]], "expected 1 labels"),
    ],
)
def test_cross_entropy_rejects_bad_labels(labels, match):
    # A negative label used to wrap to the last class: for logits [0, 0, 5],
    # label -1 gave the loss of label 2.
    with pytest.raises(ValueError, match=match):
        cross_entropy_mean(np.array([[0.0, 0.0, 5.0]]), labels)


def test_cross_entropy_names_the_first_bad_label():
    with pytest.raises(ValueError, match="label 9 out of range for C=3"):
        cross_entropy_mean(np.zeros((4, 3)), [0, 9, -2, 1])


def test_cross_entropy_rejects_non_matrix_logits():
    with pytest.raises(ValueError, match="logits"):
        cross_entropy_mean(np.zeros(3), [0])


# -- the gate ----------------------------------------------------------------------


def gate_inputs(rng, b=6, m=4):
    return {"a": rng.uniform(0.05, 0.9, size=(b, m)), "norms": rng.uniform(0.2, 1.0, size=m)}


def gate_node(mode, kappa):
    def node(a, norms):
        beta, back = _gate_from_inners(a, norms, mode, kappa)
        return beta, lambda g: dict(zip(("a", "norms"), back(g)))

    return node


@pytest.mark.parametrize("mode", ["CS", "MMD", "PROJECTION"])
def test_gate_forward_is_bit_identical_to_the_chain(mode):
    rng = np.random.default_rng(2)
    kappa = None if mode == "PROJECTION" else 3.0
    inputs = gate_inputs(rng)
    out = gate_node(mode, kappa)(**inputs)[0]
    assert isinstance(out, np.ndarray)
    np.testing.assert_array_equal(out, gate_chain(inputs["a"], inputs["norms"], mode, kappa))


@pytest.mark.parametrize("mode", ["CS", "MMD", "PROJECTION"])
def test_gate_backward_matches_finite_differences(mode):
    rng = np.random.default_rng(3)
    kappa = None if mode == "PROJECTION" else 3.0
    node = gate_node(mode, kappa)
    chain = lambda a, norms: gate_chain(a, norms, mode, kappa)
    for wrt in ({"a"}, {"norms"}, {"a", "norms"}):
        inputs = gate_inputs(rng)
        err = backward_error(node, inputs, wrt)
        assert err < FD_TOL, (wrt, err)
        assert chain_gradient_error(node, chain, inputs, wrt) < CHAIN_TOL, wrt


# -- the ensemble ----------------------------------------------------------------------


def ensemble_inputs(rng, b=5, e=3, m=3, c=2):
    return {
        "X": rng.normal(size=(b, e)),
        "weights": rng.normal(size=(e, m, c)),
        "bias": rng.normal(size=(m, c)),
        "beta": rng.dirichlet(np.ones(m), size=b),
    }


def ensemble_node():
    layer = init_layer(3, 2, 3, 2, 0, "CS", KernelConfig(1.0), 2.0)

    def node(X, weights, bias, beta):
        y, back = _ensemble(X, replace(layer, weights=weights, bias=bias), beta=beta)
        return y, lambda g: dict(zip(("X", "weights", "bias", "beta"), back(g, True)))

    return node


def test_ensemble_forward_is_bit_identical_to_the_chain():
    rng = np.random.default_rng(7)
    inputs = ensemble_inputs(rng)
    np.testing.assert_array_equal(ensemble_node()(**inputs)[0], ensemble_chain(**inputs))


def test_ensemble_backward_matches_finite_differences():
    rng = np.random.default_rng(8)
    node = ensemble_node()
    for wrt in ({"X", "weights", "bias"}, {"X", "weights", "bias", "beta"}, {"beta"}):
        inputs = ensemble_inputs(rng)
        err = backward_error(node, inputs, wrt)
        assert err < FD_TOL, (wrt, err)
        assert chain_gradient_error(node, ensemble_chain, inputs, wrt) < CHAIN_TOL, wrt


# -- the extractor ---------------------------------------------------------------


def mlp_inputs(rng, sizes=(4, 6, 5, 3), b=7):
    inputs = {"X": rng.normal(size=(b, sizes[0]))}
    for i, (d_in, d_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        inputs[f"w{i}"] = rng.normal(scale=0.8, size=(d_in, d_out))
        inputs[f"b{i}"] = rng.normal(scale=0.5, size=d_out)
    return inputs


def mlp_params(params):
    n = len(params) // 2
    return [params[f"w{i}"] for i in range(n)], [params[f"b{i}"] for i in range(n)]


def mlp_node(nonlinearity):
    def node(X, **params):
        weights, biases = mlp_params(params)
        F, back = _extract(X, FeatureExtractor(weights, biases, nonlinearity))
        names = [f"{kind}{i}" for i in range(len(weights)) for kind in "wb"]
        return F, lambda g: dict(zip(names, back(g)))

    return node


def mlp_reference(nonlinearity):
    def chain(X, **params):
        return mlp_chain(X, *mlp_params(params), nonlinearity)

    return chain


@pytest.mark.parametrize("nonlinearity", ["relu", "tanh"])
def test_extractor_forward_is_bit_identical_to_the_chain(nonlinearity):
    rng = np.random.default_rng(30)
    for sizes in ((4, 3), (4, 6, 5, 3), (10, 32, 16)):
        inputs = mlp_inputs(rng, sizes)
        assert_forward_equals_chain(mlp_node(nonlinearity), mlp_reference(nonlinearity), inputs)


@pytest.mark.parametrize("nonlinearity", ["relu", "tanh"])
def test_extractor_backward_matches_finite_differences_and_the_chain(nonlinearity):
    rng = np.random.default_rng(31)
    node, chain = mlp_node(nonlinearity), mlp_reference(nonlinearity)
    inputs = mlp_inputs(rng)
    params = set(inputs) - {"X"}
    for wrt in (params, {"w1"}, {"b2"}):
        assert backward_error(node, inputs, wrt) < FD_TOL, wrt
        assert chain_gradient_error(node, chain, inputs, wrt) < CHAIN_TOL, wrt


def test_extractor_backward_is_bit_identical_to_the_chain():
    # The same products in the same order, so the gradients agree bit for bit.
    inputs = mlp_inputs(np.random.default_rng(32), (10, 32, 16))
    wrt = set(inputs) - {"X"}
    for nonlinearity in ("relu", "tanh"):
        node, chain = node_and_chain_gradients(
            mlp_node(nonlinearity), mlp_reference(nonlinearity), inputs, wrt
        )
        for name in wrt:
            np.testing.assert_array_equal(node[name], chain[name])


# -- the regularizers ----------------------------------------------------------------


def kernel_stats(seed, m=3, n=4, e=3, b=6):
    """Embedding inner products, basis Gram and a gate from a random layer."""
    rng = np.random.default_rng(seed)
    layer = init_layer(m, n, e, 2, seed, "CS", KernelConfig(1.3), 2.0)
    X = rng.normal(size=(b, e))
    a = _basis_inners(X, layer)[0]
    beta = rng.normal(size=(b, m))
    return {"a": a, "k_bases": basis_gram_matrix(layer), "beta": beta}


def ols_node(a, k_bases, beta):
    value, back = _ols(a, k_bases, beta)
    return value, lambda g: dict(zip(("a", "k_bases", "beta"), back(g)))


def test_ols_node_against_the_chain_and_finite_differences():
    inputs = kernel_stats(40)
    assert_forward_equals_chain(ols_node, ols_chain, inputs)
    assert isinstance(omega_ols(**inputs), float)
    assert omega_ols(**inputs) == ols_node(**inputs)[0]
    for wrt in ({"a"}, {"k_bases"}, {"beta"}, {"a", "k_bases", "beta"}):
        assert backward_error(ols_node, inputs, wrt) < FD_TOL, wrt
        assert chain_gradient_error(ols_node, ols_chain, inputs, wrt) < CHAIN_TOL


def test_ols_node_gradient_is_zero_where_the_clamp_fires():
    # 1 - 2 * 1 + (1 - 1e-12): a roundoff-sized negative error, clamped to 0.
    inputs = {"a": np.ones((2, 1)), "k_bases": np.array([[1.0 - 1e-12]]), "beta": np.ones((2, 1))}
    assert_forward_equals_chain(ols_node, ols_chain, inputs)
    assert omega_ols(**inputs) == 0.0
    wrt = set(inputs)
    node, chain = node_and_chain_gradients(ols_node, ols_chain, inputs, wrt)
    for name in wrt:
        np.testing.assert_array_equal(node[name], np.zeros_like(inputs[name]))
        np.testing.assert_array_equal(chain[name], node[name])
    inputs["k_bases"] = np.array([[1.0 - 1e-9]])
    with pytest.raises(ValueError, match="reconstruction error evaluated to"):
        omega_ols(**inputs)


def l1_node(beta):
    value, back = _l1(beta)
    return value, lambda g: {"beta": back(g)}


def test_l1_node_against_the_chain_and_finite_differences():
    beta = kernel_stats(41)["beta"]
    chain = lambda beta: l1_chain(beta)
    assert_forward_equals_chain(l1_node, chain, {"beta": beta})
    assert isinstance(omega_l1(beta), float)
    assert omega_l1(beta) == l1_node(beta)[0]
    assert backward_error(l1_node, {"beta": beta}, {"beta"}) < FD_TOL
    assert chain_gradient_error(l1_node, chain, {"beta": beta}, {"beta"}) < CHAIN_TOL


def orth_node(K):
    value, back = _orth(K)
    return value, lambda g: {"K": back(g)}


@pytest.mark.parametrize("m", [1, 2, 4])
def test_orth_node_against_the_chain(m):
    # eigh reads one triangle, so finite differences run over a symmetric
    # parameterization: see the test below.
    for seed in (42, 43):
        K = kernel_stats(seed, m=m)["k_bases"]
        assert_forward_equals_chain(orth_node, orth_chain, {"K": K})
        assert isinstance(omega_orth(K), float)
        assert omega_orth(K) == orth_node(K)[0]
        assert chain_gradient_error(orth_node, orth_chain, {"K": K}, {"K"}) < CHAIN_TOL


def symmetric_orth_node(S):
    """SRIP of ``S + v v^T`` as a function of v, so that one coordinate moves
    both triangles: the gradient of K goes to v as ``(G + G^T) v``."""

    def node(v):
        value, back = _orth(S + np.outer(v, v))
        return value, lambda g: {"v": (back(g) + back(g).T) @ v}

    return node


@pytest.mark.parametrize("dominant", ["positive", "negative"])
def test_srip_node_backward_through_a_symmetric_matrix(dominant):
    # eigh reads one triangle, so finite differences run over a symmetric
    # parameterization. Basis Gram matrices of far-apart bases have small
    # entries, and then the dominant eigenvalue of K - I is negative.
    rng = np.random.default_rng(44)
    scale = 1.5 if dominant == "positive" else 0.3
    S = np.diag(rng.uniform(0.1, 0.4, size=4))
    v = rng.normal(scale=scale, size=4)
    eigvals = np.linalg.eigvalsh(S + np.outer(v, v) - np.eye(4))
    assert (eigvals[np.argmax(np.abs(eigvals))] > 0) == (dominant == "positive")
    assert backward_error(symmetric_orth_node(S), {"v": v}, {"v"}) < FD_TOL
    K = S + np.outer(v, v)
    assert chain_gradient_error(orth_node, orth_chain, {"K": K}, {"K"}) < CHAIN_TOL
