"""The fused tape nodes against the op chains they replaced.

The extractor, cross-entropy, the gate, the ensemble and each regularizer
(OLS, L1 and ORTH) are each one tape node. On arrays
each must equal its chain in ``oracles.py`` bit for bit, a tensor operand
must not change the forward value, and each backward must agree with
central finite differences and, where the chain is differentiable, with
the chain's gradient.
"""

from dataclasses import replace

import numpy as np
import pytest

from gdu import autodiff as ad
from gdu.kernel import KernelConfig
from gdu.layer import _basis_inners, _gate_from_inners, basis_gram_matrix, forward_batch, init_layer
from gdu.regularization import omega_l1, omega_ols, omega_orth
from gdu.training import FeatureExtractor, cross_entropy_mean, fe_forward

from oracles import (
    add,
    cross_entropy_chain,
    ensemble_chain,
    fd_gradient,
    gate_chain,
    l1_chain,
    matmul,
    max_relative_error,
    mlp_chain,
    ols_chain,
    orth_chain,
    reshape,
    mul,
    summation,
)

FD_STEP = 1e-5
FD_TOL = 1e-4
CHAIN_TOL = 1e-12


def backward_error(node, inputs, wrt, one_node=True, seed=0):
    """Worst relative error of ``node``'s backward against central FD.

    ``node(**inputs)`` is contracted with a fixed random array to a scalar;
    the names in ``wrt`` become tensors, the other inputs stay constants.
    With ``one_node`` the output's tape parents must be exactly those tensors.
    """
    weights = np.random.default_rng(seed).normal(size=np.shape(node(**inputs)))
    tensors = {k: ad.tensor(v) if k in wrt else v for k, v in inputs.items()}
    out = node(**tensors)
    if one_node:
        assert {id(t) for t in out._parents} == {id(tensors[k]) for k in wrt}
    summation(mul(out, weights)).backward()
    analytic = {k: tensors[k].grad for k in wrt}
    numeric = fd_gradient(
        lambda: float(np.sum(node(**inputs) * weights)), {k: inputs[k] for k in wrt}, FD_STEP
    )
    return max_relative_error(analytic, numeric)


def node_and_chain_gradients(node, chain, inputs, wrt, seed=0):
    """The gradients of ``node`` and of ``chain`` for the same contraction."""
    weights = np.random.default_rng(seed).normal(size=np.shape(node(**inputs)))
    grads = []
    for fn in (node, chain):
        tensors = {k: ad.tensor(v) if k in wrt else v for k, v in inputs.items()}
        summation(mul(fn(**tensors), weights)).backward()
        grads.append({k: tensors[k].grad for k in wrt})
    return grads


def chain_gradient_error(node, chain, inputs, wrt):
    """Worst relative disagreement between the node's and the chain's gradients."""
    return max_relative_error(*node_and_chain_gradients(node, chain, inputs, wrt))


def assert_forward_equals_chain(node, chain, inputs):
    """Arrays in: the node's value is the chain's bit for bit, also via tensors."""
    expected = chain(**inputs)
    got = node(**inputs)
    assert not ad.is_tensor(got)
    np.testing.assert_array_equal(got, expected)
    assert_tensor_forward_equal(node, inputs)


def assert_tensor_forward_equal(node, inputs):
    """The value through tensors equals the array result bit for bit."""
    expected = node(**inputs)
    got = node(**{k: ad.tensor(v) for k, v in inputs.items()})
    np.testing.assert_array_equal(ad.value_of(got), expected)


# -- cross-entropy ---------------------------------------------------------------


def test_cross_entropy_forward_is_bit_identical_to_the_chain():
    rng = np.random.default_rng(0)
    for scale in (1.0, 30.0, 1e3):
        logits = rng.normal(scale=scale, size=(9, 4))
        labels = rng.integers(0, 4, size=9)
        got = cross_entropy_mean(logits, labels)
        assert got == cross_entropy_chain(logits, labels)
        assert_tensor_forward_equal(lambda logits: cross_entropy_mean(logits, labels),
                                    {"logits": logits})


def test_cross_entropy_backward_matches_finite_differences():
    rng = np.random.default_rng(1)
    for b, c in ((1, 2), (7, 3), (12, 5)):
        labels = rng.integers(0, c, size=b)
        inputs = {"logits": rng.normal(scale=2.0, size=(b, c))}
        err = backward_error(lambda logits: cross_entropy_mean(logits, labels), inputs, {"logits"})
        assert err < FD_TOL, (b, c, err)


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
    logits = np.array([[0.0, 0.0, 5.0]])
    for x in (logits, ad.tensor(logits)):
        with pytest.raises(ValueError, match=match):
            cross_entropy_mean(x, labels)


def test_cross_entropy_names_the_first_bad_label():
    with pytest.raises(ValueError, match="label 9 out of range for C=3"):
        cross_entropy_mean(np.zeros((4, 3)), [0, 9, -2, 1])


def test_cross_entropy_rejects_non_matrix_logits():
    with pytest.raises(ValueError, match="logits"):
        cross_entropy_mean(np.zeros(3), [0])


# -- the gate ----------------------------------------------------------------------


def gate_inputs(rng, b=6, m=4):
    return {"a": rng.uniform(0.05, 0.9, size=(b, m)), "norms": rng.uniform(0.2, 1.0, size=m)}


@pytest.mark.parametrize("mode", ["CS", "MMD", "PROJECTION"])
def test_gate_forward_is_bit_identical_to_the_chain(mode):
    rng = np.random.default_rng(2)
    kappa = None if mode == "PROJECTION" else 3.0
    inputs = gate_inputs(rng)
    node = lambda **kw: _gate_from_inners(mode=mode, kappa=kappa, **kw)
    out = node(**inputs)
    assert isinstance(out, np.ndarray)
    np.testing.assert_array_equal(out, gate_chain(inputs["a"], inputs["norms"], mode, kappa))
    assert_tensor_forward_equal(node, inputs)


@pytest.mark.parametrize("mode", ["CS", "MMD", "PROJECTION"])
def test_gate_backward_matches_finite_differences(mode):
    rng = np.random.default_rng(3)
    kappa = None if mode == "PROJECTION" else 3.0
    node = lambda **kw: _gate_from_inners(mode=mode, kappa=kappa, **kw)
    for wrt in ({"a"}, {"norms"}, {"a", "norms"}):
        err = backward_error(node, gate_inputs(rng), wrt)
        assert err < FD_TOL, (wrt, err)


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
        return forward_batch(X, replace(layer, weights=weights, bias=bias), beta=beta)

    return node


def test_ensemble_forward_is_bit_identical_to_the_chain():
    rng = np.random.default_rng(7)
    inputs = ensemble_inputs(rng)
    node = ensemble_node()
    np.testing.assert_array_equal(node(**inputs), ensemble_chain(**inputs))
    assert_tensor_forward_equal(node, inputs)


def test_ensemble_backward_matches_finite_differences():
    rng = np.random.default_rng(8)
    node = ensemble_node()
    for wrt in ({"X", "weights", "bias"}, {"X", "weights", "bias", "beta"}, {"beta"}):
        err = backward_error(node, ensemble_inputs(rng), wrt)
        assert err < FD_TOL, (wrt, err)


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
        return fe_forward(X, FeatureExtractor(weights, biases, nonlinearity))

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
    for wrt in (params, params | {"X"}, {"w1"}, {"b2"}):
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


def test_ols_node_against_the_chain_and_finite_differences():
    inputs = kernel_stats(40)
    assert_forward_equals_chain(omega_ols, ols_chain, inputs)
    assert isinstance(omega_ols(**inputs), float)
    for wrt in ({"a"}, {"k_bases"}, {"beta"}, {"a", "k_bases", "beta"}):
        assert backward_error(omega_ols, inputs, wrt) < FD_TOL, wrt
        assert chain_gradient_error(omega_ols, ols_chain, inputs, wrt) < CHAIN_TOL


def test_ols_node_gradient_is_zero_where_the_clamp_fires():
    # 1 - 2 * 1 + (1 - 1e-12): a roundoff-sized negative error, clamped to 0.
    inputs = {"a": np.ones((2, 1)), "k_bases": np.array([[1.0 - 1e-12]]), "beta": np.ones((2, 1))}
    assert_forward_equals_chain(omega_ols, ols_chain, inputs)
    assert omega_ols(**inputs) == 0.0
    wrt = set(inputs)
    node, chain = node_and_chain_gradients(omega_ols, ols_chain, inputs, wrt)
    for name in wrt:
        np.testing.assert_array_equal(node[name], np.zeros_like(inputs[name]))
        np.testing.assert_array_equal(chain[name], node[name])
    inputs["k_bases"] = np.array([[1.0 - 1e-9]])
    with pytest.raises(ValueError, match="reconstruction error evaluated to"):
        omega_ols(**{k: ad.tensor(v) for k, v in inputs.items()})


def test_l1_node_against_the_chain_and_finite_differences():
    beta = kernel_stats(41)["beta"]
    node = lambda beta: omega_l1(beta)
    chain = lambda beta: l1_chain(beta)
    assert_forward_equals_chain(node, chain, {"beta": beta})
    assert isinstance(omega_l1(beta), float)
    assert backward_error(node, {"beta": beta}, {"beta"}) < FD_TOL
    assert chain_gradient_error(node, chain, {"beta": beta}, {"beta"}) < CHAIN_TOL


@pytest.mark.parametrize("m", [1, 2, 4])
def test_orth_node_against_the_chain(m):
    # eigh reads one triangle, so finite differences run over a symmetric
    # parameterization: see the test below.
    for seed in (42, 43):
        K = kernel_stats(seed, m=m)["k_bases"]
        assert_forward_equals_chain(omega_orth, orth_chain, {"K": K})
        assert isinstance(omega_orth(K), float)
        assert chain_gradient_error(omega_orth, orth_chain, {"K": K}, {"K"}) < CHAIN_TOL


def symmetric_from(S, v):
    """``S + v v^T`` as a tape chain, so that one coordinate moves both triangles."""
    m = len(S)
    return add(S, matmul(reshape(v, (m, 1)), reshape(v, (1, m))))


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
    node = lambda v: omega_orth(symmetric_from(S, v))
    assert backward_error(node, {"v": v}, {"v"}, one_node=False) < FD_TOL
    K = S + np.outer(v, v)
    assert chain_gradient_error(omega_orth, orth_chain, {"K": K}, {"K"}) < CHAIN_TOL
