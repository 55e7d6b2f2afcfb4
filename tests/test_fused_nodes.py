"""The fused tape nodes against the op chains they replaced.

Cross-entropy, the gate and the ensemble are each one tape node. On arrays
each must equal its chain in ``oracles.py`` bit for bit, a tensor operand
must not change the forward value, and each backward must agree with
central finite differences.
"""

from dataclasses import replace

import numpy as np
import pytest

from gdu import autodiff as ad
from gdu.kernel import KernelConfig
from gdu.layer import _gate_from_inners, forward_batch, init_layer
from gdu.training import cross_entropy_mean

from oracles import (
    cross_entropy_chain,
    ensemble_chain,
    fd_gradient,
    gate_chain,
    max_relative_error,
)

FD_STEP = 1e-5
FD_TOL = 1e-4


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
    ad.summation(out * weights).backward()
    analytic = {k: tensors[k].grad for k in wrt}
    numeric = fd_gradient(
        lambda: float(np.sum(node(**inputs) * weights)), {k: inputs[k] for k in wrt}, FD_STEP
    )
    return max_relative_error(analytic, numeric)


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


def ensemble_node(activation):
    layer = init_layer(3, 2, 3, 2, 0, "CS", KernelConfig(1.0), 2.0, activation)

    def node(X, weights, bias, beta):
        return forward_batch(X, replace(layer, weights=weights, bias=bias), beta=beta)

    return node


@pytest.mark.parametrize("activation", ["identity", "tanh"])
def test_ensemble_forward_is_bit_identical_to_the_chain(activation):
    rng = np.random.default_rng(7)
    inputs = ensemble_inputs(rng)
    node = ensemble_node(activation)
    np.testing.assert_array_equal(node(**inputs), ensemble_chain(**inputs, activation=activation))
    assert_tensor_forward_equal(node, inputs)


@pytest.mark.parametrize("activation", ["identity", "tanh"])
def test_ensemble_backward_matches_finite_differences(activation):
    rng = np.random.default_rng(8)
    node = ensemble_node(activation)
    for wrt in ({"X", "weights", "bias"}, {"X", "weights", "bias", "beta"}, {"beta"}):
        err = backward_error(node, ensemble_inputs(rng), wrt)
        assert err < FD_TOL, (wrt, err)
