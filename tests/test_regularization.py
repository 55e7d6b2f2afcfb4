"""Regularizer values against hand expansions and brute-force oracles."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from gdu.autodiff import tensor
from gdu.kernel import KernelConfig
from gdu.layer import GduLayer, _basis_inners, basis_gram_matrix, gate_matrix
from gdu.regularization import (
    RegConfig,
    omega_l1,
    omega_ols,
    omega_orth,
)
from gdu.training import GduModel, cross_entropy_mean, objective, predict_logits

from helpers import build_small_gdu, layer_ols
from oracles import omega_ols_brute, srip_power_iteration

CFG = KernelConfig(sigma=1.0)


def layer_from_bases(bases, mode="PROJECTION", kappa=None, cfg=CFG):
    bases = np.asarray(bases, dtype=float)
    m, _, e = bases.shape
    rng = np.random.default_rng(0)
    weights = np.stack([rng.normal(size=(e, 2)) for _ in range(m)], axis=1)
    return GduLayer(bases, weights, np.zeros((m, 2)), cfg, mode, kappa)


def random_layer(rng, m, n, e, mode="MMD", kappa=2.0):
    return layer_from_bases(
        [rng.normal(size=(n, e)) for _ in range(m)], mode=mode, kappa=kappa
    )


# -- omega_ols ---------------------------------------------------------------


def test_ols_zero_beta_gives_unit_self_terms():
    rng = np.random.default_rng(1)
    layer = random_layer(rng, m=2, n=3, e=2)
    X = rng.normal(size=(4, 2))
    beta = np.zeros((4, 2))
    assert layer_ols(X, beta, layer) == pytest.approx(1.0, abs=1e-15)


def test_ols_exact_reconstruction_is_zero():
    layer = layer_from_bases([[[0.4, -0.7]]])
    X = np.array([[0.4, -0.7]])
    assert layer_ols(X, np.array([[1.0]]), layer) == pytest.approx(0.0, abs=1e-12)


def test_ols_single_distant_basis_equals_mmd():
    # x=0, V={2}, beta=1: reconstruction error is ||phi(0) - phi(2)||^2.
    layer = layer_from_bases([[[2.0]]])
    val = layer_ols(np.array([[0.0]]), np.array([[1.0]]), layer)
    assert val == pytest.approx(2.0 - 2.0 * math.exp(-2.0), abs=1e-14)


def test_ols_matches_brute_force_expansion():
    rng = np.random.default_rng(2)
    for _ in range(25):
        b = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        e = int(rng.integers(1, 4))
        layer = random_layer(rng, m=m, n=n, e=e)
        X = rng.normal(size=(b, e))
        beta = rng.normal(size=(b, m))
        expected = omega_ols_brute(
            X, beta, list(layer.bases), CFG.sigma
        )
        assert layer_ols(X, beta, layer) == pytest.approx(expected, abs=1e-10)


def _ols_stats():
    """Inner products of 4 rows against 2 bases, and the bases' Gram."""
    rng = np.random.default_rng(3)
    layer = random_layer(rng, m=2, n=3, e=2)
    return _basis_inners(rng.normal(size=(4, 2)), layer)[0], basis_gram_matrix(layer)


@pytest.mark.parametrize("beta_shape", [(3, 2), (4, 3), (4, 1), (8,), (4, 2, 1)], ids=str)
def test_ols_beta_that_does_not_match_the_inner_products_is_named(beta_shape):
    a, k_bases = _ols_stats()
    shape = re.escape(str(beta_shape))
    with pytest.raises(ValueError, match=rf"^beta shape {shape} does not match the inner products' \(4, 2\)$"):
        omega_ols(a, k_bases, np.zeros(beta_shape))


def test_ols_inner_products_that_do_not_match_beta_are_named():
    a, k_bases = _ols_stats()
    with pytest.raises(ValueError, match=r"^beta shape \(4, 2\) does not match the inner products' \(4, 3\)$"):
        omega_ols(np.zeros((4, 3)), k_bases, np.zeros((4, 2)))


@pytest.mark.parametrize("k_shape", [(3, 3), (2, 3), (2,), (4,)], ids=str)
def test_ols_basis_gram_that_does_not_match_the_bases_is_named(k_shape):
    a, _ = _ols_stats()
    shape = re.escape(str(k_shape))
    with pytest.raises(ValueError, match=rf"^basis Gram shape {shape} does not match 2 bases$"):
        omega_ols(a, np.zeros(k_shape), np.zeros((4, 2)))


# -- basis_gram_matrix --------------------------------------------------------


def test_gram_bases_identical_bases_all_equal():
    basis = [[0.1, 0.2], [0.3, -0.5]]
    layer = layer_from_bases([basis, basis, basis])
    k = np.asarray(basis_gram_matrix(layer))
    assert np.allclose(k, k[0, 0])


def test_gram_bases_symmetric():
    rng = np.random.default_rng(4)
    layer = random_layer(rng, m=4, n=3, e=2)
    k = np.asarray(basis_gram_matrix(layer))
    np.testing.assert_allclose(k, k.T, atol=1e-15)


def test_gram_bases_two_singleton_bases():
    layer = layer_from_bases([[[0.0]], [[2.0]]])
    k = np.asarray(basis_gram_matrix(layer))
    e2 = math.exp(-2.0)
    np.testing.assert_allclose(k, [[1.0, e2], [e2, 1.0]], atol=1e-15)


# -- omega_orth ---------------------------------------------------------------


def test_orth_zero_at_identity():
    assert omega_orth(np.eye(3)) == pytest.approx(0.0, abs=1e-15)


def test_orth_srip_hand_value():
    k = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert omega_orth(k) == pytest.approx(0.5, abs=1e-12)


_SRIP_HAND_VALUES = {
    # K - I has eigenvalues -0.5 and 0.5: the sign of the coupling is lost.
    "negative-coupling": ([[1.0, -0.5], [-0.5, 1.0]], 0.5),
    # The dominant eigenvalue of K - I is negative: -0.8 against 0.5.
    "negative-dominant": ([[1.5, 0.0], [0.0, 0.2]], 0.8),
    # One basis: |K - 1|, with no off-diagonal entry to read.
    "one-basis": ([[0.3]], 0.7),
    # Three identical bases: K - I = J - I has eigenvalues 2, -1, -1.
    "identical-bases": ([[1.0] * 3] * 3, 2.0),
    # A dominant eigenvalue of multiplicity three.
    "scaled-identity": (2.0 * np.eye(3), 1.0),
    # K has eigenvalues 0.9 and 0.1, so K - I has -0.1 and -0.9.
    "two-below-one": ([[0.5, 0.4], [0.4, 0.5]], 0.9),
    # One basis of unit RKHS norm is already orthonormal.
    "one-unit-basis": ([[1.0]], 0.0),
}


@pytest.mark.parametrize("case", sorted(_SRIP_HAND_VALUES))
def test_orth_is_the_largest_eigenvalue_magnitude_of_k_minus_identity(case):
    k, expected = _SRIP_HAND_VALUES[case]
    assert omega_orth(np.array(k, dtype=float)) == pytest.approx(expected, abs=1e-12)


def test_srip_power_iteration_matches_dense_eig():
    # The power-iteration oracle agrees with a dense eigensolver, and so does
    # omega_orth's exact SRIP on the same 180 random basis Gram matrices.
    rng = np.random.default_rng(6)
    for m in range(2, 11):
        for _ in range(20):
            layer = random_layer(rng, m=m, n=3, e=2)
            k = np.asarray(basis_gram_matrix(layer))
            a = k - np.eye(m)
            dense = float(np.max(np.abs(np.linalg.eigvalsh(a))))
            oracle = srip_power_iteration(a)
            assert oracle == pytest.approx(dense, abs=1e-8)
            assert omega_orth(k) == pytest.approx(oracle, abs=1e-8)


def test_srip_sign_symmetric_spectrum():
    # K - I with eigenvalues +0.5 and -0.5; the norm estimate is exact
    # even though the power iterate never settles.
    a = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert srip_power_iteration(a) == pytest.approx(0.5, abs=1e-12)
    assert omega_orth(a + np.eye(2)) == pytest.approx(0.5, abs=1e-12)


def test_orth_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        omega_orth(np.zeros((2, 3)))


def test_orth_names_an_empty_gram_matrix():
    # Without bases there is no dominant eigenvalue to take.
    for K in (np.zeros((0, 0)), tensor(np.zeros((0, 0)))):
        with pytest.raises(ValueError, match=r"omega_orth needs at least one basis, got a \(0, 0\)"):
            omega_orth(K)


# -- omega_l1 ------------------------------------------------------------------


def test_l1_geometry_rows_are_exactly_one():
    # Simplex rows make the L1 term constant: sum of absolute values is 1.
    rng = np.random.default_rng(7)
    layer = random_layer(rng, m=3, n=4, e=2, mode="CS", kappa=2.0)
    beta = gate_matrix(rng.normal(size=(20, 2)), layer)
    assert omega_l1(beta) == pytest.approx(1.0, abs=1e-12)


def test_l1_zero_and_signed_rows():
    assert omega_l1(np.zeros((3, 2))) == 0.0
    assert omega_l1(np.array([[0.5, -0.25]])) == pytest.approx(0.75, abs=1e-15)


def test_l1_beta_that_is_not_2d_is_named():
    # A flat row would read as three one-gate rows, a mean of 1/3, not 1.0.
    row = [0.2, -0.3, 0.5]
    assert omega_l1(np.array([row])) == pytest.approx(1.0, abs=1e-15)
    for beta in (np.array(row), np.array(0.2), np.array([[row]])):
        shape = re.escape(str(beta.shape))
        with pytest.raises(ValueError, match=rf"^expected \(b, M\) gates, got beta of shape {shape}$"):
            omega_l1(beta)


# -- the weighted terms of the objective ----------------------------------------


def _cross_entropy(layer, X, y):
    """The objective of ``GduModel(None, layer)`` with no regularizer."""
    return cross_entropy_mean(predict_logits(GduModel(None, layer), X), y)


def test_total_zero_when_all_lambdas_zero():
    rng = np.random.default_rng(8)
    layer = random_layer(rng, m=2, n=3, e=2)
    X, y = rng.normal(size=(4, 2)), rng.integers(0, 2, size=4)
    got = objective((X, y), GduModel(None, layer), RegConfig())
    assert got == _cross_entropy(layer, X, y)


def test_total_geometry_uses_l1_not_orth():
    # A weight outside the mode's row raises instead of being dropped.
    rng = np.random.default_rng(9)
    layer = random_layer(rng, m=3, n=3, e=2, mode="MMD", kappa=2.0)
    X, y = rng.normal(size=(5, 2)), rng.integers(0, 2, size=5)
    model = GduModel(None, layer)
    cfg = RegConfig(lambda_ols=0.0, lambda_l1=1.0, lambda_orth=123.0)
    with pytest.raises(ValueError, match="a MMD layer takes .*; got lambda_orth=123.0$"):
        objective((X, y), model, cfg)
    expected = _cross_entropy(layer, X, y) + float(omega_l1(gate_matrix(X, layer)))
    assert objective((X, y), model, replace(cfg, lambda_orth=0.0)) == pytest.approx(
        expected, abs=1e-12
    )


@pytest.mark.parametrize(
    "mode, weight", [("CS", "lambda_orth"), ("MMD", "lambda_orth"), ("PROJECTION", "lambda_l1")]
)
def test_weights_outside_the_mode_table_raise(mode, weight):
    # The weight used to be dropped silently: the objective did not change.
    model, X, y = build_small_gdu(0, mode)
    with pytest.raises(ValueError, match=f"a {mode} layer takes .*; got {weight}=5.0$"):
        objective((X, y), model, RegConfig(**{weight: 5.0}))


def test_total_projection_combines_ols_and_srip():
    layer = layer_from_bases([[[0.0]], [[2.0]]], mode="PROJECTION")
    X, y = np.array([[0.0]]), np.array([1])
    beta = gate_matrix(X, layer)
    cfg = RegConfig(lambda_ols=1e-3, lambda_orth=1e-3)
    expected = (
        _cross_entropy(layer, X, y)
        + 1e-3 * float(layer_ols(X, beta, layer))
        + 1e-3 * float(omega_orth(np.asarray(basis_gram_matrix(layer))))
    )
    got = objective((X, y), GduModel(None, layer), cfg)
    assert got == pytest.approx(expected, abs=1e-15)


def test_regconfig_validation():
    with pytest.raises(ValueError):
        RegConfig(lambda_ols=-1.0)
