"""Gaussian kernel, Gram matrix, and median heuristic tests."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gdu import autodiff as ad
from gdu.datagen import make_benchmark, materialize
from gdu.kernel import (
    DegenerateDataError,
    DimensionMismatchError,
    _PAIR_BLOCK_ROWS,
    KernelConfig,
    _gaussian_exponent,
    _kernel_statistics,
    _upper_squared_distances,
    gram,
    median_heuristic,
    squared_distances,
)
from gdu.layer import basis_gram_matrix, init_layer
from gdu.training import fe_forward, init_feature_extractor

from helpers import traced_peak_bytes
from oracles import (
    add,
    block_means_node,
    diagonal_block_means_node,
    fd_gradient,
    kernel_value,
    max_relative_error,
    mean,
    mul,
    row_block_pairs,
    summation,
)

CFG = KernelConfig(sigma=1.0)


def test_config_rejects_bad_sigma():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            KernelConfig(sigma=bad)


# Each used to be accepted: 1e-200 made the first Gram divide by zero,
# 1e200 overflowed in sigma**2, and 1e-160 gave NaN gates.
@pytest.mark.parametrize("bad", [1e-200, 1e200, 1e-160, np.float64(1e200)])
def test_config_rejects_a_sigma_whose_square_or_reciprocal_is_not_finite(bad):
    message = f"sigma={bad} puts sigma^2 or 1/sigma^2 outside the finite positive floats"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        KernelConfig(bad)
    # Just inside the range on both sides.
    for sigma in (1e-154, 1e154):
        assert KernelConfig(sigma).sigma == sigma


def k(x, y, cfg=CFG) -> float:
    """``k(x, y)`` for two vectors: the gram of two one-row inputs."""
    G = gram(np.reshape(x, (1, -1)), np.reshape(y, (1, -1)), cfg)
    assert G.shape == (1, 1)
    return float(G[0, 0])


def test_kernel_identity_is_one():
    rng = np.random.default_rng(0)
    for sigma in (0.3, 1.0, 7.5):
        x = rng.normal(size=5)
        assert k(x, x, KernelConfig(sigma)) == pytest.approx(1.0, abs=1e-15)


def test_kernel_at_two_sigma_squared_distance():
    # ||x - y||^2 = 2 sigma^2 forces exp(-1).
    sigma = 1.7
    x = np.zeros(1)
    y = np.array([math.sqrt(2.0) * sigma])
    assert k(x, y, KernelConfig(sigma)) == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_kernel_symmetry_and_range():
    # The augmented matmul rounds x.(2c y) and y.(2c x) differently, so
    # k(x, y) and k(y, x) agree up to rounding only.
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, y = rng.normal(size=4), rng.normal(size=4)
        kxy = k(x, y)
        assert kxy == pytest.approx(k(y, x), rel=1e-14, abs=1e-16)
        assert 0.0 < kxy <= 1.0


def test_kernel_dimension_mismatch():
    with pytest.raises(DimensionMismatchError, match="3.*2|2.*3"):
        k(np.zeros(3), np.zeros(2))


def test_gram_matches_pairwise_kernel():
    rng = np.random.default_rng(2)
    X, Y = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
    G = gram(X, Y, CFG)
    for i in range(4):
        for j in range(5):
            assert G[i, j] == pytest.approx(kernel_value(X[i], Y[j], CFG.sigma), abs=1e-14)


def test_gram_unit_diagonal_and_transpose_symmetry():
    rng = np.random.default_rng(3)
    X, Y = rng.normal(size=(6, 2)), rng.normal(size=(4, 2))
    np.testing.assert_allclose(np.diag(gram(X, X, CFG)), 1.0)
    np.testing.assert_allclose(gram(X, Y, CFG), gram(Y, X, CFG).T)


def test_gram_two_point_closed_form():
    # Rows (0) and (1), sigma = 1.
    G = gram(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]), CFG)
    e = math.exp(-0.5)
    np.testing.assert_allclose(G, np.array([[1.0, e], [e, 1.0]]), atol=1e-15)


def test_gram_positive_semidefinite_up_to_n50():
    rng = np.random.default_rng(4)
    for n in (5, 20, 50):
        X = rng.normal(size=(n, 3))
        eigvals = np.linalg.eigvalsh(gram(X, X, CFG))
        assert eigvals.min() >= -1e-10


def test_gram_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        gram(np.zeros((2, 3)), np.zeros((2, 4)), CFG)


@pytest.mark.parametrize("X, Y, largest", [
    (np.full((2, 1), 2.0), np.zeros((1, 1)), "4"),  # c ||x||^2
    (np.zeros((1, 1)), np.full((1, 1), 2.0), "4"),  # c ||y||^2 and 2c y
    (np.zeros((1, 1)), np.full((1, 1), 1.85), "3.423"),  # 2c y alone: c ||y||^2 is 1.7e308
    (np.full((1, 1), 1e155), np.zeros((1, 1)), "inf"),  # ||x||^2 itself
], ids=["x", "y", "2cy", "xx"])
@pytest.mark.parametrize("action", ["error", "ignore"])
def test_gram_names_a_sigma_whose_exponent_overflows_on_finite_rows(X, Y, largest, action):
    # With c = 1 / (2 sigma^2) = 5e307 every term of the augmented matmul
    # can overflow: numpy warned, and with warnings ignored the Gram held 0 or NaN.
    cfg = KernelConfig(1e-154)
    message = ("the Gaussian kernel's exponent overflows at sigma=1e-154 on rows with "
               f"squared norms up to {largest}")
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gram(X, Y, cfg)
        # A NaN row overflows nothing: it gives a NaN row, as at any sigma,
        # and a diverging fit goes on to its own error.
        G = gram(np.array([[np.nan], [0.0]]), np.zeros((1, 1)), cfg)
        assert np.isnan(G[0, 0]) and G[1, 0] == 1.0


def test_array_only_kernel_functions_refuse_a_tape_tensor():
    # Only the kernel statistics node builds tape nodes; a tensor elsewhere
    # is named, not read as a 0-d object array.
    rng = np.random.default_rng(13)
    x, Y = ad.tensor(rng.normal(size=(3, 2))), rng.normal(size=(4, 2))
    layer = init_layer(2, 3, 2, 2, 0, "CS", CFG, 2.0)
    calls = {
        "gram": lambda: gram(x, Y, CFG),
        "gram on the right": lambda: gram(Y, x, CFG),
        "basis_gram_matrix": lambda: basis_gram_matrix(
            replace(layer, bases=ad.tensor(layer.bases))
        ),
    }
    for call in calls.values():
        with pytest.raises(TypeError, match="not tape tensors.*_kernel_statistics"):
            call()
    assert isinstance(gram(x.data, Y, CFG), np.ndarray)


def test_basis_gram_matrix_is_bit_identical_to_mean_chain():
    rng = np.random.default_rng(23)
    for n in (1, 2, 5):
        layer = init_layer(3, n, 4, 2, 0, "CS", CFG, 2.0)
        layer.bases[...] = rng.normal(size=layer.bases.shape)
        V = layer.bases.reshape(-1, 4)
        blocks = gram(V, V, CFG).reshape(3, n, 3, n)
        got = basis_gram_matrix(layer)
        assert isinstance(got, np.ndarray)
        np.testing.assert_array_equal(got, mean(mean(blocks, axis=3), axis=1))


def _weighted(parts, weights):
    """``sum_k sum(parts[k] * weights[k])`` over the statistics that are not None."""
    terms = [summation(mul(p, w)) for p, w in zip(parts, weights) if p is not None]
    total = terms[0]
    for term in terms[1:]:
        total = add(total, term)
    return total


def _check_kernel_statistics(arrays, n, gram, sigma=1.1):
    """Central FD of a weighted sum of the node's outputs, X constant and X a tensor.

    Checks the node's shape on the tape and, for the gram route, that a
    second backward raises.
    """
    cfg = KernelConfig(sigma)
    stats = _kernel_statistics(arrays["X"], arrays["V"], cfg, n, gram)
    assert (stats[2] is None) != gram
    rng = np.random.default_rng(98)
    weights = [None if s is None else rng.normal(size=s.shape) for s in stats]
    numeric = fd_gradient(
        lambda: float(_weighted(_kernel_statistics(arrays["X"], arrays["V"], cfg, n, gram), weights)),
        arrays,
    )
    for constant in ("X", None):  # FT, then E2E
        ts = {k: v if k == constant else ad.tensor(v) for k, v in arrays.items()}
        parts = _kernel_statistics(ts["X"], ts["V"], cfg, n, gram)
        node = parts[0]._parents[0]
        assert all(p._parents == (node,) for p in parts if p is not None)
        assert node._parents == tuple(t for t in ts.values() if ad.is_tensor(t))
        _weighted(parts, weights).backward()
        analytic = {k: t.grad for k, t in ts.items() if ad.is_tensor(t)}
        assert max_relative_error(analytic, {k: numeric[k] for k in analytic}) < 5e-6, constant
        if gram:
            # The backward overwrites the Gram it reads, so it runs once.
            with pytest.raises(RuntimeError, match="backpropagated only once"):
                node._backward(node.grad)


@pytest.mark.parametrize("gram", [False, True])
@pytest.mark.parametrize("m, n", [(3, 4), (1, 4), (3, 1)])
def test_kernel_statistics_match_finite_differences(m, n, gram):
    rng = np.random.default_rng(26)
    arrays = {"X": rng.normal(size=(5, 3)), "V": rng.normal(size=(m, n, 3))}
    _check_kernel_statistics(arrays, n, gram)


@pytest.mark.parametrize("gram", [False, True])
def test_kernel_statistics_gradient_where_the_distance_clamp_fires(gram):
    rng = np.random.default_rng(5)
    V = rng.normal(size=(2, 3, 3)) + 1
    V[1, 2] = V[0, 0]
    X = np.concatenate((V[0, :2], rng.normal(size=(2, 3))))
    # The clamp fires on both routes: in the batch's Gram, in a diagonal
    # block and in the one Gram of the stacked rows [X; V].
    rows = V.reshape(-1, 3)
    assert np.any(_gaussian_exponent(X, rows, 1.3) > 0.0)
    assert np.any(_gaussian_exponent(V[0], V[0], 1.3) > 0.0)
    assert np.any(_gaussian_exponent(np.concatenate((X, rows)), rows, 1.3)[4:] > 0.0)
    _check_kernel_statistics({"X": X, "V": V}, 3, gram, sigma=1.3)


@pytest.mark.parametrize("gram", [False, True])
@pytest.mark.parametrize("m, n", [(3, 4), (1, 4), (3, 1)])
def test_kernel_statistics_forward_is_bit_identical_on_arrays_and_tensors(m, n, gram):
    rng = np.random.default_rng(27)
    X, V = rng.normal(size=(5, 3)), rng.normal(size=(m, n, 3))
    cfg = KernelConfig(1.1)
    arrays = _kernel_statistics(X, V, cfg, n, gram)
    assert all(isinstance(s, np.ndarray) for s in arrays if s is not None)
    for x in (X, ad.tensor(X)):
        parts = _kernel_statistics(x, ad.tensor(V), cfg, n, gram)
        for got, want in zip(parts, arrays):
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got.data, want)
    # The parent's separate nodes: the same arithmetic without the basis
    # Gram, and within the rounding of one matmul against three with it.
    separate = (block_means_node(X, V, cfg, 1, n), diagonal_block_means_node(V, cfg, n))
    for got, want in zip(arrays, separate):
        if gram:
            np.testing.assert_allclose(got, want, rtol=1e-14)
        else:
            np.testing.assert_array_equal(got, want)
    if gram:
        np.testing.assert_allclose(arrays[2], block_means_node(V, V, cfg, n, n), rtol=1e-14)


@pytest.mark.parametrize("gram", [False, True])
def test_kernel_statistics_values_are_not_the_arrays_the_backward_reads(gram):
    rng = np.random.default_rng(14)
    X, V = rng.normal(size=(3, 2)), rng.normal(size=(2, 2, 2))

    def grads(overwrite_values):
        x, v = ad.tensor(X), ad.tensor(V)
        parts = [p for p in _kernel_statistics(x, v, CFG, 2, gram) if p is not None]
        if overwrite_values:
            for p in parts:
                p.data[...] = 0.0
        _weighted(parts, [np.ones(p.shape) for p in parts]).backward()
        return x.grad, v.grad

    for got, want in zip(grads(True), grads(False)):
        np.testing.assert_array_equal(got, want)
        assert np.any(want != 0.0)


def test_kernel_statistics_norms_match_per_block_mean():
    rng = np.random.default_rng(25)
    X, V = rng.normal(size=(2, 3)), rng.normal(size=(12, 3))
    for n in (1, 3, 4, 12):
        expected = [np.mean(gram(V[i : i + n], V[i : i + n], CFG)) for i in range(0, 12, n)]
        got = _kernel_statistics(X, V, CFG, n, False)[1]
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(got, diagonal_block_means_node(V, CFG, n))
        # Summed in another order, so equal only up to rounding.
        np.testing.assert_allclose(got, np.diag(block_means_node(V, V, CFG, n, n)), rtol=1e-14)


def test_kernel_statistics_rejects_untiled_runs():
    for gram in (False, True):
        with pytest.raises(ValueError, match="runs of 4 rows that tile 6 rows"):
            _kernel_statistics(np.zeros((2, 3)), np.zeros((6, 3)), CFG, 4, gram)
        with pytest.raises(ValueError, match="runs of 5 rows that tile 12 rows"):
            _kernel_statistics(np.zeros((2, 3)), np.zeros((12, 3)), CFG, 5, gram)
        with pytest.raises(DimensionMismatchError):
            _kernel_statistics(np.zeros((2, 2)), np.zeros((6, 3)), CFG, 3, gram)


def median_heuristic_cases(rng):
    """(n, e) rows: odd and even pair counts, and sizes that span several
    row blocks of the pair loop (one more or less than a multiple of its
    height), with e in {1, 3, 16} and some rows repeated."""
    for n in (2, 3, 4, 5, 8, 50, 51):  # pair counts 1, 3, 6, 10, 28, 1225, 1275
        yield rng.normal(size=(n, 3))
    b = _PAIR_BLOCK_ROWS
    for n in (b - 1, b, b + 1, 3 * b + 7):
        for e in (1, 3, 16):
            X = rng.normal(size=(n, e))
            X[n // 2 :: 5] = X[1]
            yield X


def full_gram_sigma(X):
    """sigma from the upper triangle of the one (n, n) ``squared_distances(X, X)``."""
    d2 = squared_distances(X, X)
    return math.sqrt(float(np.median(d2[np.triu_indices(len(X), k=1)])))


def test_median_heuristic_matches_np_median_for_odd_and_even_pair_counts():
    # Exact against the row-block pairs; the full Gram's products may
    # differ from them in the last bit, so its median only up to rounding.
    rng = np.random.default_rng(26)
    eps = np.finfo(np.float64).eps
    for X in median_heuristic_cases(rng):
        sigma = median_heuristic(X)
        assert sigma == math.sqrt(float(np.median(row_block_pairs(X, _PAIR_BLOCK_ROWS))))
        assert sigma == pytest.approx(full_gram_sigma(X), rel=4 * eps, abs=0)


def test_median_pairs_are_the_row_block_products_bit_for_bit():
    rng = np.random.default_rng(27)
    for X in median_heuristic_cases(rng):
        pairs = _upper_squared_distances(X, np.sum(X * X, axis=-1))
        expected = row_block_pairs(X, _PAIR_BLOCK_ROWS)
        np.testing.assert_array_equal(np.sort(pairs), np.sort(expected))


def test_median_heuristic_keeps_the_full_gram_sigma_where_the_benchmarks_run():
    # The row counts the benchmarks use (1200 and 2000) are multiples of 8,
    # where the row-block products leave sigma as the full Gram gives it.
    rng = np.random.default_rng(29)
    cases = [rng.normal(size=(n, e)) for n in (1200, 2000) for e in (3, 16, 64)]
    # The claim set-up's initial shallow features at seed 0, separation 3:
    # the source rows through an untrained [10, 32, 16] extractor.
    bench = make_benchmark(4, 3, 10, 3, seed=0, separation=3.0)
    samples = materialize(bench)
    train_x = np.concatenate([s.x for s, d in zip(samples, bench.domains) if d.role == "source"])
    features = np.asarray(fe_forward(train_x, init_feature_extractor([10, 32, 16], 0)))
    assert features.shape == (1200, 16)
    for X in cases + [features]:
        assert median_heuristic(X) == full_gram_sigma(X)


def test_median_heuristic_needs_no_n_by_n_buffer():
    # The pair vector is the one large array; an (n, n) Gram would add
    # 16 MB at this size.
    n = 2000
    X = np.random.default_rng(28).normal(size=(n, 16))
    sigma, peak = traced_peak_bytes(median_heuristic, X)
    assert sigma > 0
    assert peak < n * (n - 1) // 2 * 8 + 2 * 2**20


def test_median_heuristic_rejects_non_finite_rows():
    X = np.ones((3, 2))
    X[1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        median_heuristic(X)


def test_median_heuristic_hand_enumeration():
    # 1-D {0, 1, 3}: squared distances {1, 4, 9} -> median 4 -> sigma 2.
    assert median_heuristic(np.array([[0.0], [1.0], [3.0]])) == 2.0


def test_median_heuristic_two_points():
    assert median_heuristic(np.array([[0.0], [2.5]])) == pytest.approx(2.5)


def test_median_heuristic_invariances():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(9, 4))
    base = median_heuristic(X)
    perm = rng.permutation(9)
    assert median_heuristic(X[perm]) == pytest.approx(base, abs=1e-12)
    assert median_heuristic(X + rng.normal(size=4)) == pytest.approx(base, rel=1e-12)


def test_median_heuristic_degenerate_rows():
    with pytest.raises(DegenerateDataError, match="zero bandwidth"):
        median_heuristic(np.ones((4, 2)))


def test_median_heuristic_needs_two_rows():
    with pytest.raises(ValueError):
        median_heuristic(np.ones((1, 2)))
