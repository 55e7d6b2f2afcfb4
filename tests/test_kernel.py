"""Gaussian kernel, Gram matrix, and median heuristic tests."""

import math

import numpy as np
import pytest

from gdu import autodiff as ad
from gdu.kernel import (
    DegenerateDataError,
    DimensionMismatchError,
    _PAIR_BLOCK_ROWS,
    KernelConfig,
    _gaussian_exponent,
    _inners_norms_gram,
    _upper_squared_distances,
    gram,
    gram_block_means,
    gram_diagonal_block_means,
    median_heuristic,
    squared_distances,
)

from helpers import traced_peak_bytes
from oracles import add, fd_gradient, kernel_value, max_relative_error, mean, mul, summation

CFG = KernelConfig(sigma=1.0)


def test_config_rejects_bad_sigma():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            KernelConfig(sigma=bad)


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


def _check_gram_gradient(arrays, operands, sigma, tol=5e-6, op=gram):
    """Central-FD check of ``sum(R * op(X, Y))`` for a fixed random R.

    ``operands(ts)`` picks the inputs of ``op(*operands, cfg)`` from ``ts``, a
    dict of leaf tensors built from ``arrays`` (or ``arrays`` itself when
    finite differencing); it may return a plain array as a constant operand.
    Returns the leaf tensors after backward.
    """
    cfg = KernelConfig(sigma)
    R = np.random.default_rng(99).normal(size=op(*operands(arrays), cfg).shape)

    def value(ts):
        return summation(mul(op(*operands(ts), cfg), R))

    ts = {k: ad.tensor(v) for k, v in arrays.items()}
    value(ts).backward()
    analytic = {k: t.grad for k, t in ts.items()}
    numeric = fd_gradient(lambda: float(value(arrays)), arrays)
    assert max_relative_error(analytic, numeric) < tol
    return ts


def test_gram_gradient_two_tensors():
    rng = np.random.default_rng(10)
    arrays = {"X": rng.normal(size=(5, 3)), "Y": rng.normal(size=(4, 3))}
    for sigma in (0.7, 1.5):
        _check_gram_gradient(arrays, lambda t: (t["X"], t["Y"]), sigma)


def test_gram_gradient_same_tensor_both_sides():
    rng = np.random.default_rng(11)
    arrays = {"X": rng.normal(size=(6, 3))}
    _check_gram_gradient(arrays, lambda t: (t["X"], t["X"]), 1.2)


def test_gram_gradient_with_plain_array_operand():
    rng = np.random.default_rng(12)
    arrays = {"X": rng.normal(size=(5, 3))}
    Y = rng.normal(size=(4, 3))
    for operands in (lambda t: (t["X"], Y), lambda t: (Y, t["X"])):
        ts = _check_gram_gradient(arrays, operands, 1.1)
        assert gram(*operands(ts), CFG)._parents == (ts["X"],)


def test_gram_gradient_where_the_distance_clamp_fires():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(5, 3)) * 3 + 1
    X[3], X[4] = X[1], X[0]
    assert np.any(_gaussian_exponent(X, X, 1.3) > 0.0)  # the clamp fires
    _check_gram_gradient({"X": X}, lambda t: (t["X"], t["X"]), 1.3)
    arrays = {"X": X, "Y": X.copy()}
    _check_gram_gradient(arrays, lambda t: (t["X"], t["Y"]), 1.3)


def test_gram_is_one_tape_node():
    rng = np.random.default_rng(13)
    x, y = ad.tensor(rng.normal(size=(3, 2))), ad.tensor(rng.normal(size=(4, 2)))
    G = gram(x, y, CFG)
    assert G._parents == (x, y)
    np.testing.assert_array_equal(G.data, gram(x.data, y.data, CFG))
    assert isinstance(gram(x.data, y.data, CFG), np.ndarray)


def test_gram_node_value_is_not_the_array_its_backward_reads():
    rng = np.random.default_rng(14)
    X, Y = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))

    def x_grad(overwrite_value):
        x = ad.tensor(X)
        G = gram(x, Y, CFG)
        if overwrite_value:
            G.data[...] = 0.0
        summation(G).backward()
        return x.grad

    np.testing.assert_array_equal(x_grad(True), x_grad(False))
    assert np.any(x_grad(False) != 0.0)


def _block_means(n_x, n_y):
    return lambda X, Y, cfg: gram_block_means(X, Y, cfg, n_x, n_y)


def test_gram_block_means_gradient_two_tensors():
    rng = np.random.default_rng(20)
    arrays = {"X": rng.normal(size=(6, 3)), "Y": rng.normal(size=(8, 3))}
    for n_x, n_y in ((1, 4), (3, 4), (2, 2), (6, 8)):
        _check_gram_gradient(arrays, lambda t: (t["X"], t["Y"]), 1.3, op=_block_means(n_x, n_y))


def test_gram_block_means_gradient_same_tensor_both_sides():
    rng = np.random.default_rng(21)
    arrays = {"X": rng.normal(size=(8, 3))}
    for n in (1, 2, 4):
        _check_gram_gradient(arrays, lambda t: (t["X"], t["X"]), 1.2, op=_block_means(n, n))
    # Unequal blocks on one tensor.
    _check_gram_gradient(arrays, lambda t: (t["X"], t["X"]), 1.2, op=_block_means(1, 4))


def test_gram_block_means_gradient_with_plain_array_operand():
    rng = np.random.default_rng(22)
    arrays = {"X": rng.normal(size=(6, 3))}
    Y = rng.normal(size=(4, 3))
    for n_x in (1, 3):
        op = _block_means(n_x, 2)
        ts = _check_gram_gradient(arrays, lambda t: (t["X"], Y), 0.9, op=op)
        assert op(ts["X"], Y, CFG)._parents == (ts["X"],)
        right = {"X": arrays["X"][:4].copy()}
        ts = _check_gram_gradient(right, lambda t: (Y[:3], t["X"]), 0.9, op=op)
        assert op(Y[:3], ts["X"], CFG)._parents == (ts["X"],)


def test_gram_block_means_is_one_node_and_bit_identical_to_mean_chain():
    rng = np.random.default_rng(23)
    X, Y = rng.normal(size=(6, 4)), rng.normal(size=(15, 4))
    for n_x, n_y in ((1, 5), (2, 3), (3, 5)):
        G = gram(X, Y, CFG)
        blocks = G.reshape(6 // n_x, n_x, 15 // n_y, n_y)
        chain = mean(mean(blocks, axis=3), axis=1)
        got = gram_block_means(X, Y, CFG, n_x, n_y)
        assert isinstance(got, np.ndarray)
        np.testing.assert_array_equal(got, chain)
        x, y = ad.tensor(X), ad.tensor(Y)
        node = gram_block_means(x, y, CFG, n_x, n_y)
        assert node._parents == (x, y)
        np.testing.assert_array_equal(node.data, chain)


def test_gram_block_means_rejects_untiled_blocks():
    X = np.zeros((6, 2))
    for n_x, n_y in ((4, 1), (1, 4), (0, 2)):
        with pytest.raises(ValueError, match="tile"):
            gram_block_means(X, X, CFG, n_x, n_y)


def test_gram_diagonal_block_means_gradient():
    rng = np.random.default_rng(24)
    arrays = {"X": rng.normal(size=(12, 3))}
    for n in (1, 3, 4, 12):
        op = lambda X, cfg, n=n: gram_diagonal_block_means(X, cfg, n)
        _check_gram_gradient(arrays, lambda t: (t["X"],), 1.4, op=op)


def test_gram_diagonal_block_means_matches_per_block_mean():
    rng = np.random.default_rng(25)
    X = rng.normal(size=(12, 3))
    for n in (1, 3, 4, 12):
        expected = [np.mean(gram(X[i : i + n], X[i : i + n], CFG)) for i in range(0, 12, n)]
        got = gram_diagonal_block_means(X, CFG, n)
        np.testing.assert_array_equal(got, expected)
        # Summed in another order, so equal only up to rounding.
        np.testing.assert_allclose(
            got, np.diag(gram_block_means(X, X, CFG, n, n)), rtol=1e-14
        )
    x = ad.tensor(X)
    assert gram_diagonal_block_means(x, CFG, 3)._parents == (x,)
    with pytest.raises(ValueError, match="tile"):
        gram_diagonal_block_means(X, CFG, 5)


@pytest.mark.parametrize("m, n", [(3, 4), (1, 4), (3, 1)])
def test_inners_norms_gram_is_one_node_over_the_three_statistics(m, n):
    rng = np.random.default_rng(26)
    arrays = {"X": rng.normal(size=(5, 3)), "V": rng.normal(size=(m, n, 3))}
    cfg = KernelConfig(1.1)
    expected = (
        gram_block_means(arrays["X"], arrays["V"], cfg, 1, n),
        gram_diagonal_block_means(arrays["V"], cfg, n),
        gram_block_means(arrays["V"], arrays["V"], cfg, n, n),
    )
    for got, want in zip(_inners_norms_gram(arrays["X"], arrays["V"], cfg, n), expected):
        assert isinstance(got, np.ndarray)
        np.testing.assert_allclose(got, want, rtol=1e-14)
    weights = [rng.normal(size=np.shape(w)) for w in expected]

    def weighted(parts):
        a, norms, K = (summation(mul(p, w)) for p, w in zip(parts, weights))
        return add(add(a, norms), K)

    numeric = fd_gradient(
        lambda: float(weighted(_inners_norms_gram(arrays["X"], arrays["V"], cfg, n))), arrays
    )
    for constant in (None, "X"):
        ts = {k: v if k == constant else ad.tensor(v) for k, v in arrays.items()}
        parts = _inners_norms_gram(ts["X"], ts["V"], cfg, n)
        node = parts[0]._parents[0]
        assert all(p._parents == (node,) for p in parts)
        assert node._parents == tuple(t for t in ts.values() if ad.is_tensor(t))
        weighted(parts).backward()
        analytic = {k: t.grad for k, t in ts.items() if ad.is_tensor(t)}
        assert max_relative_error(analytic, {k: numeric[k] for k in analytic}) < 5e-6
        # The backward overwrites the Gram it reads, so it runs once.
        with pytest.raises(RuntimeError, match="backpropagated only once"):
            node._backward(node.grad)


def test_inners_norms_gram_rejects_untiled_runs():
    with pytest.raises(ValueError, match="runs of 4 rows that tile 6 rows"):
        _inners_norms_gram(np.zeros((2, 3)), np.zeros((6, 3)), CFG, 4)
    with pytest.raises(DimensionMismatchError):
        _inners_norms_gram(np.zeros((2, 2)), np.zeros((6, 3)), CFG, 3)


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


def test_median_heuristic_matches_np_median_for_odd_and_even_pair_counts():
    rng = np.random.default_rng(26)
    for X in median_heuristic_cases(rng):
        n = len(X)
        xx = np.sum(X * X, axis=1)
        d2 = np.maximum(xx[:, None] + xx[None, :] - 2.0 * (X @ X.T), 0.0)
        expected = math.sqrt(float(np.median(d2[np.triu_indices(n, k=1)])))
        assert median_heuristic(X) == expected


def test_median_pairs_are_the_upper_triangle_of_squared_distances_bit_for_bit():
    rng = np.random.default_rng(27)
    for X in median_heuristic_cases(rng):
        pairs = _upper_squared_distances(X)
        upper = squared_distances(X, X)[np.triu_indices(len(X), k=1)]
        np.testing.assert_array_equal(np.sort(pairs), np.sort(upper))


def test_median_heuristic_needs_one_n_by_n_buffer():
    # The pairs live in the Gram's own buffer; a second n (n - 1) / 2
    # vector of them would add 16 MB at this size.
    n = 2000
    X = np.random.default_rng(28).normal(size=(n, 16))
    sigma, peak = traced_peak_bytes(median_heuristic, X)
    assert sigma > 0
    assert peak < n * n * 8 + 2 * 2**20


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
