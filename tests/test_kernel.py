"""Gaussian kernel, Gram matrix, and median heuristic tests."""

import math
import re
import warnings

import numpy as np
import pytest

from gdu import autodiff as ad
from gdu.datagen import make_benchmark, materialize
from gdu.kernel import (
    DegenerateDataError,
    DimensionMismatchError,
    _PAIR_BLOCK_ROWS,
    KernelConfig,
    _augmented_forms,
    _kernel_statistics,
    _upper_squared_distances,
    gram,
    median_heuristic,
)
from gdu.layer import basis_gram_matrix, forward_batch, gate_matrix, init_layer
from gdu.training import GduModel, fe_forward, init_feature_extractor, predict_logits

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
    squared_distances,
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


@pytest.mark.parametrize("side", ["V", "X"])
@pytest.mark.parametrize("gram", [False, True])
def test_kernel_statistics_name_an_overflow_in_one_right_form(side, gram):
    # At c = 5e307 a coordinate of 1.85 keeps -c ||x||^2 = -1.7e308 finite,
    # so the left forms hold, but 2c x overflows: only the right form of the
    # basis rows (read by the diagonal blocks, or the stacked right operand
    # with the basis Gram), or of the batch, overflows.
    rows = {"X": np.zeros((2, 1)), "V": np.zeros((2, 2, 1))}
    rows[side] = np.full(rows[side].shape, 1.85)
    X, V = rows["X"], rows["V"]
    message = ("the Gaussian kernel's exponent overflows at sigma=1e-154 on rows with "
               "squared norms up to 3.423")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _kernel_statistics(X, V, KernelConfig(1e-154), 2, gram)


def _tensor_calls():
    """Each array entry point, called on a tape tensor."""
    rng = np.random.default_rng(13)
    x, Y = ad.Tensor(rng.normal(size=(3, 2))), rng.normal(size=(4, 2))
    layer = init_layer(2, 3, 2, 2, 0, "CS", CFG, 2.0)
    tensor_bases = init_layer(2, 3, 2, 2, 0, "CS", CFG, 2.0)
    tensor_bases.bases = ad.Tensor(tensor_bases.bases)
    return {
        "gram": lambda: gram(x, Y, CFG),
        "gram on the right": lambda: gram(Y, x, CFG),
        "basis_gram_matrix": lambda: basis_gram_matrix(tensor_bases),
        "gate_matrix": lambda: gate_matrix(x, layer),
        "forward_batch": lambda: forward_batch(x, layer),
        "predict_logits": lambda: predict_logits(GduModel(None, layer), x),
    }


@pytest.mark.parametrize("name", list(_tensor_calls()))
def test_array_functions_refuse_a_tape_tensor(name):
    # No gdu function takes a tensor: each fails at numpy's float
    # conversion, and none reads it as a 0-d object array.
    with pytest.raises(TypeError, match="not 'Tensor'"):
        _tensor_calls()[name]()


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


def _weighted(stats, weights):
    """``sum_k sum(stats[k] * weights[k])`` over the statistics that are not None."""
    return sum(float(np.sum(p * w)) for p, w in zip(stats, weights) if p is not None)


def _check_kernel_statistics(arrays, n, gram, sigma=1.1, step=1e-5):
    """The backward against central FD of a weighted sum of the statistics,
    with X's gradient (E2E) and without it (FT).

    A gram route's second backward raises.
    """
    cfg = KernelConfig(sigma)
    stats = _kernel_statistics(arrays["X"], arrays["V"], cfg, n, gram)
    assert (stats[2] is None) != gram
    rng = np.random.default_rng(98)
    weights = [None if s is None else rng.normal(size=s.shape) for s in stats[:3]]
    numeric = fd_gradient(
        lambda: _weighted(_kernel_statistics(arrays["X"], arrays["V"], cfg, n, gram), weights),
        arrays,
        step,
    )
    for grad_x in (False, True):  # FT, then E2E
        back = _kernel_statistics(arrays["X"], arrays["V"], cfg, n, gram)[3]
        g_x, g_v = back(*weights, grad_x)
        assert (g_x is None) != grad_x
        analytic = {"V": g_v} if g_x is None else {"X": g_x, "V": g_v}
        assert max_relative_error(analytic, {k: numeric[k] for k in analytic}) < 5e-6, grad_x
        if gram:
            # The backward overwrites the Gram it reads, so it runs once.
            with pytest.raises(RuntimeError, match="backpropagated only once"):
                back(*weights, grad_x)


def _separate_node_gradients(X, V, cfg, n, gram, weights):
    """The gradients of X and V through the separate kernel nodes of
    ``tests/oracles.py``, for the output gradients ``weights``."""
    x, v = ad.Tensor(X), ad.Tensor(V)
    a = block_means_node(v, x, cfg, n, 1)
    parts = [(a, weights[0].T), (diagonal_block_means_node(v, cfg, n), weights[1])]
    if gram:
        parts.append((block_means_node(v, v, cfg, n, n), weights[2]))
    total = summation(mul(parts[0][0], parts[0][1]))
    for node, w in parts[1:]:
        total = add(total, summation(mul(node, w)))
    total.backward()
    return x.grad, v.grad


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
    # block and in the one Gram of the stacked rows [X; V]. The exponent
    # before the clamp is the product of the augmented forms.
    def exponent(X, Y):
        left, right = _augmented_forms(1.3, (X, "l"), (Y, "r"))
        return left @ right.T

    rows = V.reshape(-1, 3)
    assert np.any(exponent(X, rows) > 0.0)
    assert np.any(exponent(V[0], V[0]) > 0.0)
    assert np.any(exponent(np.concatenate((X, rows)), rows)[4:] > 0.0)
    _check_kernel_statistics({"X": X, "V": V}, 3, gram, sigma=1.3)


def _assert_separate_nodes(X, V, cfg, n, gram):
    """The statistics and their backward against the separate kernel nodes:
    bit for bit without the basis Gram, and within the rounding of one
    matmul against three with it."""
    a, norms, K, back = _kernel_statistics(X, V, cfg, n, gram)
    separate = [block_means_node(V, X, cfg, n, 1).T, diagonal_block_means_node(V, cfg, n)]
    if gram:
        separate.append(block_means_node(V, V, cfg, n, n))
    for got, want in zip((a, norms, K), separate):
        if gram:
            np.testing.assert_allclose(got, want, rtol=1e-14)
        else:
            np.testing.assert_array_equal(got, want)
    rng = np.random.default_rng(len(X))
    weights = [rng.normal(size=s.shape) for s in (a, norms, K) if s is not None]
    got = back(*weights, *([] if gram else [None]), True)
    for g, want in zip(got, _separate_node_gradients(X, V, cfg, n, gram, weights)):
        if gram:
            np.testing.assert_allclose(g, want, rtol=1e-11, atol=1e-13 * np.abs(want).max())
        else:
            np.testing.assert_array_equal(g, want)


@pytest.mark.parametrize("gram", [False, True])
@pytest.mark.parametrize("m, n", [(3, 4), (1, 4), (3, 1)])
def test_kernel_statistics_and_their_backward_are_the_separate_nodes(m, n, gram):
    rng = np.random.default_rng(27)
    X, V = rng.normal(size=(5, 3)), rng.normal(size=(m, n, 3))
    cfg = KernelConfig(1.1)
    _assert_separate_nodes(X, V, cfg, n, gram)
    # The batch-major Gram rounds its entries and sums its runs otherwise.
    a = _kernel_statistics(X, V, cfg, n, gram)[0]
    np.testing.assert_allclose(a, block_means_node(X, V, cfg, 1, n), rtol=1e-14)


# (b, M, N, e) of the benchmark's serving batches on select-serve, its
# training steps on train-wide, on train-small and on select-serve.
BENCH_SHAPES = [(1000, 6, 16, 16), (256, 10, 50, 64), (64, 4, 10, 16), (256, 6, 16, 16)]


@pytest.mark.parametrize("gram", [False, True])
@pytest.mark.parametrize("b, m, n, e", BENCH_SHAPES)
def test_kernel_statistics_inners_are_c_ordered_and_the_separate_nodes_at_bench_shapes(
    b, m, n, e, gram
):
    rng = np.random.default_rng(b + m)
    X, V = rng.normal(size=(b, e)), rng.normal(size=(m, n, e))
    cfg = KernelConfig(math.sqrt(e))
    a = _kernel_statistics(X, V, cfg, n, gram)[0]
    assert a.shape == (b, m) and a.flags.c_contiguous
    _assert_separate_nodes(X, V, cfg, n, gram)


# The same M with b, N and e cut down, for central differences. Their
# weighted sums add up to b*M + M + M^2 outputs, whose rounding over a
# 1e-5 step reached 5.3e-6 at (8, 10, 5, 8) with the basis Gram, on this
# node and on the batch-major one before it (1.2e-5); at a 1e-4 step both
# read 1.6e-6, and the truncation error stays far below the tolerance.
@pytest.mark.parametrize("gram", [False, True])
@pytest.mark.parametrize("b, m, n, e", [(16, 6, 4, 4), (8, 10, 5, 8), (4, 4, 10, 4)])
def test_kernel_statistics_match_finite_differences_at_small_bench_shapes(b, m, n, e, gram):
    rng = np.random.default_rng(b * m)
    arrays = {"X": rng.normal(size=(b, e)), "V": rng.normal(size=(m, n, e))}
    _check_kernel_statistics(arrays, n, gram, sigma=math.sqrt(e), step=1e-4)


@pytest.mark.parametrize("gram", [False, True])
def test_kernel_statistics_values_are_not_the_arrays_the_backward_reads(gram):
    rng = np.random.default_rng(14)
    X, V = rng.normal(size=(3, 2)), rng.normal(size=(2, 2, 2))

    def grads(overwrite_values):
        *stats, back = _kernel_statistics(X, V, CFG, 2, gram)
        if overwrite_values:
            for p in stats:
                if p is not None:
                    p[...] = 0.0
        return back(*(None if p is None else np.ones(p.shape) for p in stats), True)

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
