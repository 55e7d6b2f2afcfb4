"""Property tests over random layer sizes, gating modes and seeds."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdu import heuristics
from gdu.checkpoint import _emit_block, _Reader, model_from_text, model_to_text
from gdu.kernel import (
    KernelConfig,
    _kernel_statistics,
    gram,
    squared_distances,
)
from gdu.layer import (
    GATING_MODES,
    GEOMETRY_MODES,
    GduLayer,
    basis_gram_matrix,
    forward_batch,
    gate_matrix,
    init_layer,
)
from gdu.regularization import RegConfig
from gdu.rkhs import EmpiricalKme, mmd_sq
from gdu.training import (
    DatasetSplits,
    GduModel,
    TrainConfig,
    init_erm_model,
    init_feature_extractor,
    train,
)

from helpers import layer_ols
import oracles
from oracles import gaussian_gram_chain, kmeans_loop

SETTINGS = settings(derandomize=True, deadline=None, max_examples=20)


@st.composite
def layers_and_batches(draw, modes=GATING_MODES):
    """A random layer with nonzero biases plus a feature batch for it."""
    m, n, e, c = (draw(st.integers(1, 4)) for _ in range(4))
    mode = draw(st.sampled_from(modes))
    sigma = draw(st.sampled_from((0.5, 1.5, 4.0)))
    kappa = None if mode == "PROJECTION" else draw(st.sampled_from((0.1, 2.0, 20.0)))
    seed = draw(st.integers(0, 2**31 - 1))
    layer = init_layer(m, n, e, c, seed, mode, KernelConfig(sigma), kappa)
    rng = np.random.default_rng(seed)
    layer.bias += rng.normal(size=(m, c))
    X = rng.normal(size=(draw(st.integers(1, 6)), e))
    return layer, X


# Bit patterns of the float64 classes a text encoding may treat apart:
# signed zeros, subnormals, the normal range's ends, infinities and NaNs
# with either sign and any payload, signalling ones included.
EDGE_BITS = [
    0, 1 << 63, 1, (1 << 52) - 1, 1 << 52, 0x7FEFFFFFFFFFFFFF, 0x3FF0000000000000,
    0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000, 0xFFF8000000000000,
    0x7FF0000000000001, 0xFFF80000DEADBEEF, 0xFFFFFFFFFFFFFFFF,
]
float_bits = st.one_of(st.sampled_from(EDGE_BITS), st.integers(0, 2**64 - 1))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(float_bits, max_size=40), st.sampled_from(["flat", "0-d", "transposed"]))
@example([], "flat")
@example([0x7FF0000000000001], "flat")
@example([0xFFF80000DEADBEEF], "0-d")
def test_block_round_trips_every_bit_pattern(bits, layout):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    if layout == "0-d" and values.size:
        values = values[:1].reshape(())
    elif layout == "transposed":
        # A view whose C order differs from its memory order.
        values = values[: values.size // 2 * 2].reshape(2, -1).T
    lines = []
    _emit_block(lines, "x", values)
    assert lines[0].split() == ["block", "x", *map(str, (values.ndim, *values.shape, values.size))]
    back = _Reader("\n".join(lines)).read_block("x")
    assert back.shape == values.shape and back.flags.writeable
    assert back.view(np.uint64).tolist() == values.view(np.uint64).tolist()


@SETTINGS
@given(layers_and_batches())
def test_checkpoint_round_trip_is_bit_exact(case):
    layer, _ = case
    text = model_to_text(GduModel(None, layer))
    back = model_from_text(text).layer
    np.testing.assert_array_equal(back.bases, layer.bases)
    np.testing.assert_array_equal(back.weights, layer.weights)
    np.testing.assert_array_equal(back.bias, layer.bias)
    assert (back.mode, back.kernel, back.kappa) == (layer.mode, layer.kernel, layer.kappa)
    assert model_to_text(GduModel(None, back)) == text


@SETTINGS
@given(layers_and_batches(modes=GEOMETRY_MODES))
def test_geometry_gate_rows_lie_on_the_simplex(case):
    layer, X = case
    beta = np.asarray(gate_matrix(X, layer))
    assert beta.shape == (len(X), layer.num_bases)
    assert np.all(beta >= 0.0)
    np.testing.assert_allclose(beta.sum(axis=1), 1.0, atol=1e-12)


@SETTINGS
@given(layers_and_batches())
def test_forward_batch_equals_the_per_machine_loop(case):
    layer, X = case
    beta = np.asarray(gate_matrix(X, layer))
    expected = sum(
        beta[:, j : j + 1] * np.asarray(machine(X))
        for j, machine in enumerate(layer.machines)
    )
    np.testing.assert_allclose(forward_batch(X, layer), expected, rtol=1e-13, atol=1e-14)


SEEDS = st.integers(0, 2**31 - 1)


@SETTINGS
@given(layers_and_batches(), SEEDS, st.sampled_from((0.1, 1.0, 3.0)))
def test_ols_is_nonnegative_for_any_gate_rows(case, seed, scale):
    # A squared RKHS norm: nonnegative for any real gate rows, not only the
    # layer's own.
    layer, X = case
    beta = np.random.default_rng(seed).normal(scale=scale, size=(len(X), layer.num_bases))
    assert float(layer_ols(X, beta, layer)) >= 0.0
    assert float(layer_ols(X, gate_matrix(X, layer), layer)) >= 0.0


@SETTINGS
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4),
       st.sampled_from((0.5, 1.5, 4.0)), SEEDS)
def test_mmd_sq_is_symmetric(n_a, n_b, e, sigma, seed):
    rng = np.random.default_rng(seed)
    cfg = KernelConfig(sigma)
    a = EmpiricalKme(rng.normal(size=(n_a, e)), cfg)
    b = EmpiricalKme(rng.normal(size=(n_b, e)), cfg)
    assert float(mmd_sq(a, b)) == pytest.approx(float(mmd_sq(b, a)), rel=1e-12, abs=1e-15)


@st.composite
def kernel_blocks(draw):
    """Row blocks ``(X, Y, sigma, n_x, n_y)`` with norms up to 10 sigma.

    Some rows of Y, and the second row of X, repeat earlier rows of X, so
    the exponent clamp can fire.
    """
    e = draw(st.integers(1, 5))
    sigma = draw(st.sampled_from((0.3, 1.0, 4.0)))
    n_x, n_y = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(SEEDS))

    def rows(k):
        directions = rng.normal(size=(k, e))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        return directions * rng.uniform(0.0, 10.0 * sigma, size=(k, 1))

    X, Y = rows(p * n_x), rows(q * n_y)
    k = draw(st.integers(0, min(len(X), len(Y))))
    Y[:k] = X[:k]
    if len(X) > 1 and draw(st.booleans()):
        X[1] = X[0]
    return X, Y, sigma, n_x, n_y


def _chain_block_means(X, Y, sigma, n_x, n_y):
    G = gaussian_gram_chain(X, Y, sigma)
    return G.reshape(len(X) // n_x, n_x, len(Y) // n_y, n_y).mean(axis=(1, 3))


@SETTINGS
@given(kernel_blocks())
def test_gram_blocks_match_the_distance_chain_and_lie_in_unit_interval(case):
    X, Y, sigma, n_x, n_y = case
    cfg = KernelConfig(sigma)
    for A, B, n_b in ((X, Y, n_y), (X, X, n_x), (Y, X, n_x)):
        G = gram(A, B, cfg)
        assert np.all((G >= 0.0) & (G <= 1.0))
        a, _, K = _kernel_statistics(A, B, cfg, n_b, True)
        for got, want in ((a, _chain_block_means(A, B, sigma, 1, n_b)),
                          (K, _chain_block_means(B, B, sigma, n_b, n_b))):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    m, e = len(X) // n_x, X.shape[1]
    layer = GduLayer(X.reshape(m, n_x, e), np.zeros((e, m, 1)), np.zeros((m, 1)), cfg, "PROJECTION")
    np.testing.assert_allclose(
        basis_gram_matrix(layer), _chain_block_means(X, X, sigma, n_x, n_x), rtol=0.0, atol=1e-12
    )
    diag = _kernel_statistics(Y, X, cfg, n_x, False)[1]
    expected = np.diag(_chain_block_means(X, X, sigma, n_x, n_x))
    np.testing.assert_allclose(diag, expected, rtol=0.0, atol=1e-12)
    assert np.all((diag >= 0.0) & (diag <= 1.0))


def _tiny_run(mode, seed):
    """Train a small CS or UNIFORM model; return its checkpoint and trace text."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(48, 2))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    data = DatasetSplits(X[:36], y[:36], X[36:], y[36:])
    if mode == "UNIFORM":
        model = init_erm_model([2, 4], 2, n_heads=2, seed=seed)
        reg = RegConfig()
    else:
        fe = init_feature_extractor([2, 4], seed, "tanh")
        layer = init_layer(2, 3, 4, 2, seed + 1, mode, KernelConfig(2.0), kappa=2.0)
        model = GduModel(fe, layer)
        reg = RegConfig(lambda_ols=1e-2, lambda_l1=1e-2)
    config = TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=3, patience=3,
                         seed=seed, reg=reg)
    model, trace = train(data, config, model)
    return model_to_text(model), trace.to_csv_text()


@pytest.mark.parametrize("mode", ["CS", "UNIFORM"])
@settings(derandomize=True, deadline=None, max_examples=5)
@given(seed=SEEDS)
def test_training_is_deterministic_in_its_seed(mode, seed):
    assert _tiny_run(mode, seed) == _tiny_run(mode, seed)


@st.composite
def clustering_cases(draw, e):
    """Rows ``X`` (n <= 300, e columns), a cluster count ``k <= min(n, 10)``
    and a seed.

    Half the cases repeat a few distinct rows, at most k of them, so that
    k-means++ picks repeated centroids; with fewer than k distinct rows a
    cluster stays empty.
    """
    k = draw(st.integers(1, 10))
    n = draw(st.integers(k, 300))
    rng = np.random.default_rng(draw(SEEDS))
    if draw(st.booleans()):
        distinct = rng.normal(size=(draw(st.integers(1, k)), e))
        X = distinct[rng.integers(len(distinct), size=n)]
    else:
        centers = rng.normal(scale=4.0, size=(draw(st.integers(1, 6)), e))
        X = centers[rng.integers(len(centers), size=n)] + rng.normal(size=(n, e))
    return X, k, draw(SEEDS)


# Widths 31 and 32 sit on the two sides of the switch between the two
# centroid-sum routes of ``kmeans``; one column is the width where a mean
# sums pairwise, not in row order. From 16 columns up, the BLAS rounds
# ``C @ X^T`` and ``X @ C^T`` apart on about half of random shapes, odd
# widths such as 17 and 65 included.
CLUSTERING_WIDTHS = [1, 2, 16, 17, 31, 32, 64, 65]


@pytest.mark.parametrize("e", CLUSTERING_WIDTHS)
def test_kmeans_equals_the_loop_oracle_bit_for_bit(e):
    too_few_rows = []

    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(clustering_cases(e))
    def check(case):
        X, k, seed = case
        if len(np.unique(X, axis=0)) < k:
            # The loop oracle re-seeds in vain for 300 iterations here.
            with pytest.raises(ValueError, match=f"kmeans needs at least k={k} distinct rows"):
                heuristics.kmeans(X, k, seed)
            too_few_rows.append(case)
            return
        trace = {}
        expected = kmeans_loop(X, k, seed, check_monotone=True, trace=trace)
        with mock.patch.object(oracles, "_distances_to", wraps=oracles._distances_to) as seeding:
            oracles.kmeans_pp_init(
                np.ascontiguousarray(X.T), np.sum(X * X, axis=-1), k, np.random.default_rng(seed)
            )
        with mock.patch.object(
            heuristics, "_distances_to", wraps=heuristics._distances_to
        ) as passes:
            got = heuristics.kmeans(X, k, seed)
        assert got.assignments.dtype == expected.assignments.dtype
        np.testing.assert_array_equal(got.assignments, expected.assignments)
        assert got.centroids.tobytes() == expected.centroids.tobytes()
        assert got.inertia == expected.inertia
        # The seeding's passes, one distance pass per iteration, and one
        # more for the final inertia when the loop ran out before a fixpoint.
        lloyd = trace["iterations"] + (not trace["converged"])
        assert passes.call_count == seeding.call_count + lloyd

    check()
    assert too_few_rows, "no example had fewer distinct rows than clusters"


@pytest.mark.parametrize("e", CLUSTERING_WIDTHS)
def test_kmeans_distances_match_squared_distances(e):
    # ``kmeans`` and its oracle share the (k, n) layout, so this checks the
    # layout against the kernel's own formula instead.
    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(clustering_cases(e))
    def check(case):
        X, k, seed = case
        XT, xx = np.ascontiguousarray(X.T), np.sum(X * X, axis=-1)
        centroids = oracles.kmeans_pp_init(XT, xx, k, np.random.default_rng(seed))
        got = heuristics._distances_to(
            XT, xx, centroids, np.empty((k, len(X))), np.empty((k, len(X)))
        )
        scale = np.max(xx) + np.max(np.sum(centroids * centroids, axis=-1))
        np.testing.assert_allclose(
            got, squared_distances(X, centroids).T, rtol=1e-12, atol=1e-12 * scale
        )

    check()
