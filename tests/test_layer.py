"""Gating, ensemble forward, and initialization behavior of the layer."""

import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdu.kernel import KernelConfig
from gdu.layer import (
    GATING_MODES,
    GEOMETRY_MODES,
    UNIFORM,
    GduLayer,
    _NUMPY_PAIRWISE_BLOCK,
    _basis_inners,
    _ensemble,
    _row_max,
    _row_sum,
    basis_gram_matrix,
    basis_init_scale,
    forward_batch,
    gate_matrix,
    init_layer,
)
from gdu.rkhs import EmpiricalKme, kme_inner, kme_norm_sq
from gdu.training import init_erm_model

from oracles import kme_inner_brute

CFG = KernelConfig(sigma=1.0)


def make_layer(bases, mode, kappa=None, head=None, cfg=CFG, n_outputs=2):
    """A layer on ``bases`` whose every head is ``head``, a (weights, bias)
    pair, or by default draws its own."""
    bases = np.asarray(bases, dtype=float)
    e = bases.shape[2]
    rng = np.random.default_rng(99)
    heads = [head or (rng.normal(size=(e, n_outputs)), rng.normal(size=n_outputs)) for _ in bases]
    weights = np.stack([w for w, _ in heads], axis=1)
    bias = np.stack([b for _, b in heads])
    return GduLayer(bases, weights, bias, cfg, mode, kappa)


def random_layer(rng, mode, m=3, n=4, e=3, c=2, kappa=2.0, sigma=1.0):
    """A random layer; ``kappa`` applies to the geometry modes only."""
    kappa = kappa if mode in GEOMETRY_MODES else None
    return init_layer(m, n, e, c, int(rng.integers(1 << 30)), mode, KernelConfig(sigma), kappa)


def test_singleton_geometry_gate_is_one():
    layer = make_layer([[[0.0, 1.0]]], "CS", kappa=2.0)
    np.testing.assert_allclose(gate_matrix(np.array([[3.0, -1.0]]), layer)[0], [1.0])


def test_identical_bases_gate_uniformly():
    basis = [[0.5, -0.2], [1.0, 0.3]]
    for mode in ("CS", "MMD"):
        layer = make_layer([basis, basis, basis], mode, kappa=2.0)
        np.testing.assert_allclose(
            gate_matrix(np.array([[0.1, 0.2]]), layer)[0], np.full(3, 1.0 / 3.0), atol=1e-12
        )


def test_projection_gate_on_own_basis_vector():
    layer = make_layer([[[0.7, -0.4]]], "PROJECTION")
    beta = gate_matrix(np.array([[0.7, -0.4]]), layer)[0]
    np.testing.assert_allclose(beta, [1.0], atol=1e-14)


def test_mmd_gate_hand_computed():
    # 1-D, sigma=1, kappa=2, bases {0} and {2}, sample at 0:
    # H1 = 0, H2 = -(2 - 2 e^-2); brute-force kernel softmax gives beta_1.
    layer = make_layer([[[0.0]], [[2.0]]], "MMD", kappa=2.0)
    beta = gate_matrix(np.array([[0.0]]), layer)[0]
    h2 = -(2.0 - 2.0 * math.exp(-2.0))
    expected = 1.0 / (1.0 + math.exp(2.0 * h2))
    assert expected == pytest.approx(0.969488320030073, abs=1e-12)
    assert beta[0] == pytest.approx(expected, abs=1e-12)
    assert beta.sum() == pytest.approx(1.0, abs=1e-12)


def test_geometry_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(0)
    for mode in ("CS", "MMD"):
        for kappa in (0.1, 2.0, 10.0):
            layer = random_layer(rng, mode, kappa=kappa)
            X = rng.normal(size=(40, 3))
            beta = gate_matrix(X, layer)
            np.testing.assert_allclose(beta.sum(axis=1), 1.0, atol=1e-9)
            assert (beta > 0.0).all()


def test_gate_softmax_shift_invariance():
    # Injecting a constant shift into the similarity scores must not change
    # the kernel softmax output. The MMD score is -(1 - 2 a + norms), so
    # adding c/2 to every inner product of a row shifts that row by c.
    from gdu.layer import _gate_from_inners

    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 4))
    norms = rng.uniform(0.5, 1.5, size=4)
    c = np.array([[7.3], [-7.3], [0.5], [3.0], [-1.25]])
    np.testing.assert_allclose(
        _gate_from_inners(a, norms, "MMD", 2.0)[0],
        _gate_from_inners(a + c / 2.0, norms, "MMD", 2.0)[0],
        atol=1e-12,
    )


def test_small_kappa_approaches_uniform():
    rng = np.random.default_rng(2)
    for mode in ("CS", "MMD"):
        layer = random_layer(rng, mode, m=5, kappa=1e-6)
        X = rng.normal(size=(20, 3))
        beta = gate_matrix(X, layer)
        assert np.abs(beta - 0.2).max() < 1e-4


def test_projection_matches_closed_form_inner_products():
    rng = np.random.default_rng(3)
    layer = random_layer(rng, "PROJECTION", m=3, n=4, e=3)
    x = rng.normal(size=3)
    beta = gate_matrix(x[None], layer)[0]
    phi = EmpiricalKme(x.reshape(1, -1), layer.kernel)
    for j, basis in enumerate(layer.bases):
        emb = EmpiricalKme(basis, layer.kernel)
        expected = kme_inner(phi, emb) / kme_norm_sq(emb)
        assert beta[j] == pytest.approx(expected, abs=1e-12)


def test_projection_matches_grid_search_on_orthogonalized_bases():
    # Bases far apart in units of sigma have numerically orthogonal
    # embeddings; the projection gate must then match the grid-search
    # minimizer of sum_j ||mu - beta_j mu_j||^2, which separates per j.
    rng = np.random.default_rng(4)
    for _ in range(10):
        m, e = 3, 2
        centers = rng.permutation(m) * 60.0
        bases = [centers[j] + rng.normal(0, 0.5, size=(3, e)) for j in range(m)]
        layer = make_layer(bases, "PROJECTION")
        x = bases[0][0] + rng.normal(0, 0.3, size=e)
        beta = gate_matrix(x[None], layer)[0]
        phi = EmpiricalKme(x.reshape(1, -1), layer.kernel)
        grid = np.arange(-2.0, 2.0 + 1e-9, 1e-3)
        for j, basis in enumerate(layer.bases):
            emb = EmpiricalKme(basis, layer.kernel)
            inner = kme_inner(phi, emb)
            norm_sq = kme_norm_sq(emb)
            objective = norm_sq * grid**2 - 2.0 * inner * grid
            best = grid[np.argmin(objective)]
            assert abs(beta[j] - best) < 2e-3


def test_forward_single_machine_equals_machine_output():
    rng = np.random.default_rng(7)
    layer = random_layer(rng, "CS", m=1)
    x = rng.normal(size=3)
    head = x @ layer.weights[:, 0] + layer.bias[0]
    np.testing.assert_allclose(forward_batch(x[None], layer)[0], head, atol=1e-12)


def test_a_one_basis_projection_layer_weights_its_machine_by_its_gate():
    # Only a UNIFORM layer's gate is the constant 1. One PROJECTION basis
    # gates by a / ||mu||^2, which scales its machine's output.
    rng = np.random.default_rng(28)
    layer = random_layer(rng, "PROJECTION", m=1)
    X = rng.normal(size=(5, 3))
    beta = gate_matrix(X, layer)
    assert np.all(np.abs(beta - 1.0) > 1e-3)
    head = X @ layer.weights[:, 0] + layer.bias[0]
    np.testing.assert_allclose(forward_batch(X, layer), beta * head, rtol=1e-13, atol=1e-14)


def test_forward_identical_machines_in_geometry_mode():
    rng = np.random.default_rng(8)
    weights, bias = rng.normal(size=(2, 3)), rng.normal(size=3)
    layer = make_layer(
        [[[0.0, 0.0]], [[2.0, 1.0]]],
        "MMD",
        kappa=2.0,
        head=(weights, bias),
        n_outputs=3,
    )
    x = rng.normal(size=2)
    np.testing.assert_allclose(forward_batch(x[None], layer)[0], x @ weights + bias, atol=1e-12)


def test_forward_composes_gate_with_machine_outputs():
    layer = make_layer([[[0.0]], [[2.0]]], "MMD", kappa=2.0, n_outputs=2)
    x = np.array([0.0])
    beta = gate_matrix(x[None], layer)[0]
    o1, o2 = x @ layer.weights[:, 0] + layer.bias[0], x @ layer.weights[:, 1] + layer.bias[1]
    np.testing.assert_allclose(
        forward_batch(x[None], layer)[0], beta[0] * o1 + beta[1] * o2, atol=1e-12
    )


def test_forward_affine_in_machine_outputs():
    # Holding beta fixed, scaling one machine's weights scales its share.
    rng = np.random.default_rng(9)
    layer = random_layer(rng, "CS", m=2)
    x = rng.normal(size=3)
    beta = gate_matrix(x[None], layer)
    base = forward_batch(x[None], layer, beta=beta)[0]
    layer.weights[:, 0] *= 2.0
    layer.bias[0] *= 2.0
    doubled = forward_batch(x[None], layer, beta=beta)[0]
    share = beta[0, 0] * (x @ layer.weights[:, 0] + layer.bias[0])
    np.testing.assert_allclose(doubled, base - share / 2.0 + share, atol=1e-12)


def test_forward_batch_with_constant_gate_override():
    rng = np.random.default_rng(10)
    layer = random_layer(rng, "CS", m=4)
    X = rng.normal(size=(6, 3))
    uniform = np.full((6, 4), 0.25)
    expected = np.mean([X @ layer.weights[:, j] + layer.bias[j] for j in range(4)], axis=0)
    np.testing.assert_allclose(forward_batch(X, layer, beta=uniform), expected, atol=1e-12)


@pytest.mark.parametrize("shape", [(5, 2), (4, 3), (15,)], ids=str)
def test_forward_batch_names_a_beta_that_is_not_batch_by_bases(shape):
    # A flat beta of b * M values would reshape to (b, M) without complaint.
    rng = np.random.default_rng(14)
    layer = random_layer(rng, "CS", m=3)
    X = rng.normal(size=(5, 3))
    beta = np.full(shape, 1.0 / 3.0)
    named = rf"^beta shape {re.escape(str(shape))} does not match batch 5 x 3 bases$"
    with pytest.raises(ValueError, match=named):
        forward_batch(X, layer, beta=beta)


def test_kernel_statistics_match_brute_force_block_by_block():
    rng = np.random.default_rng(12)
    for mode in ("CS", "PROJECTION"):
        layer = random_layer(rng, mode, m=3, n=4, e=3, sigma=1.3)
        X = rng.normal(size=(5, 3))
        a, norms, none, _ = _basis_inners(X, layer)
        assert none is None
        # One Gram gives the same statistics with the basis Gram.
        with_gram = _basis_inners(X, layer, True)[:3]
        for a, norms, K in ((a, norms, basis_gram_matrix(layer)), with_gram):
            sigma = layer.kernel.sigma
            vecs = list(layer.bases)
            for j, vj in enumerate(vecs):
                assert norms[j] == pytest.approx(kme_inner_brute(vj, vj, sigma), abs=1e-12)
                for i in range(5):
                    assert a[i, j] == pytest.approx(kme_inner_brute(X[i : i + 1], vj, sigma), abs=1e-12)
                for l, vl in enumerate(vecs):
                    assert K[j, l] == pytest.approx(kme_inner_brute(vj, vl, sigma), abs=1e-12)


def test_forward_batch_matches_per_machine_loop():
    rng = np.random.default_rng(13)
    layer = init_layer(4, 3, 3, 2, 5, "MMD", CFG, kappa=2.0)
    layer.bias += rng.normal(size=(4, 2))
    X = rng.normal(size=(6, 3))
    beta = gate_matrix(X, layer)
    expected = sum(
        beta[:, j : j + 1] * (X @ layer.weights[:, j] + layer.bias[j]) for j in range(4)
    )
    np.testing.assert_allclose(forward_batch(X, layer), expected, rtol=1e-13, atol=1e-14)


def test_init_layer_deterministic():
    a = init_layer(3, 4, 5, 2, seed=42, mode="MMD", kernel=CFG, kappa=2.0)
    b = init_layer(3, 4, 5, 2, seed=42, mode="MMD", kernel=CFG, kappa=2.0)
    for ba, bb in zip(a.bases, b.bases):
        np.testing.assert_array_equal(ba, bb)
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.bias, b.bias)


def test_init_layer_keeps_the_per_basis_random_stream():
    # Initial models, and so trained ones, stay those of the per-basis draws:
    # each basis's (N, e) normals in turn, then each machine's (e, C) uniforms.
    m, n, e, c, seed = 3, 4, 5, 2, 17
    layer = init_layer(m, n, e, c, seed, "MMD", CFG, kappa=2.0)
    rng = np.random.default_rng(seed)
    scale = basis_init_scale(e, CFG.sigma)
    bases = [rng.normal(0.0, scale, size=(n, e)) for _ in range(m)]
    bound = 1.0 / math.sqrt(e)
    weights = [rng.uniform(-bound, bound, size=(e, c)) for _ in range(m)]
    for j in range(m):
        np.testing.assert_array_equal(layer.bases[j], bases[j])
        np.testing.assert_array_equal(layer.weights[:, j], weights[j])
    np.testing.assert_array_equal(layer.bias, np.zeros((m, c)))
    assert layer.weights.flags.c_contiguous


def test_a_sigma_whose_bases_overflow_is_refused_when_the_layer_is_built():
    # At sigma = 1e154 the bases are drawn with a std of about 1.2e154, so
    # their squared norms overflow and every gate would be NaN.
    with pytest.raises(ValueError, match="GduLayer bases needs rows with squared norms below"):
        init_layer(2, 3, 4, 2, 0, "CS", KernelConfig(1e154), 20.0)
    layer = init_layer(2, 3, 4, 2, 0, "CS", KernelConfig(1e152), 20.0)
    X = np.random.default_rng(0).normal(size=(5, 4))
    assert np.all(np.isfinite(gate_matrix(X, layer)))


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_a_sigma_whose_exponent_overflows_on_the_rows_is_named(action):
    # At sigma = 1e-154, c = 1 / (2 sigma^2) = 5e307, so c ||x||^2 overflows
    # on standard-normal rows: gate_matrix raised numpy's overflow warning
    # under an error filter, and with warnings ignored it returned uniform
    # gates from kernel values of 0.
    X = np.random.default_rng(0).normal(size=(5, 4))
    largest = np.max(np.sum(X * X, axis=1))
    message = (f"the Gaussian kernel's exponent overflows at sigma=1e-154 on rows with "
               f"squared norms up to {largest:.4g}")
    layer = init_layer(2, 3, 4, 2, 0, "CS", KernelConfig(1e-154), 20.0)
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gate_matrix(X, layer)
    layer = init_layer(2, 3, 4, 2, 0, "CS", KernelConfig(1e-152), 20.0)
    assert np.all(np.isfinite(gate_matrix(X, layer)))


def test_layer_rejects_bad_stacked_arrays():
    rng = np.random.default_rng(18)
    w, b = rng.normal(size=(3, 2, 2)), np.zeros((2, 2))
    GduLayer(np.zeros((2, 4, 3)), w, b, CFG, "PROJECTION")
    for bases in (np.zeros((4, 3)), np.zeros((2, 0, 3)), np.full((2, 4, 3), np.nan)):
        with pytest.raises(ValueError, match="bas"):
            GduLayer(bases, w, b, CFG, "PROJECTION")
    for weights, bias in (
        (rng.normal(size=(2, 3, 2)), b),  # (M, e, C) instead of (e, M, C)
        (rng.normal(size=(3, 2, 2)), np.zeros((3, 2))),
        (rng.normal(size=(3, 2, 2)), np.zeros(2)),
        (rng.normal(size=(3, 2, 3)), b),
    ):
        with pytest.raises(ValueError, match="weights"):
            GduLayer(np.zeros((2, 4, 3)), weights, bias, CFG, "PROJECTION")


def test_init_layer_cross_basis_kernel_target():
    # Monte-Carlo check of the init target: mean off-diagonal entry of the
    # basis Gram matrix stays below 0.1 for M=5, N=10, e=20, sigma=4.
    cfg = KernelConfig(sigma=4.0)
    vals = []
    for seed in range(100):
        layer = init_layer(5, 10, 20, 2, seed=seed, mode="MMD", kernel=cfg, kappa=2.0)
        k = np.asarray(basis_gram_matrix(layer))
        off = k[~np.eye(5, dtype=bool)]
        vals.append(off.mean())
    assert float(np.mean(vals)) < 0.1


def test_init_layer_gram_diagonal_lower_bound():
    layer = init_layer(4, 10, 6, 2, seed=1, mode="CS", kernel=CFG, kappa=2.0)
    diag = np.diag(np.asarray(basis_gram_matrix(layer)))
    assert (diag >= 1.0 / 10 - 1e-15).all()


def test_basis_init_scale_formula():
    # (1 + 2 s^2 / sigma^2)^(-e/2) <= 0.1 must hold at the chosen scale.
    for e, sigma in ((4, 1.0), (8, 2.0), (20, 4.0)):
        s = basis_init_scale(e, sigma)
        expected_kernel = (1.0 + 2.0 * s**2 / sigma**2) ** (-e / 2.0)
        assert expected_kernel < 0.1


@pytest.mark.parametrize("index, name", list(enumerate(
    ["num_bases", "basis_size", "feature_dim", "n_outputs", "seed"])))
@pytest.mark.parametrize("bad", [2.0, True, np.float64(3.0)])
def test_init_layer_requires_integer_sizes_and_seed(index, name, bad):
    args = [2, 3, 4, 2, 0]
    args[index] = bad
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad}$"):
        init_layer(*args, "CS", CFG, kappa=2.0)
    args[index] = np.int64(2)
    init_layer(*args, "CS", CFG, kappa=2.0)


@pytest.mark.parametrize("mode", ["CS", "MMD", "PROJECTION"])
def test_init_layer_requires_a_kernel(mode):
    # It used to fail reading ``kernel.sigma`` with an AttributeError.
    with pytest.raises(ValueError, match="^init_layer scales the bases to the kernel, got kernel=None$"):
        init_layer(2, 3, 4, 2, 0, mode, None)


@pytest.mark.parametrize("kernel", [CFG, None])
def test_init_layer_sends_uniform_layers_to_init_erm_model(kernel):
    # The constructor used to reject the drawn bases with a message about
    # arguments ``init_layer`` does not take.
    with mock.patch.object(np.random, "default_rng") as draw, pytest.raises(
        ValueError, match="UNIFORM layer has none; make an ERM model with training.init_erm_model$"
    ):
        init_layer(2, 3, 4, 2, 0, "UNIFORM", kernel)
    draw.assert_not_called()


def test_layer_validation():
    with pytest.raises(ValueError, match="kappa"):
        make_layer([[[0.0]]], "CS", kappa=None)
    with pytest.raises(ValueError, match="mode"):
        make_layer([[[0.0]]], "COSINE", kappa=1.0)
    with pytest.raises(ValueError):
        init_layer(0, 1, 1, 1, seed=0, mode="CS", kernel=CFG, kappa=1.0)
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError):
        GduLayer(
            np.zeros((2, 2, 4)),
            rng.normal(size=(3, 2, 2)),
            np.zeros((2, 2)),
            CFG,
            "MMD",
            kappa=1.0,
        )


def test_uniform_layer_gates_every_row_at_one_over_m():
    rng = np.random.default_rng(25)
    weights, bias = rng.normal(size=(3, 4, 2)), rng.normal(size=(4, 2))
    layer = GduLayer(None, weights, bias, None, UNIFORM)
    assert (layer.num_bases, layer.feature_dim, layer.n_outputs) == (4, 3, 2)
    X = rng.normal(size=(5, 3))
    beta = gate_matrix(X, layer)
    assert isinstance(beta, np.ndarray)
    np.testing.assert_array_equal(beta, np.full((5, 4), 0.25))
    np.testing.assert_array_equal(gate_matrix(X[:1], layer)[0], np.full(4, 0.25))
    mean = sum(X @ layer.weights[:, j] + layer.bias[j] for j in range(4)) / 4.0
    np.testing.assert_allclose(forward_batch(X, layer), mean, rtol=1e-13, atol=1e-14)


def test_a_one_head_uniform_layer_is_its_head_bit_for_bit():
    # One-head ERM builds no gate: its output, and the backward to X, the
    # weights and the bias, are those of the head weighted by a gate of ones.
    rng = np.random.default_rng(27)
    weights, bias, X = rng.normal(size=(3, 1, 4)), rng.normal(size=(1, 4)), rng.normal(size=(6, 3))
    g = rng.normal(size=(6, 4))

    def run(beta):
        layer = GduLayer(None, weights, bias, None, UNIFORM)
        out, back = _ensemble(X, layer, beta=beta)
        return [out.tobytes()] + [grad.tobytes() for grad in back(g, True)[:3]]

    head = run(None)
    assert head == run(np.ones((6, 1)))
    layer = GduLayer(None, weights, bias, None, UNIFORM)
    np.testing.assert_allclose(forward_batch(X, layer), X @ weights[:, 0] + bias[0],
                               rtol=1e-15, atol=1e-15)
    assert forward_batch(X, layer).tobytes() == head[0]
    # gate_matrix still builds its constant rows, and an explicit gate
    # still weights the head: 0.5 gives half of it.
    np.testing.assert_array_equal(gate_matrix(X, layer), np.ones((6, 1)))
    np.testing.assert_array_equal(forward_batch(X, layer, beta=np.full((6, 1), 0.5)),
                                  0.5 * forward_batch(X, layer))


@pytest.mark.parametrize("shape", [(2, 3, 3), (3,), ()], ids=str)
@pytest.mark.parametrize("mode", ["CS", UNIFORM])
def test_a_feature_batch_that_is_not_2d_is_named(mode, shape):
    # On a CS layer a (2, 3, 3) X blamed the bases' runs of rows; on a
    # UNIFORM layer it failed inside numpy's reshape.
    rng = np.random.default_rng(26)
    if mode == UNIFORM:
        layer = GduLayer(None, rng.normal(size=(3, 2, 2)), rng.normal(size=(2, 2)), None, UNIFORM)
    else:
        layer = random_layer(rng, mode)
    named = rf"^X must be a \(b, e\) feature batch, got shape {re.escape(str(shape))}$"
    for call in (gate_matrix, forward_batch):
        with pytest.raises(ValueError, match=named):
            call(np.ones(shape), layer)


def test_uniform_layer_takes_no_bases_and_kernel_gates_need_them():
    w, b = np.zeros((3, 2, 2)), np.zeros((2, 2))
    with pytest.raises(ValueError, match="UNIFORM layer has no bases"):
        GduLayer(np.zeros((2, 4, 3)), w, b, CFG, UNIFORM)
    for mode in GATING_MODES:
        kappa = 1.0 if mode in GEOMETRY_MODES else None
        with pytest.raises(ValueError, match="bases must form a nonempty"):
            GduLayer(None, w, b, CFG, mode, kappa=kappa)
    with pytest.raises(ValueError, match="weights"):
        GduLayer(None, np.zeros((3, 0, 2)), np.zeros((0, 2)), None, UNIFORM)


def test_kernel_gates_need_a_kernel():
    w, b = np.zeros((3, 2, 2)), np.zeros((2, 2))
    for mode in GATING_MODES:
        kappa = 1.0 if mode in GEOMETRY_MODES else None
        with pytest.raises(ValueError, match=f"a {mode} layer needs a kernel"):
            GduLayer(np.zeros((2, 4, 3)), w, b, None, mode, kappa=kappa)


def test_uniform_layer_takes_no_kernel():
    w, b = np.zeros((3, 2, 2)), np.zeros((2, 2))
    with pytest.raises(ValueError, match="UNIFORM layer has no bases and no kernel"):
        GduLayer(None, w, b, CFG, UNIFORM)


def test_kappa_is_for_the_geometry_modes_only():
    # The PROJECTION and UNIFORM gates never read kappa, so passing one is a mistake.
    w, b = np.zeros((3, 2, 2)), np.zeros((2, 2))
    for kappa in (50.0, 0.0):
        with pytest.raises(ValueError, match=f"a PROJECTION layer takes no kappa, got kappa={kappa}"):
            init_layer(2, 4, 3, 2, 0, "PROJECTION", CFG, kappa=kappa)
        with pytest.raises(ValueError, match=f"a UNIFORM layer takes no kappa, got kappa={kappa}"):
            GduLayer(None, w, b, None, UNIFORM, kappa=kappa)
    assert init_layer(2, 4, 3, 2, 0, "PROJECTION", CFG).kappa is None
    assert GduLayer(None, w, b, None, UNIFORM).kappa is None


def test_geometry_kappa_must_be_finite():
    for mode in ("CS", "MMD"):
        for kappa in (math.inf, math.nan, -math.inf):
            with pytest.raises(ValueError, match="finite kappa > 0"):
                make_layer([[[0.0]], [[2.0]]], mode, kappa=kappa)


def test_uniform_layer_kernel_statistics_raise_a_named_error():
    layer = init_erm_model([3, 4], 2, 2, 0).layer
    X = np.random.default_rng(26).normal(size=(5, 4))
    for stat in (
        lambda: basis_gram_matrix(layer),
        lambda: _basis_inners(X, layer),
    ):
        with pytest.raises(ValueError, match="UNIFORM layer has no bases to embed"):
            stat()


def test_a_uniform_layer_has_no_basis_size():
    # It read the shape of bases=None and raised an unnamed AttributeError.
    layer = init_erm_model([3, 4], 2, 2, 0).layer
    with pytest.raises(ValueError, match="^a UNIFORM layer has no bases, so no basis size$"):
        layer.basis_size


# -- the per-row reductions ------------------------------------------------------------

# Signed zeros, infinities, NaN and both ends of the magnitude range.
_EDGE_VALUES = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, -1e-300, 1e300, -1e300)
_EDGE = np.array(_EDGE_VALUES)
_row_values = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.builds(lambda m, p: m * 10.0**p, st.floats(-9.9, 9.9), st.integers(-300, 299)),
    st.floats(allow_nan=True, allow_infinity=True),
)
# Zero, one and many rows, as (b, width) gates and (b, M, width) machine outputs.
_LEADING_SHAPES = ((0,), (1,), (9,), (0, 3), (1, 4), (5, 3))


@st.composite
def row_arrays(draw, max_width, min_width=1):
    """An array whose last axis is ``min_width`` to ``max_width`` wide, edge values included.

    A drawn list fills a small array; a drawn seed fills a 200-row one from a
    mix of edge values and magnitudes from 1e-300 to 1e300.
    """
    width = draw(st.integers(min_width, max_width))
    if draw(st.booleans()):
        shape = draw(st.sampled_from(_LEADING_SHAPES)) + (width,)
        n = math.prod(shape)
        return np.array(draw(st.lists(_row_values, min_size=n, max_size=n))).reshape(shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (200, width) if draw(st.booleans()) else (50, 4, width)
    a = rng.choice((-1.0, 1.0), size=shape) * 10.0 ** rng.uniform(-300, 300, size=shape)
    edge = rng.random(shape) < draw(st.sampled_from((0.0, 0.05, 0.5)))
    a[edge] = rng.choice(_EDGE, size=int(edge.sum()))
    return a


def assert_same_bits(got, want, unsigned=None):
    """Equal values, NaN where ``want`` has NaN, and equal sign bits.

    The sign of a NaN is left out: numpy does not fix which NaN a row with
    several comes to. So are the places ``unsigned`` marks.
    """
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    signed = ~np.isnan(want) if unsigned is None else ~np.isnan(want) & ~unsigned
    np.testing.assert_array_equal(np.signbit(got)[signed], np.signbit(want)[signed])


REDUCE_SETTINGS = settings(derandomize=True, deadline=None, max_examples=100)


@REDUCE_SETTINGS
@given(row_arrays(max_width=_NUMPY_PAIRWISE_BLOCK - 1))
def test_row_sum_is_numpys_sum_bit_for_bit(a):
    with np.errstate(all="ignore"):
        assert_same_bits(_row_sum(a), np.sum(a, axis=-1, keepdims=True))


@REDUCE_SETTINGS
@given(row_arrays(max_width=3 * _NUMPY_PAIRWISE_BLOCK))
def test_row_max_is_numpys_max_bit_for_bit(a):
    # Where +0.0 and -0.0 tie for a row's maximum, np.max's vectorized path
    # (rows wider than one SIMD register) may return the other zero.
    # Subtracting either zero gives the same exp.
    want = np.max(a, axis=-1, keepdims=True)
    zeros = a == 0.0
    tie = (want == 0.0) & np.any(zeros & np.signbit(a), axis=-1, keepdims=True)
    tie &= np.any(zeros & ~np.signbit(a), axis=-1, keepdims=True)
    assert_same_bits(_row_max(a), want, unsigned=tie)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(row_arrays(max_width=3 * _NUMPY_PAIRWISE_BLOCK, min_width=_NUMPY_PAIRWISE_BLOCK))
def test_wide_row_sum_is_numpys_sum(a):
    # From 8 terms on numpy sums over 8 accumulators; the helper hands wide
    # rows to np.sum.
    with np.errstate(all="ignore"):
        assert_same_bits(_row_sum(a), np.sum(a, axis=-1, keepdims=True))


def test_the_pairwise_block_is_numpys_boundary():
    # Each +1 after 1e16 rounds away in a left-to-right sum; numpy's 8
    # accumulators add the ones among themselves first. Below 8 terms the
    # two orders agree.
    def left_to_right(row):
        total = 0.0
        for value in row:
            total += value
        return total

    for width in (_NUMPY_PAIRWISE_BLOCK - 1, _NUMPY_PAIRWISE_BLOCK):
        row = np.array([[1e16] + [1.0] * (width - 1)])
        numpy_sum = np.sum(row, axis=-1)[0]
        assert (numpy_sum == left_to_right(row[0])) == (width < _NUMPY_PAIRWISE_BLOCK)
        assert _row_sum(row)[0, 0] == numpy_sum
