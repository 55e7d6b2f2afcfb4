"""Feature extractor, loss, gradients, and the training loop."""

import copy
import gc
import math
import re
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import gdu
from gdu.checkpoint import model_from_text, model_to_text
from gdu.kernel import DimensionMismatchError, KernelConfig
from gdu.layer import (
    GduLayer,
    basis_gram_matrix,
    forward_batch,
    gate_matrix,
    init_layer,
)
from gdu.regularization import (
    RegConfig,
    omega_l1,
    omega_ols,
    omega_orth,
)
from gdu.training import (
    DatasetSplits,
    FeatureExtractor,
    GduModel,
    NonFiniteGradientError,
    TrainConfig,
    TrainingDivergedError,
    _Adam,
    _build_objective,
    _gradient_layout,
    accuracy,
    cross_entropy_mean,
    fe_forward,
    gradients,
    init_erm_model,
    init_feature_extractor,
    objective,
    predict_logits,
    train,
    trainable_arrays,
)

from helpers import SMALL_DIMS, build_small_gdu, gradient_max_rel_error, layer_ols, reg_toggles
from oracles import OP_CHAINS, mlp_forward_brute, three_node_gradients, train_loop


# -- feature extractor ---------------------------------------------------------


def test_fe_identity_single_layer():
    fe = FeatureExtractor([np.eye(3)], [np.zeros(3)], "relu")
    x = np.array([0.5, -2.0, 1.0])
    np.testing.assert_array_equal(fe_forward(x, fe), x)


def test_fe_zero_weights_yield_bias():
    bias = np.array([-1.0, 2.0])
    fe = FeatureExtractor([np.zeros((3, 4)), np.zeros((4, 2))], [np.ones(4), bias], "relu")
    # Final layer is affine, so the output is exactly the last bias.
    np.testing.assert_array_equal(fe_forward(np.ones(3), fe), bias)


@pytest.mark.parametrize("nonlinearity", ["relu", "tanh"])
def test_fe_matches_brute_force_oracle(nonlinearity):
    rng = np.random.default_rng(0)
    fe = init_feature_extractor([4, 6, 3], seed=5, nonlinearity=nonlinearity)
    for _ in range(5):
        x = rng.normal(size=4)
        expected = mlp_forward_brute(x, fe.weights, fe.biases, nonlinearity)
        np.testing.assert_allclose(fe_forward(x, fe), expected, atol=1e-12)


def test_fe_batch_matches_single():
    fe = init_feature_extractor([3, 5, 2], seed=1)
    rng = np.random.default_rng(2)
    X = rng.normal(size=(6, 3))
    batched = fe_forward(X, fe)
    for i in range(6):
        np.testing.assert_allclose(batched[i], fe_forward(X[i], fe), atol=1e-14)


def test_fe_validation():
    with pytest.raises(ValueError):
        FeatureExtractor([np.eye(2)], [np.zeros(3)], "relu")
    with pytest.raises(ValueError):
        FeatureExtractor([np.eye(2)], [np.zeros(2)], "sigmoid")


def test_fe_rejects_layer_sizes_that_do_not_chain():
    weights = [np.zeros((3, 4)), np.zeros((5, 2))]
    with pytest.raises(ValueError, match="layer 1 takes 5 inputs, but layer 0 gives 4"):
        FeatureExtractor(weights, [np.zeros(4), np.zeros(2)])


def test_model_rejects_an_extractor_that_does_not_feed_the_layer():
    fe = init_feature_extractor([3, 5], seed=0)
    layer = init_layer(2, 3, 4, 2, 1, "CS", KernelConfig(1.0), kappa=2.0)
    with pytest.raises(ValueError, match="extractor output size 5 does not match"):
        GduModel(fe, layer)
    GduModel(None, layer)


# -- cross-entropy, on 1-row batches ----------------------------------------------


def test_loss_ce_uniform_logits():
    assert cross_entropy_mean(np.zeros((1, 10)), [3]) == pytest.approx(
        math.log(10.0), abs=1e-12
    )


def test_loss_ce_saturated_favoring_true_class():
    logits = np.zeros((1, 4))
    logits[0, 2] = 1000.0
    assert cross_entropy_mean(logits, [2]) == pytest.approx(0.0, abs=1e-12)


def test_loss_ce_two_class_closed_form():
    assert cross_entropy_mean(np.array([[1.0, 0.0]]), [0]) == pytest.approx(
        0.3132616875182228, abs=1e-12
    )


def test_loss_ce_validation():
    with pytest.raises(ValueError, match="C >= 2"):
        cross_entropy_mean(np.array([[1.0]]), [0])
    with pytest.raises(ValueError, match="label 5"):
        cross_entropy_mean(np.zeros((1, 3)), [5])


def test_cross_entropy_mean_matches_loss_ce():
    # The batch mean equals the mean of the 1-row losses.
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(7, 4))
    labels = rng.integers(0, 4, size=7)
    expected = np.mean([cross_entropy_mean(logits[i : i + 1], labels[i : i + 1])
                        for i in range(7)])
    assert float(cross_entropy_mean(logits, labels)) == pytest.approx(
        expected, abs=1e-12
    )


# -- objective --------------------------------------------------------------------


def test_objective_reduces_to_cross_entropy_without_reg():
    model, X, y = build_small_gdu(0, "MMD")
    from gdu.layer import forward_batch

    feats = fe_forward(X, model.fe)
    logits = np.asarray(forward_batch(feats, model.layer))
    assert objective((X, y), model, RegConfig()) == pytest.approx(
        float(cross_entropy_mean(logits, y)), abs=1e-12
    )


def test_objective_recomposes_from_parts():
    from gdu.layer import forward_batch, gate_matrix

    for mode, reg in [
        ("CS", RegConfig(lambda_ols=0.3, lambda_l1=0.2)),
        ("PROJECTION", RegConfig(lambda_ols=0.3, lambda_orth=0.1)),
    ]:
        model, X, y = build_small_gdu(1, mode)
        feats = np.asarray(fe_forward(X, model.fe))
        beta = gate_matrix(feats, model.layer)
        logits = np.asarray(forward_batch(feats, model.layer, beta=beta))
        expected = float(cross_entropy_mean(logits, y)) + reg.lambda_ols * float(
            layer_ols(feats, beta, model.layer)
        )
        if mode == "CS":
            expected += reg.lambda_l1 * float(omega_l1(beta))
        else:
            k_bases = np.asarray(basis_gram_matrix(model.layer))
            expected += reg.lambda_orth * float(omega_orth(k_bases))
        assert objective((X, y), model, reg) == pytest.approx(expected, abs=1e-12)


def test_objective_builds_no_tape_and_equals_the_tape_value_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(7)
    erm = init_erm_model([4, 4], 3, n_heads=2, seed=8)
    cases = [(erm, rng.normal(size=(5, 4)), rng.integers(0, 3, size=5), RegConfig())]
    for seed, mode in enumerate(("CS", "MMD", "PROJECTION")):
        for nonlinearity in ("tanh", "relu"):
            model, X, y = build_small_gdu(seed, mode, fe_nonlinearity=nonlinearity)
            cases += [(model, X, y, reg) for reg in reg_toggles(mode)]
    tape = [float(_build_objective(m, X, y, reg, _gradient_layout(m)[1]).data)
            for m, X, y, reg in cases]

    def no_tensor(*args, **kwargs):
        raise AssertionError("objective built a tape node")

    monkeypatch.setattr(gdu.autodiff.Tensor, "__init__", no_tensor)
    assert [objective((X, y), m, reg) for m, X, y, reg in cases] == tape


# -- gradients ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["CS", "MMD", "PROJECTION"])
@pytest.mark.parametrize("train_mode", ["E2E", "FT"])
def test_gradients_match_finite_differences(mode, train_mode):
    for seed in (0, 1, 2):
        model, X, y = build_small_gdu(10 * seed + 3, mode)
        for reg in reg_toggles(mode):
            err = gradient_max_rel_error(model, X, y, reg, train_mode)
            assert err < 1e-4, f"mode={mode} {train_mode} reg={reg} err={err:.2e}"


# Every regularizer combination that reads the basis Gram, per mode.
_GRAM_REGS = {
    "CS": [RegConfig(lambda_ols=0.5), RegConfig(lambda_ols=0.5, lambda_l1=0.5)],
    "MMD": [RegConfig(lambda_ols=0.5), RegConfig(lambda_ols=0.5, lambda_l1=0.5)],
    "PROJECTION": [
        RegConfig(lambda_ols=0.5),
        RegConfig(lambda_orth=0.5),
        RegConfig(lambda_ols=0.5, lambda_orth=0.5),
    ],
}


@pytest.mark.parametrize("m, n", [(2, 3), (1, 3), (2, 1)])
@pytest.mark.parametrize("train_mode", ["E2E", "FT"])
@pytest.mark.parametrize(
    "mode, reg", [(mode, reg) for mode, regs in _GRAM_REGS.items() for reg in regs]
)
def test_basis_gram_steps_match_finite_differences_and_three_kernel_nodes(
    mode, reg, train_mode, m, n
):
    # One kernel node gives such a step the gate's inner products, the basis
    # norms and the basis Gram; one node per statistic is the reference,
    # equal up to the rounding of one matmul against three.
    model, X, y = build_small_gdu(31, mode, dims={**SMALL_DIMS, "m": m, "n": n})
    assert gradient_max_rel_error(model, X, y, reg, train_mode) < 1e-4
    got = gradients((X, y), model, reg, train_mode)
    expected = three_node_gradients((X, y), model, reg, train_mode)
    chains = three_node_gradients((X, y), model, reg, train_mode, nodes=OP_CHAINS)
    assert list(got) == list(expected) == list(chains)
    for name, block in expected.items():
        np.testing.assert_allclose(got[name], block, rtol=1e-12, atol=0.0, err_msg=name)
        np.testing.assert_allclose(got[name], chains[name], rtol=1e-12, atol=0.0, err_msg=name)


@pytest.mark.parametrize("train_mode", ["E2E", "FT"])
@pytest.mark.parametrize("mode", ["CS", "MMD", "PROJECTION", "ERM"])
def test_steps_without_the_basis_gram_keep_three_kernel_nodes_exactly(mode, train_mode):
    if mode == "ERM":
        model = init_erm_model([4, 4], 3, n_heads=3, seed=8)
        X, y = np.random.default_rng(32).normal(size=(5, 4)), np.array([0, 2, 1, 1, 0])
    else:
        model, X, y = build_small_gdu(32, mode)
    _assert_three_kernel_nodes_exactly(model, X, y, mode, train_mode)


# (b, M, N, e) of the benchmark's training steps on train-small and select-serve.
@pytest.mark.parametrize("b, m, n, e", [(64, 4, 10, 16), (256, 6, 16, 16)])
@pytest.mark.parametrize("train_mode", ["E2E", "FT"])
@pytest.mark.parametrize("mode", ["CS", "MMD", "PROJECTION"])
def test_steps_without_the_basis_gram_keep_three_kernel_nodes_exactly_at_bench_shapes(
    mode, train_mode, b, m, n, e
):
    dims = dict(e=e, m=m, n=n, c=3, b=b)
    model, X, y = build_small_gdu(34, mode, sigma=math.sqrt(e), dims=dims)
    _assert_three_kernel_nodes_exactly(model, X, y, mode, train_mode)


def _assert_three_kernel_nodes_exactly(model, X, y, mode, train_mode):
    """``gradients`` equals ``three_node_gradients`` bit for bit, without the basis Gram.

    The op chains agree within rounding only, as their op-by-op
    derivatives round otherwise than the hand-written backwards: each block
    within 1e-12 of its largest entry.
    """
    regs = [RegConfig()] + ([RegConfig(lambda_l1=0.5)] if mode in ("CS", "MMD") else [])
    for reg in regs:
        got = gradients((X, y), model, reg, train_mode)
        expected = three_node_gradients((X, y), model, reg, train_mode)
        chains = three_node_gradients((X, y), model, reg, train_mode, nodes=OP_CHAINS)
        assert list(got) == list(expected) == list(chains)
        for name, block in expected.items():
            np.testing.assert_array_equal(got[name], block, err_msg=name)
            atol = 1e-12 * np.abs(block).max()
            np.testing.assert_allclose(got[name], chains[name], rtol=1e-12, atol=atol,
                                       err_msg=name)


# (b, M, N, e) of the benchmark's serving batches on select-serve, its
# training steps on train-wide, and its training steps on train-small.
@pytest.mark.parametrize("b, m, n, e", [(1000, 6, 16, 16), (256, 10, 50, 64), (64, 4, 10, 16)])
@pytest.mark.parametrize("mode", ["CS", "MMD", "PROJECTION"])
def test_predict_logits_is_the_ensemble_under_its_gate_at_bench_shapes(mode, b, m, n, e):
    fe = init_feature_extractor([8, e], seed=b)
    kappa = None if mode == "PROJECTION" else 2.0
    model = GduModel(fe, init_layer(m, n, e, 3, b, mode, KernelConfig(math.sqrt(e)), kappa))
    X = np.random.default_rng(m).normal(size=(b, 8))
    feats = fe_forward(X, fe)
    expected = forward_batch(feats, model.layer, beta=gate_matrix(feats, model.layer))
    np.testing.assert_array_equal(predict_logits(model, X), expected)


def test_one_gaussian_gram_per_step_and_none_of_the_bases_in_inference(monkeypatch):
    # A step whose regularizers read the basis Gram evaluates one Gram, of
    # the M*N basis vectors against the batch and the basis vectors. Every
    # other step, and inference, evaluate only the basis vectors against the
    # batch and the M diagonal (N, N) blocks, never an (M*N, M*N) block:
    # on a wide layer that would almost double the kernel work of serving.
    # Every Gram goes through _gaussian_gram, which takes augmented rows.
    import gdu.kernel as kernel_module

    shapes = []
    real = kernel_module._gaussian_gram

    def spy(left, right):
        G = real(left, right)
        shapes.append(G.shape)
        return G

    monkeypatch.setattr(kernel_module, "_gaussian_gram", spy)
    b, m, n = 7, 3, 4
    inference = [(m * n, b), (m, n, n)]
    for mode, reg in (("CS", RegConfig(lambda_ols=0.5, lambda_l1=0.5)),
                      ("PROJECTION", RegConfig(lambda_ols=0.5, lambda_orth=0.5))):
        model, X, y = build_small_gdu(33, mode, dims=dict(e=4, m=m, n=n, c=3, b=b))
        for train_mode in ("E2E", "FT"):
            shapes.clear()
            gradients((X, y), model, reg, train_mode)
            assert shapes == [(m * n, b + m * n)], (mode, train_mode)
            shapes.clear()
            gradients((X, y), model, RegConfig(), train_mode)
            assert shapes == inference, (mode, train_mode)
        shapes.clear()
        predict_logits(model, X)
        gate_matrix(fe_forward(X, model.fe), model.layer)
        assert shapes == inference * 2, mode


def test_gradients_relu_extractor_away_from_kinks():
    # Seed chosen so no relu preactivation sits within reach of the FD step.
    model, X, y = build_small_gdu(5, "CS", fe_nonlinearity="relu")
    pre = np.asarray(X @ model.fe.weights[0] + model.fe.biases[0])
    assert np.abs(pre).min() > 1e-3
    err = gradient_max_rel_error(model, X, y, RegConfig(lambda_ols=0.5), "E2E")
    assert err < 1e-4


def test_ft_mode_excludes_extractor_blocks():
    model, X, y = build_small_gdu(4, "MMD")
    grads = gradients((X, y), model, RegConfig(), train_mode="FT")
    assert not any(name.startswith("fe.") for name in grads)
    grads_e2e = gradients((X, y), model, RegConfig(), train_mode="E2E")
    assert any(name.startswith("fe.") for name in grads_e2e)


def test_unknown_train_mode_is_rejected():
    model, X, y = build_small_gdu(4, "MMD")
    for bad in ("e2e", "ft", "", "WARMUP"):
        with pytest.raises(ValueError, match=f"unknown training mode '{bad}'"):
            gradients((X, y), model, RegConfig(), bad)
        with pytest.raises(ValueError, match=f"unknown training mode '{bad}'"):
            trainable_arrays(model, bad)


def test_machine_views_write_through_to_the_layer():
    # The benchmark's gradient probe perturbs the biases through
    # ``layer.machines``; copies would leave the layer unchanged.
    rng = np.random.default_rng(16)
    layer = init_layer(3, 2, 4, 3, 8, "CS", KernelConfig(1.5), kappa=2.0)
    model = GduModel(None, layer)
    X = rng.normal(size=(5, 4))
    y = rng.integers(0, 3, size=5)
    for machine in layer.machines:
        assert np.shares_memory(machine.bias, layer.bias)
        assert np.shares_memory(machine.weights, layer.weights)
    logits = np.asarray(forward_batch(X, layer))
    grad = gradients((X, y), model, RegConfig())["layer.bias"]
    for machine in layer.machines:
        machine.bias += rng.normal(scale=0.3, size=3)
    assert np.all(layer.bias != 0.0)
    assert not np.allclose(np.asarray(forward_batch(X, layer)), logits)
    assert not np.allclose(gradients((X, y), model, RegConfig())["layer.bias"], grad)


def test_a_model_built_from_nested_lists_holds_float64_arrays():
    # The layer and the extractor convert their blocks once, on
    # construction, so every reader gets arrays: live blocks that an
    # in-place edit moves, machine views that write through, and the
    # gradients of the same model built from arrays, bit for bit.
    model, X, y = build_small_gdu(17, "CS")
    reg = RegConfig(lambda_ols=0.5, lambda_l1=0.5)
    fe, layer = model.fe, model.layer
    listed = GduModel(
        FeatureExtractor([w.tolist() for w in fe.weights], [b.tolist() for b in fe.biases],
                         fe.nonlinearity),
        GduLayer(layer.bases.tolist(), layer.weights.tolist(), layer.bias.tolist(),
                 layer.kernel, layer.mode, layer.kappa),
    )
    for name, block in trainable_arrays(listed, "E2E").items():
        assert type(block) is np.ndarray and block.dtype == np.float64, name
    want = gradients((X, y), model, reg)
    got = gradients((X, y), listed, reg)
    assert list(got) == list(want)
    for name in want:
        np.testing.assert_array_equal(got[name], want[name], strict=True)
    for j, machine in enumerate(listed.layer.machines):
        machine.bias += 1.0
        np.testing.assert_array_equal(listed.layer.bias[j], layer.bias[j] + 1.0)
    before = objective((X, y), listed, reg)
    trainable_arrays(listed, "E2E")["fe.w0"][0, 0] += 0.25
    assert objective((X, y), listed, reg) != before
    # A float64 array is kept as it is, not copied.
    assert GduLayer(None, layer.weights, layer.bias, None, "UNIFORM").weights is layer.weights
    assert FeatureExtractor(fe.weights, fe.biases).weights[0] is fe.weights[0]


def test_gradients_leave_no_cyclic_garbage():
    # A backward closure must not reference itself, or every step's
    # arrays (with its gradients) outlive it until the cyclic collector runs.
    gc.collect()
    gc.disable()
    try:
        for mode in ("CS", "MMD", "PROJECTION"):
            model, X, y = build_small_gdu(0, mode)
            model.fe = init_feature_extractor([4, 5, 4], 1)
            for reg in reg_toggles(mode):
                gradients((X, y), model, reg)
                assert gc.collect() == 0, (mode, reg)
    finally:
        gc.enable()


def test_gradients_of_two_calls_share_no_memory():
    model, X, y = build_small_gdu(1, "CS")
    first = gradients((X, y), model, reg_toggles("CS")[-1])
    second = gradients((X, y), model, reg_toggles("CS")[-1])
    params = list(trainable_arrays(model, "E2E").values())
    for name, block in first.items():
        np.testing.assert_array_equal(block, second[name])
        assert not any(np.shares_memory(block, other) for other in second.values()), name
        assert not any(np.shares_memory(block, param) for param in params), name


@pytest.mark.parametrize("train_mode", ["E2E", "FT"])
@pytest.mark.parametrize("mode", ["CS", "MMD", "PROJECTION", "ERM"])
def test_a_step_objective_is_one_node_without_parents(mode, train_mode):
    # Whatever the regularizers, M and the extractor's depth, a step's
    # objective is one tape node with no parents. Its value is objective's,
    # and its one backward writes gradients' blocks.
    rng = np.random.default_rng(0)
    X10, y3 = rng.normal(size=(64, 10)), rng.integers(0, 3, size=64)
    if mode == "ERM":
        cases = [(init_erm_model([10, 6, 4], 3, heads, 0), X10, y3, RegConfig())
                 for heads in (1, 3)]
    else:
        kappa = None if mode == "PROJECTION" else 20.0
        deep = GduModel(init_feature_extractor([10, 32, 16], 0),
                        init_layer(4, 10, 16, 3, 1, mode, KernelConfig(3.0), kappa))
        cases = [(deep, X10, y3, reg) for reg in reg_toggles(mode)]
        for m in (2, 10):
            model, X, y = build_small_gdu(6, mode, dims={**SMALL_DIMS, "m": m})
            cases += [(model, X, y, reg) for reg in reg_toggles(mode)]
    for model, X, y, reg in cases:
        (part,) = gdu.training._trained_part(model, train_mode)
        feats = X if train_mode == "E2E" else fe_forward(X, model.fe)
        grad, views = _gradient_layout(part)
        obj = _build_objective(part, feats, y, reg, views)
        assert isinstance(obj, gdu.autodiff.Tensor) and obj._parents == ()
        assert float(obj.data) == objective((X, y), model, reg)
        obj.backward()
        expected = gradients((X, y), model, reg, train_mode)
        assert list(views) == list(expected)
        assert grad.tobytes() == np.concatenate([g.ravel() for g in expected.values()]).tobytes()


def test_erm_model_gradients_match_fd():
    rng = np.random.default_rng(6)
    model = init_erm_model([4, 4], 3, n_heads=3, seed=8)
    model.layer.bias += rng.normal(scale=0.3, size=(3, 3))
    X = rng.normal(size=(5, 4))
    y = rng.integers(0, 3, size=5)
    names = ["fe.w0", "fe.b0", "layer.weights", "layer.bias"]
    assert list(trainable_arrays(model, "E2E")) == names
    err = gradient_max_rel_error(model, X, y, RegConfig(), "E2E")
    assert err < 1e-4


def test_erm_model_is_the_uniform_ensemble_of_its_heads():
    # init_erm_model keeps the per-head random stream: the extractor, then
    # each head's (e, C) uniforms in turn from a generator seeded seed + 1.
    model = init_erm_model([3, 4], 2, n_heads=3, seed=21)
    assert (model.layer.mode, model.layer.bases, model.layer.kernel) == ("UNIFORM", None, None)
    rng = np.random.default_rng(22)
    heads = [rng.uniform(-0.5, 0.5, size=(4, 2)) for _ in range(3)]
    for j, head in enumerate(heads):
        np.testing.assert_array_equal(model.layer.weights[:, j], head)
    np.testing.assert_array_equal(model.layer.bias, np.zeros((3, 2)))
    X = np.random.default_rng(23).normal(size=(6, 3))
    feats = fe_forward(X, model.fe)
    expected = sum(feats @ head for head in heads) / 3.0
    np.testing.assert_allclose(predict_logits(model, X), expected, rtol=1e-14, atol=1e-15)


def test_predict_logits_names_the_first_non_finite_row(monkeypatch):
    cs, X, _ = build_small_gdu(0, "CS")
    for model in (cs, init_erm_model([4, 4], 3, n_heads=2, seed=8)):
        for bad in (np.nan, np.inf, -np.inf):
            Xb = X.copy()
            Xb[3, 1], Xb[4, 0] = bad, bad
            with monkeypatch.context() as patched:
                # The rows are refused before the extractor runs.
                patched.setattr(gdu.training, "fe_forward", None)
                message = "predict_logits needs finite rows, but row 3 is not"
                with pytest.raises(ValueError, match=message):
                    predict_logits(model, Xb)
                with pytest.raises(ValueError, match="row 3"):
                    accuracy(model, Xb, np.zeros(len(Xb), dtype=int))
        assert np.all(np.isfinite(predict_logits(model, X)))


@pytest.mark.parametrize("name", ["lambda_ols", "lambda_orth", "lambda_l1"])
def test_uniform_layer_rejects_regularizer_weights(name):
    rng = np.random.default_rng(24)
    model = init_erm_model([4, 4], 3, n_heads=2, seed=8)
    X, y = rng.normal(size=(5, 4)), rng.integers(0, 3, size=5)
    reg = RegConfig(**{name: 0.1})
    match = f"UNIFORM layer takes no regularizer; got {name}=0.1"
    with pytest.raises(ValueError, match=match):
        objective((X, y), model, reg)
    # With every weight zero the objective is the heads' cross-entropy.
    ce = cross_entropy_mean(predict_logits(model, X), y)
    assert objective((X, y), model, RegConfig()) == pytest.approx(ce, abs=1e-15)
    config = TrainConfig(max_epochs=1, patience=1, reg=reg)
    with pytest.raises(ValueError, match=match):
        train(separable_splits(16), config, init_erm_model([2, 4], 2, n_heads=2, seed=8))


# -- the training loop -----------------------------------------------------------------


def separable_splits(seed=0, n=120, gap=6.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.concatenate(
        [rng.normal(size=(half, 2)), rng.normal(size=(half, 2)) + gap]
    )
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(half, dtype=int)])
    perm = rng.permutation(n)
    X, y = X[perm], y[perm]
    k = int(0.75 * n)
    return DatasetSplits(X[:k], y[:k], X[k:], y[k:])


def small_gdu_for_training(seed, mode="MMD", m=2):
    fe = init_feature_extractor([2, 6, 4], seed, "relu")
    layer = init_layer(
        m, 3, 4, 2, seed + 1, mode, KernelConfig(2.0),
        2.0 if mode != "PROJECTION" else None,
    )
    return GduModel(fe, layer)


def test_a_float32_sigma_fits_and_serves_as_its_python_float():
    # Kept as a float32, sigma made the kernel's constant 0.5 / sigma**2 a
    # float32 (NEP 50): a fit's loss moved by ~1e-9, and so did the logits
    # of a checkpoint round trip, which reads sigma back as a Python float.
    sigma = np.float32(0.7)
    assert type(KernelConfig(sigma).sigma) is float
    data = separable_splits(21)
    config = TrainConfig(max_epochs=2, patience=2, batch_size=16, seed=21)
    fits = []
    for s in (sigma, float(sigma)):
        model = small_gdu_for_training(21, "CS")
        model.layer = replace(model.layer, kernel=KernelConfig(s))
        fits.append(train(data, config, model))
    (model, trace), (want_model, want_trace) = fits
    assert trace.to_csv_text() == want_trace.to_csv_text()
    assert model_to_text(model) == model_to_text(want_model)
    logits = predict_logits(model, data.val_x)
    np.testing.assert_array_equal(logits, predict_logits(want_model, data.val_x))
    back = model_from_text(model_to_text(model))
    np.testing.assert_array_equal(predict_logits(back, data.val_x), logits)


def test_fraction_reals_train_and_gate_as_their_floats():
    # A Fraction passed every check, then numpy could not take it to Adam's
    # steps (UFuncTypeError) or to the gate's exp (TypeError).
    data = separable_splits(22)
    fits, gates = [], []
    reals = ((Fraction(1, 100), Fraction(1, 10), Fraction(5, 2)), (0.01, 0.1, 2.5))
    for lr, weight, kappa in reals:
        reg = RegConfig(lambda_ols=weight, lambda_l1=weight)
        config = TrainConfig(learning_rate=lr, max_epochs=2, patience=2, batch_size=16,
                             seed=22, reg=reg)
        assert type(config.learning_rate) is float
        assert type(reg.lambda_ols) is float and type(reg.lambda_l1) is float
        model = small_gdu_for_training(22, "CS")
        model.layer = replace(model.layer, kappa=kappa)
        assert type(model.layer.kappa) is float
        gates.append(gate_matrix(fe_forward(data.val_x, model.fe), model.layer))
        fits.append(train(data, config, model))
    np.testing.assert_array_equal(*gates)
    (model, trace), (want_model, want_trace) = fits
    assert trace.to_csv_text() == want_trace.to_csv_text()
    assert model_to_text(model) == model_to_text(want_model)


def test_train_reaches_high_accuracy_on_separable_data():
    # Pilot oracle: logistic regression separates this construction with
    # accuracy >= 0.99; the ensemble must reach at least 0.95.
    data = separable_splits()
    config = TrainConfig(max_epochs=50, patience=50, batch_size=32, seed=0)
    model, trace = train(data, config, small_gdu_for_training(0))
    assert max(r.val_acc for r in trace.rows) >= 0.95
    assert accuracy(model, data.val_x, data.val_y) >= 0.95


def test_train_is_deterministic():
    data = separable_splits(1)
    config = TrainConfig(max_epochs=8, patience=8, batch_size=16, seed=3)
    model_a, trace_a = train(data, config, small_gdu_for_training(2))
    model_b, trace_b = train(data, config, small_gdu_for_training(2))
    assert trace_a.to_csv_text() == trace_b.to_csv_text()
    assert model_to_text(model_a) == model_to_text(model_b)


@pytest.mark.parametrize("train_mode", ["E2E", "FT"])
@pytest.mark.parametrize("kind", ["GDU", "ERM"])
def test_trained_blocks_are_views_of_one_buffer(train_mode, kind):
    data = separable_splits(10)
    if kind == "GDU":
        model = small_gdu_for_training(10)
    else:
        model = init_erm_model([2, 6, 4], 2, n_heads=2, seed=10)
    fe_before = [arr.copy() for arr in model.fe.weights + model.fe.biases]
    config = TrainConfig(mode=train_mode, max_epochs=3, patience=3, batch_size=16, seed=12)
    model, _ = train(data, config, model)
    blocks = list(trainable_arrays(model, train_mode).values())
    buffer = blocks[0].base
    assert buffer is not None and buffer.ndim == 1
    assert all(block.base is buffer for block in blocks)
    assert buffer.size == sum(block.size for block in blocks)
    if train_mode == "FT":
        for before, after in zip(fe_before, model.fe.weights + model.fe.biases):
            assert not np.shares_memory(after, buffer)
            np.testing.assert_array_equal(after, before)
    logits = predict_logits(model, data.val_x)
    bias_before = model.layer.bias.copy()
    assert np.shares_memory(model.layer.bias[1], buffer)
    model.layer.bias[1] += 0.5
    np.testing.assert_array_equal(model.layer.bias[1], bias_before[1] + 0.5)
    assert not np.array_equal(predict_logits(model, data.val_x), logits)
    back = model_from_text(model_to_text(model))
    np.testing.assert_array_equal(
        predict_logits(back, data.val_x), predict_logits(model, data.val_x)
    )


def test_train_restores_best_validation_snapshot():
    data = separable_splits(2)
    config = TrainConfig(max_epochs=12, patience=12, batch_size=16, seed=4)
    model, trace = train(data, config, small_gdu_for_training(3))
    best = max(r.val_acc for r in trace.rows)
    assert accuracy(model, data.val_x, data.val_y) == pytest.approx(best)


def test_train_restores_the_first_best_epoch_exactly():
    # A run that stops right after the first best epoch ends with the very
    # parameters that the longer run must restore from its snapshot.
    data = separable_splits(15, gap=2.0)
    config = TrainConfig(max_epochs=8, patience=8, batch_size=16, seed=14)
    model, trace = train(data, config, small_gdu_for_training(13))
    accs = [r.val_acc for r in trace.rows]
    best = accs.index(max(accs))
    assert best < len(accs) - 1 and accs[-1] < accs[best]
    short = replace(config, max_epochs=best + 1, patience=best + 1)
    model_best, _ = train(data, short, small_gdu_for_training(13))
    assert model_to_text(model) == model_to_text(model_best)


def test_train_early_stopping_halts_before_max_epochs():
    data = separable_splits(3)
    config = TrainConfig(max_epochs=40, patience=2, batch_size=16, seed=5)
    model, trace = train(data, config, small_gdu_for_training(4))
    assert len(trace.rows) < 40
    # The restored snapshot scores the best validation accuracy of the trace.
    assert accuracy(model, data.val_x, data.val_y) == max(r.val_acc for r in trace.rows)


def test_ft_mode_never_touches_extractor():
    from gdu.checkpoint import model_to_text

    data = separable_splits(4)
    model = small_gdu_for_training(5)
    fe_before = [w.copy() for w in model.fe.weights] + [b.copy() for b in model.fe.biases]
    config = TrainConfig(mode="FT", max_epochs=6, patience=6, batch_size=16, seed=6)
    trained, _ = train(data, config, model)
    assert trained is model
    for before, after in zip(fe_before, model.fe.weights + model.fe.biases):
        np.testing.assert_array_equal(before, after)


@pytest.mark.parametrize("mode", ["CS", "MMD", "PROJECTION", "UNIFORM"])
def test_ft_training_is_e2e_training_of_the_layer_on_extracted_features(mode):
    # FT trains the model without its extractor on the extractor's features:
    # the same layer, trace and checkpoint text, byte for byte.
    data = separable_splits(16)

    def fresh():
        if mode == "UNIFORM":
            return init_erm_model([2, 6, 4], 2, n_heads=2, seed=16), RegConfig()
        model = small_gdu_for_training(16, mode=mode, m=3)
        extra = {"lambda_orth": 0.1} if mode == "PROJECTION" else {"lambda_l1": 0.1}
        return model, RegConfig(lambda_ols=0.1, **extra)

    model, reg = fresh()
    fe_blocks = model.fe.weights + model.fe.biases
    fe_bytes = [block.tobytes() for block in fe_blocks]
    config = TrainConfig(mode="FT", max_epochs=4, patience=4, batch_size=16, seed=17, reg=reg)
    model, trace = train(data, config, model)
    after = model.fe.weights + model.fe.biases
    assert all(a is b for a, b in zip(after, fe_blocks))
    assert [block.tobytes() for block in after] == fe_bytes

    reference, _ = fresh()
    feats = DatasetSplits(
        np.asarray(fe_forward(data.train_x, reference.fe)), data.train_y,
        np.asarray(fe_forward(data.val_x, reference.fe)), data.val_y,
    )
    layer_only, ref_trace = train(feats, replace(config, mode="E2E"),
                                  GduModel(None, reference.layer))
    assert ref_trace.to_csv_text() == trace.to_csv_text()
    assert model_to_text(layer_only) == model_to_text(GduModel(None, model.layer))


# Every regularizer each mode takes; ERM's UNIFORM layer takes none.
_ALL_REGULARIZERS = {
    "CS": RegConfig(lambda_ols=0.1, lambda_l1=0.1),
    "MMD": RegConfig(lambda_ols=0.1, lambda_l1=0.1),
    "PROJECTION": RegConfig(lambda_ols=0.1, lambda_orth=0.1),
    "ERM": RegConfig(),
    "ERM-1": RegConfig(),
}


def _fresh_model(mode, seed):
    """A model for ``mode``: GDU with M=3, ERM with 3 heads, or ERM-1 with one."""
    if mode.startswith("ERM"):
        return init_erm_model([2, 6, 4], 2, n_heads=1 if mode == "ERM-1" else 3, seed=seed)
    return small_gdu_for_training(seed, mode=mode, m=3)


@pytest.mark.parametrize("train_mode", ["E2E", "FT"])
@pytest.mark.parametrize("mode", list(_ALL_REGULARIZERS))
def test_train_matches_the_reference_loop(mode, train_mode):
    # train keeps its parameter and gradient vectors and Adam buffers for the
    # whole call; the loop that makes them fresh on every step must give
    # the same run to the last bit. Patience 2 of 6 epochs stops early.
    data = separable_splits(18)
    config = TrainConfig(mode=train_mode, max_epochs=6, patience=2, batch_size=16,
                         seed=19, learning_rate=0.05, reg=_ALL_REGULARIZERS[mode])

    def run(loop):
        model, trace = loop(data, config, _fresh_model(mode, 18))
        return model_to_text(model), trace.to_csv_text()

    reference = run(train_loop)
    assert run(train) == reference
    # No leaf gradient or Adam moment of the first call reaches the second.
    assert run(train) == reference


@pytest.mark.parametrize(
    "train_mode, mode",
    [("E2E", "CS"), ("E2E", "PROJECTION"), ("E2E", "ERM"), ("FT", "MMD")],
)
def test_train_and_gradients_lay_the_blocks_out_alike(train_mode, mode, monkeypatch):
    # train's first Adam step receives, bit for bit, the concatenated blocks
    # that gradients gives on the same first batch, so both entry points
    # share one layout, in trainable_arrays order.
    data = separable_splits(22)
    reg = _ALL_REGULARIZERS[mode]
    config = TrainConfig(mode=train_mode, max_epochs=1, patience=1, batch_size=16,
                         seed=23, reg=reg)
    if mode == "ERM":
        model = init_erm_model([2, 6, 4], 2, n_heads=2, seed=22)
    else:
        model = _fresh_model(mode, 22)
    before = copy.deepcopy(model)
    order = np.random.default_rng(config.seed).permutation(len(data.train_x))[: config.batch_size]
    X = np.asarray(data.train_x, dtype=np.float64)
    probe = before
    if train_mode == "FT":
        # train extracts the features of every training row once; the
        # batch takes its rows from them, and the part has no extractor.
        X, probe = np.asarray(fe_forward(X, before.fe)), GduModel(None, before.layer)
    arrays = trainable_arrays(probe, "E2E")
    saved = {name: arr.copy() for name, arr in arrays.items()}
    blocks = gradients((X[order], data.train_y[order]), probe, reg)
    assert list(blocks) == list(trainable_arrays(before, train_mode))
    # gradients leaves the caller's arrays as they were: the same objects,
    # holding the same bytes.
    after = trainable_arrays(probe, "E2E")
    assert all(after[name] is arr for name, arr in arrays.items())
    assert all(arr.tobytes() == saved[name].tobytes() for name, arr in arrays.items())

    first = []
    step = _Adam.step

    def recording_step(self, params, grad):
        if not first:
            first.append(grad.copy())
        step(self, params, grad)

    monkeypatch.setattr(_Adam, "step", recording_step)
    train(data, config, model)
    expected = np.concatenate([np.ravel(g) for g in blocks.values()])
    assert first[0].tobytes() == expected.tobytes()


@pytest.mark.parametrize("train_mode", ["E2E", "FT"])
def test_train_leaves_no_cyclic_garbage(train_mode):
    # The buffers that train keeps across steps must not tie a step's
    # closures into a cycle, or every step's arrays outlive the call.
    data = separable_splits(20)
    gc.collect()
    gc.disable()
    try:
        for mode, reg in _ALL_REGULARIZERS.items():
            config = TrainConfig(mode=train_mode, max_epochs=2, patience=2, batch_size=16,
                                 seed=21, reg=reg)
            train(data, config, _fresh_model(mode, 20))
            assert gc.collect() == 0, mode
    finally:
        gc.enable()


@pytest.mark.parametrize("mode", list(_ALL_REGULARIZERS))
def test_column_reductions_change_no_number_of_a_run(mode, monkeypatch):
    # The gate, the loss and the regularizers reduce short rows column by
    # column; numpy's own reductions must give the same run to the last bit.
    data = separable_splits(13)
    config = TrainConfig(max_epochs=2, patience=2, batch_size=16, seed=4,
                         reg=_ALL_REGULARIZERS[mode])

    def run():
        model, trace = train(data, config, _fresh_model(mode, 5))
        return model_to_text(model), trace.to_csv_text()

    columns = run()
    calls = {"max": 0, "sum": 0}

    def numpy_max(a):
        calls["max"] += 1
        return np.max(a, axis=-1, keepdims=True)

    def numpy_sum(a):
        calls["sum"] += 1
        return np.sum(a, axis=-1, keepdims=True)

    for module in (gdu.layer, gdu.regularization, gdu.training):
        for name, reduction in (("_row_max", numpy_max), ("_row_sum", numpy_sum)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, reduction)
    assert run() == columns
    assert calls["max"] and calls["sum"]


def test_train_erm_models():
    data = separable_splits(5)
    config = TrainConfig(max_epochs=50, patience=50, batch_size=16, seed=7)
    single = init_erm_model([2, 6, 4], 2, n_heads=1, seed=9)
    _, trace = train(data, config, single)
    assert max(r.val_acc for r in trace.rows) >= 0.95
    ensemble = init_erm_model([2, 6, 4], 2, n_heads=3, seed=9)
    _, trace = train(data, config, ensemble)
    assert max(r.val_acc for r in trace.rows) >= 0.95


def _gated_by_ones(X, layer, beta=None):
    """``_ensemble`` with a materialised gate: a one-head layer weighted by ones."""
    if beta is None:
        beta = np.ones((len(X), layer.num_bases))
    return gdu.layer._ensemble(X, layer, beta=beta)


@pytest.mark.parametrize("train_mode", ["E2E", "FT"])
def test_one_head_erm_is_its_head_in_every_step_bit_for_bit(train_mode, monkeypatch):
    # A one-head ERM step builds no gate; the ensemble weighted by a
    # (b, 1) gate of ones must give the same objective, gradient blocks,
    # trace and model to the last bit.
    rng = np.random.default_rng(31)
    model = init_erm_model([4, 6, 3], 3, n_heads=1, seed=31)
    model.layer.bias += rng.normal(scale=0.3, size=(1, 3))
    batch = (rng.normal(size=(16, 4)), rng.integers(0, 3, size=16))
    data = DatasetSplits(rng.normal(size=(40, 4)), rng.integers(0, 3, size=40),
                         rng.normal(size=(12, 4)), rng.integers(0, 3, size=12))
    config = TrainConfig(mode=train_mode, max_epochs=3, patience=3, batch_size=16, seed=32,
                         learning_rate=0.05)

    def run():
        blocks = gradients(batch, model, RegConfig(), train_mode)
        fitted, trace = train(data, config, copy.deepcopy(model))
        return (objective(batch, model, RegConfig()),
                [(name, g.tobytes()) for name, g in blocks.items()],
                model_to_text(fitted), trace.to_csv_text())

    head = run()
    # Steps run the ensemble with its backward; scoring runs its value.
    monkeypatch.setattr(gdu.training, "_ensemble", _gated_by_ones)
    monkeypatch.setattr(gdu.training, "forward_batch",
                        lambda X, layer, beta=None: _gated_by_ones(X, layer, beta)[0])
    assert run() == head
    assert gradient_max_rel_error(model, *batch, RegConfig(), train_mode) < 1e-4


def test_train_diverges_on_nonfinite_parameters():
    data = separable_splits(6)
    model = small_gdu_for_training(6)
    model.fe.weights[0][0, 0] = np.nan
    config = TrainConfig(max_epochs=3, patience=3, seed=8)
    with pytest.raises(TrainingDivergedError) as err:
        train(data, config, model)
    assert err.value.epoch == 0


def test_nonfinite_gradient_names_its_block(monkeypatch):
    # An ensemble whose backward hands the bias a NaN keeps the objective
    # finite and makes only the bias gradient NaN.
    import gdu.training as training_module

    def ensemble_with_nan_bias_gradient(X, layer, beta=None):
        y, back = gdu.layer._ensemble(X, layer, beta)

        def nan_back(g, grad_x):
            g_x, g_weights, g_bias, g_beta = back(g, grad_x)
            return g_x, g_weights, g_bias * np.nan, g_beta

        return y, nan_back

    monkeypatch.setattr(training_module, "_ensemble", ensemble_with_nan_bias_gradient)
    model, X, y = build_small_gdu(12, "CS")
    data = separable_splits(11)
    config = TrainConfig(max_epochs=2, patience=2, seed=13)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.isfinite(objective((X, y), model, RegConfig()))
        with pytest.raises(NonFiniteGradientError, match=r"^non-finite gradient in block 'layer.bias'$"):
            gradients((X, y), model, RegConfig())
        with pytest.raises(NonFiniteGradientError, match=r"block 'layer.bias' at epoch 0$"):
            train(data, config, small_gdu_for_training(11, mode="CS"))


def test_features_are_validated():
    data = separable_splits(12)
    tx, ty, vx, vy = data.train_x, data.train_y, data.val_x, data.val_y
    message = "^{} must be a finite 2-D array, got shape \\({}\\)$"
    with pytest.raises(ValueError, match=message.format("train_x", "90,")):
        DatasetSplits(tx[:, 0], ty, vx, vy)
    with pytest.raises(ValueError, match=message.format("val_x", "30, 2, 1")):
        DatasetSplits(tx, ty, vx[:, :, None], vy)
    for bad in (np.nan, np.inf, -np.inf):
        broken = vx.copy()
        broken[3, 1] = bad
        with pytest.raises(ValueError, match=message.format("val_x", "30, 2")):
            DatasetSplits(tx, ty, broken, vy)
        broken = tx.copy()
        broken[0, 0] = bad
        with pytest.raises(ValueError, match=message.format("train_x", "90, 2")):
            DatasetSplits(broken, ty, vx, vy)
    with pytest.raises(ValueError, match="^train_x has 2 columns but val_x has 1$"):
        DatasetSplits(tx, ty, vx[:, :1], vy)
    # Lists of rows are features too.
    DatasetSplits(tx.tolist(), ty, vx.tolist(), vy)


def test_prediction_needs_a_batch_of_rows():
    # A single input x is the batch x[None]; a 1-D array is not read as one.
    message = r"^predict_logits expects a \(b, d\) batch, got shape \({}\); pass .* x\[None\]$"
    gdu, erm = small_gdu_for_training(4, mode="CS"), init_erm_model([3, 2], 2, 2, 0)
    for model, width in ((gdu, 2), (erm, 3)):
        x = np.ones(width)
        assert predict_logits(model, x[None]).shape == (1, 2)
        with pytest.raises(ValueError, match=message.format(f"{width},")):
            predict_logits(model, x)
        with pytest.raises(ValueError, match=message.format(f"1, 1, {width}")):
            predict_logits(model, x[None, None])
        with pytest.raises(ValueError, match="^accuracy needs at least one row, got 0$"):
            accuracy(model, np.ones((0, width)), np.zeros(0, dtype=int))


def test_labels_are_validated():
    data = separable_splits(12)
    for bad in ([-1, 7], [[0], [1]], [0.5, 1.0], [0.0, np.inf]):
        with pytest.raises(ValueError, match="train_y"):
            DatasetSplits(data.train_x[:2], bad, data.val_x, data.val_y)
    with pytest.raises(ValueError, match="val_y"):
        DatasetSplits(data.train_x, data.train_y, data.val_x[:1], [-1])
    # Labels beyond the model's classes are caught before the first step.
    config = TrainConfig(max_epochs=1, patience=1)
    too_large = DatasetSplits(data.train_x, data.train_y + 5, data.val_x, data.val_y)
    with pytest.raises(ValueError, match="label [56] out of range for C=2"):
        train(too_large, config, small_gdu_for_training(12))
    too_large = DatasetSplits(data.train_x, data.train_y, data.val_x, data.val_y + 5)
    with pytest.raises(ValueError, match="label [56] out of range for C=2"):
        train(too_large, config, small_gdu_for_training(12))


@pytest.mark.parametrize("mode", ["E2E", "FT"])
@pytest.mark.parametrize("split", ["train_y", "val_y"])
def test_train_names_the_split_whose_labels_the_model_lacks_before_the_first_step(split, mode):
    # An out-of-range val_y label used to surface in epoch 0's accuracy,
    # after a full epoch of Adam steps, without naming its split.
    data = separable_splits(12)
    labels = np.array(getattr(data, split))
    labels[-1] = 7
    data = replace(data, **{split: labels})
    for model in (small_gdu_for_training(12), init_erm_model([2, 4], 2, n_heads=2, seed=8)):
        with mock.patch.object(_Adam, "step") as step:
            with pytest.raises(ValueError, match=f"^{split}: label 7 out of range for C=2$"):
                train(data, TrainConfig(mode=mode, max_epochs=1, patience=1), model)
        step.assert_not_called()


@pytest.mark.parametrize(
    "n_outputs, n_heads, named", [(2, -1, "n_heads"), (2, 0, "n_heads"), (0, 2, "n_outputs"),
                                  (-3, 2, "n_outputs")],
)
def test_init_erm_model_names_a_size_below_one_before_drawing(n_outputs, n_heads, named):
    # n_heads=-1 raised numpy's "negative dimensions are not allowed", and a
    # zero size the layer's generic (e, M, C) shape error.
    value = n_heads if named == "n_heads" else n_outputs
    with mock.patch.object(np.random, "default_rng") as rng:
        with pytest.raises(ValueError, match=f"^{named} must be positive, got {value}$"):
            init_erm_model([3, 4], n_outputs, n_heads, 0)
    rng.assert_not_called()


@pytest.mark.parametrize("labels", [[True, False, True], ["0", "1", "1"]], ids=["bool", "str"])
def test_bool_and_string_labels_are_refused_by_name(labels):
    # numpy read True and False as classes 1 and 0, so DatasetSplits took
    # them and accuracy scored them without a word; strings failed inside
    # np.isfinite with numpy's unnamed TypeError.
    dtype = re.escape(str(np.asarray(labels).dtype))
    data = separable_splits(12)
    with pytest.raises(ValueError, match=f"^train_y: labels must be integers, got dtype {dtype}$"):
        DatasetSplits(data.train_x[:3], labels, data.val_x, data.val_y)
    with pytest.raises(ValueError, match=f"^val_y: labels must be integers, got dtype {dtype}$"):
        DatasetSplits(data.train_x, data.train_y, data.val_x[:3], labels)
    model = small_gdu_for_training(12)
    X = np.random.default_rng(3).normal(size=(3, model.fe.weights[0].shape[0]))
    for score in (lambda y: accuracy(model, X, y), lambda y: cross_entropy_mean(np.zeros((3, 3)), y)):
        with pytest.raises(ValueError, match=f"^labels must be integers, got dtype {dtype}$"):
            score(labels)


@pytest.mark.parametrize(
    "labels, named",
    [([0.5, 1.7, 2.2], "0.5"), ([0.0, 1.5, 2.0], "1.5"), ([1.0, np.nan, 0.0], "nan"),
     ([np.inf, 0.0, 1.0], "inf")],
)
@pytest.mark.parametrize("scorer", ["accuracy", "cross_entropy_mean"])
def test_non_integer_labels_are_named_not_truncated(scorer, labels, named):
    model = small_gdu_for_training(12)
    X = np.random.default_rng(3).normal(size=(3, model.fe.weights[0].shape[0]))
    score = {
        "accuracy": lambda y: accuracy(model, X, y),
        "cross_entropy_mean": lambda y: cross_entropy_mean(np.zeros((3, 3)), y),
    }[scorer]
    with pytest.raises(ValueError, match=f"^label {named} is not a finite integer$"):
        score(labels)
    # Integer-valued floats are class indices.
    assert score([0.0, 1.0, 1.0]) == score([0, 1, 1])


def _label_calls():
    model = init_erm_model([4, 5], 3, n_heads=1, seed=3)
    X = np.random.default_rng(4).normal(size=(5, 4))

    def fit(split, labels):
        data = DatasetSplits(X, np.zeros(5, dtype=int), X, np.zeros(5, dtype=int))
        setattr(data, split, labels)
        train(data, TrainConfig(max_epochs=1, patience=1), model)

    return {
        "objective": lambda y: objective((X, y), model, RegConfig()),
        "gradients": lambda y: gradients((X, y), model, RegConfig()),
        "cross_entropy_mean": lambda y: cross_entropy_mean(np.zeros((5, 3)), y),
        "accuracy": lambda y: accuracy(model, X, y),
        "train_y": lambda y: fit("train_y", y),
        "val_y": lambda y: fit("val_y", y),
    }


_BAD_LABELS = {
    "float": ([0.0, 0.5, 1.0, 2.0, 0.0], "label 0.5 is not a finite integer"),
    "bool": ([True, False, True, False, True], "labels must be integers, got dtype bool"),
    "out-of-range": ([0, 1, 3, 0, 1], "label 3 out of range for C=3"),
    "mis-shaped": ([[0], [1], [2], [0], [1]], r"expected 5 labels, got shape \(5, 1\)"),
}


@pytest.mark.parametrize("kind", sorted(_BAD_LABELS))
@pytest.mark.parametrize("call", sorted(_label_calls()))
def test_every_entry_point_names_bad_labels(call, kind):
    # objective and gradients check the labels on entry and train checks
    # both splits once, so a step's loss node takes them unchecked.
    labels, message = _BAD_LABELS[kind]
    prefix = f"{call}: " if call.endswith("_y") else ""
    with mock.patch.object(_Adam, "step") as step:
        with pytest.raises(ValueError, match=f"^{prefix}{message}$"):
            _label_calls()[call](labels)
    step.assert_not_called()


def test_a_one_class_model_is_named_by_every_loss_entry_point():
    model = init_erm_model([4, 4], 1, n_heads=1, seed=0)
    X, y = np.zeros((5, 4)), np.zeros(5, dtype=int)
    named = r"^expected \(b, C\) logits with C >= 2, got shape \(5, 1\)$"
    for call in (lambda: objective((X, y), model, RegConfig()),
                 lambda: gradients((X, y), model, RegConfig()),
                 lambda: train(DatasetSplits(X, y, X, y), TrainConfig(max_epochs=1, patience=1),
                               model)):
        with pytest.raises(ValueError, match=named):
            call()


@pytest.mark.parametrize("shape", [(2,), (3, 5, 2)], ids=str)
def test_a_batch_that_is_not_2d_is_named_before_its_labels(shape):
    # Such an X passed the extractor, which takes a vector, and then failed
    # the layer's (b, e) check, which named the shape of its features.
    model = small_gdu_for_training(3)
    named = rf"^a batch needs \(b, d\) inputs, got shape {re.escape(str(shape))}$"
    for call in (objective, gradients):
        with pytest.raises(ValueError, match=named):
            call((np.zeros(shape), [0, 1]), model, RegConfig())


def test_train_checks_labels_and_validation_rows_once_per_call(monkeypatch):
    # Every epoch scores validation on the labels and rows checked before
    # the first step; no epoch re-checks them.
    data = separable_splits(14)
    config = TrainConfig(max_epochs=3, patience=3, batch_size=16, seed=15)
    counts = {"_checked_labels": 0, "_finite_batch": 0}
    for name in counts:
        def counted(*args, _name=name, _real=getattr(gdu.training, name)):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(gdu.training, name, counted)
    for name in ("accuracy", "predict_logits", "cross_entropy_mean"):
        monkeypatch.setattr(gdu.training, name, None)
    for mode in ("E2E", "FT"):
        for model in (small_gdu_for_training(14), init_erm_model([2, 4], 2, n_heads=1, seed=14)):
            counts.update(dict.fromkeys(counts, 0))
            _, trace = train(data, replace(config, mode=mode), model)
            assert len(trace.rows) == 3
            assert counts == {"_checked_labels": 2, "_finite_batch": 1}


def test_ft_names_validation_features_that_are_not_finite_before_the_first_step():
    # Finite raw rows can give non-finite frozen features; they are found
    # once, before any step, not when epoch 0 scores them.
    data = separable_splits(16)
    val_x = np.array(data.val_x)
    val_x[2] = 1e200
    data = replace(data, val_x=val_x)
    fe = FeatureExtractor([np.eye(2) * 1e200], [np.zeros(2)])
    model = GduModel(fe, init_erm_model([2, 2], 2, n_heads=1, seed=16).layer)
    with mock.patch.object(_Adam, "step") as step, np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="^val_x needs finite rows, but row 2 is not$"):
            train(data, TrainConfig(mode="FT", max_epochs=1, patience=1), model)
    step.assert_not_called()


def test_srip_tracking_and_trace_csv_columns():
    # SRIP is the ORTH term, so the trace reports it once, as omega_orth.
    data = separable_splits(7)
    header = "epoch,loss,val_acc,omega_ols,omega_orth,omega_l1"
    model = small_gdu_for_training(7, mode="PROJECTION")
    reg = RegConfig(lambda_ols=1e-3, lambda_orth=1e-3)
    _, trace = train(data, TrainConfig(max_epochs=3, patience=3, seed=9, reg=reg), model)
    assert trace.to_csv_text().splitlines()[0] == header
    # The restored snapshot is the first best epoch's: its ORTH column
    # is the spectral penalty on the trained basis Gram matrix.
    best = max(trace.rows, key=lambda r: r.val_acc)
    assert best.omega_orth == omega_orth(np.asarray(basis_gram_matrix(model.layer)))
    # A UNIFORM layer has no bases: each term column reads 0.0.
    erm = init_erm_model([2, 6, 4], 2, n_heads=2, seed=7)
    _, trace = train(data, TrainConfig(max_epochs=2, patience=2, seed=9), erm)
    rows = trace.to_csv_text().splitlines()[1:]
    assert [line.split(",")[3:] for line in rows] == [["0.0", "0.0", "0.0"]] * 2


@pytest.mark.parametrize("mode", ["CS", "MMD", "PROJECTION"])
def test_trace_regularizer_columns_match_standalone_terms(mode):
    # One epoch: the restored best snapshot is the epoch-0 parameters that
    # the trace row was computed from.
    data = separable_splits(9)
    model = small_gdu_for_training(9, mode=mode, m=3)
    # The weights the mode takes; the trace reports all three raw terms.
    extra = {"lambda_orth": 1e-3} if mode == "PROJECTION" else {"lambda_l1": 1e-3}
    reg = RegConfig(lambda_ols=1e-3, **extra)
    config = TrainConfig(max_epochs=1, patience=1, seed=11, reg=reg)
    _, trace = train(data, config, model)
    feats = np.asarray(fe_forward(data.train_x, model.fe))
    beta = gate_matrix(feats, model.layer)
    row = trace.rows[0]
    assert row.omega_ols == pytest.approx(
        float(layer_ols(feats, beta, model.layer)), abs=1e-12
    )
    assert row.omega_orth == pytest.approx(
        float(omega_orth(basis_gram_matrix(model.layer))), abs=1e-12
    )
    assert row.omega_l1 == pytest.approx(float(omega_l1(beta)), abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(patience=10, max_epochs=5)
    with pytest.raises(ValueError):
        TrainConfig(mode="WARMUP")
    # numpy integers are integers.
    TrainConfig(batch_size=np.int64(8), max_epochs=np.int32(3), patience=3, seed=np.int64(2))


_BAD_CONFIG_VALUES = (
    [(RegConfig, name, v) for name in ("lambda_ols", "lambda_orth", "lambda_l1")
     for v in (math.nan, math.inf, -1.0)]
    + [(TrainConfig, "learning_rate", v) for v in (math.nan, math.inf, 0.0, -1.0)]
    + [(TrainConfig, name, v) for name in ("batch_size", "max_epochs", "patience", "seed")
       for v in (8.0, True, np.float64(3.0))]
    + [(TrainConfig, "seed", v) for v in (1.5, -1)]
)


_BAD_INIT_ARGUMENTS = [
    (init_feature_extractor, ([4, 5.0, 3], 0), "layer_sizes[1]", "5.0"),
    (init_feature_extractor, ([True, 5, 3], 0), "layer_sizes[0]", "True"),
    (init_feature_extractor, ([4, 5, 3], 1.5), "seed", "1.5"),
    (init_feature_extractor, ([4, 5, 3], np.float64(2.0)), "seed", "2.0"),
    (init_erm_model, ([4, 5, 3], 2, 2.0, 0), "n_heads", "2.0"),
    (init_erm_model, ([4, 5, 3], 2.0, 2, 0), "n_outputs", "2.0"),
    (init_erm_model, ([4, 5, 3], 2, 2, 1.5), "seed", "1.5"),
    (init_erm_model, ([4, 5, 3], 2, True, 0), "n_heads", "True"),
]


@pytest.mark.parametrize("init, args, name, shown", _BAD_INIT_ARGUMENTS)
def test_initializers_require_integer_sizes_and_seed(init, args, name, shown):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer, got {shown}$"):
        init(*args)


def test_extractor_sizes_must_be_positive():
    with pytest.raises(ValueError, match=r"^layer_sizes\[1\] must be positive, got 0$"):
        init_feature_extractor([4, 0, 3], 0)
    # numpy integers are integers.
    init_feature_extractor(np.array([4, 5, 3]), np.int64(0))
    init_erm_model([4, 5, 3], np.int64(2), np.int32(2), np.int64(0))


@pytest.mark.parametrize("config, name, value", _BAD_CONFIG_VALUES)
def test_configs_reject_nonfinite_and_out_of_range_values(config, name, value):
    with pytest.raises(ValueError, match=f"^{name} must .*, got {value}$"):
        config(**{name: value})



def _empty_batch_calls():
    model = small_gdu_for_training(13)
    empty = (np.zeros((0, model.fe.weights[0].shape[0])), [])
    return {
        "objective": lambda: objective(empty, model, RegConfig()),
        "gradients": lambda: gradients(empty, model, RegConfig()),
        "cross_entropy_mean": lambda: cross_entropy_mean(np.zeros((0, 3)), []),
    }


@pytest.mark.parametrize("call", sorted(_empty_batch_calls()))
def test_an_empty_batch_is_named_not_a_nan_loss(call):
    # The mean over no rows would be 0/0: NaN, or a RuntimeWarning raised as an error.
    with pytest.raises(ValueError, match="^cross_entropy_mean needs at least one row, got 0$"):
        _empty_batch_calls()[call]()


_EMPTY_GATES = np.zeros((0, 3))
_EMPTY_REGULARIZER_CALLS = {
    "omega_l1": lambda: omega_l1(_EMPTY_GATES),
    "omega_ols": lambda: omega_ols(_EMPTY_GATES, np.eye(3), _EMPTY_GATES),
}


@pytest.mark.parametrize("name", sorted(_EMPTY_REGULARIZER_CALLS))
def test_a_regularizer_on_an_empty_batch_is_named_not_a_nan(name):
    # Each is a mean over the batch's rows: 0/0 without a row.
    with pytest.raises(ValueError, match=f"^{name} needs at least one row, got 0$"):
        _EMPTY_REGULARIZER_CALLS[name]()


def _models_taking_four_columns():
    layer = init_layer(2, 3, 4, 3, 1, "CS", KernelConfig(1.0), 2.0)
    erm = init_erm_model([4, 4], 3, 2, 0)
    return {
        "gdu": GduModel(init_feature_extractor([4, 4], 0), layer),
        "gdu-without-extractor": GduModel(None, layer),
        "erm": erm,
        "erm-without-extractor": replace(erm, fe=None),
    }


_WIDE_X, _WIDE_Y = np.zeros((6, 7)), np.zeros(6, dtype=int)
_WIDTH_CALLS = {
    "predict_logits": lambda model: predict_logits(model, _WIDE_X),
    "accuracy": lambda model: accuracy(model, _WIDE_X, _WIDE_Y),
    "objective": lambda model: objective((_WIDE_X, _WIDE_Y), model, RegConfig()),
    "gradients": lambda model: gradients((_WIDE_X, _WIDE_Y), model, RegConfig()),
    "train": lambda model: train(DatasetSplits(_WIDE_X, _WIDE_Y, _WIDE_X, _WIDE_Y),
                                 TrainConfig(max_epochs=1, patience=1), model),
}


@pytest.mark.parametrize("model_name", sorted(_models_taking_four_columns()))
@pytest.mark.parametrize("call", sorted(_WIDTH_CALLS))
def test_inputs_of_the_wrong_width_are_named(call, model_name):
    # Unchecked, numpy's matmul raises a bare core-dimension error instead.
    model = _models_taking_four_columns()[model_name]
    part = "layer" if model.fe is None else "extractor"
    with pytest.raises(DimensionMismatchError,
                       match=f"^X has dimension 7 but the {part}'s input has dimension 4$"):
        _WIDTH_CALLS[call](model)


_BOOL_FLOATS = {
    "sigma": lambda: KernelConfig(True),
    "learning_rate": lambda: TrainConfig(learning_rate=True),
    "lambda_ols": lambda: RegConfig(lambda_ols=True),
    "lambda_orth": lambda: RegConfig(lambda_orth=True),
    "lambda_l1": lambda: RegConfig(lambda_l1=np.True_),
    "kappa": lambda: init_layer(2, 3, 4, 3, 1, "CS", KernelConfig(1.0), kappa=True),
}


@pytest.mark.parametrize("name", sorted(_BOOL_FLOATS))
def test_a_bool_is_not_read_as_a_float(name):
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got the bool True$"):
        _BOOL_FLOATS[name]()


_NON_REAL_FLOATS = {
    "sigma": (lambda: KernelConfig("1.0"), "'1.0'"),
    "lambda_ols": (lambda: RegConfig(lambda_ols=None), "None"),
    "lambda_orth": (lambda: RegConfig(lambda_orth="0.5"), "'0.5'"),
    "lambda_l1": (lambda: RegConfig(lambda_l1=0.5j), "0.5j"),
    "learning_rate": (lambda: TrainConfig(learning_rate=1j), "1j"),
    "kappa": (lambda: init_layer(2, 3, 4, 3, 1, "CS", KernelConfig(1.0), kappa="20"), "'20'"),
}


@pytest.mark.parametrize("name", sorted(_NON_REAL_FLOATS))
def test_a_value_that_is_not_a_real_number_is_named(name):
    # Unchecked, math.isfinite raises a TypeError that names no argument.
    make, shown = _NON_REAL_FLOATS[name]
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got {re.escape(shown)}$"):
        make()


@pytest.mark.parametrize("reg", [{}, None, {"lambda_ols": 0.1}])
def test_train_config_reg_must_be_a_regconfig(reg):
    # Unchecked, train dies on its first step with an AttributeError.
    with pytest.raises(ValueError, match=f"^reg must be a RegConfig, got {re.escape(repr(reg))}$"):
        TrainConfig(reg=reg)
