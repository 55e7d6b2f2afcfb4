"""Bit-exact round-trips for the text checkpoint format."""

import numpy as np
import pytest

from gdu.checkpoint import (
    CheckpointError,
    load_model,
    model_from_text,
    model_to_text,
    save_model,
)
from gdu.kernel import KernelConfig
from gdu.layer import GduLayer, init_layer
from gdu.training import (
    GduModel,
    init_erm_model,
    init_feature_extractor,
    predict_logits,
)


# Format v1 text of a tiny model with no extractor and a layer (M=2, N=2,
# e=3, C=2, tanh, PROJECTION), as the per-basis layer classes that preceded
# the stacked arrays wrote it: one block per basis and one weight and bias
# block per machine.
V1_GDU_TEXT = """gdu-checkpoint 1
field kind gdu-model
field fe_layers 0
field mode PROJECTION
field sigma 0x1.8000000000000p+0
field kappa -
field activation tanh
field num_bases 2
block basis0 2 2 3 6
-0x1.0000000000000p-1 -0x1.8000000000000p-2 -0x1.0000000000000p-2 -0x1.0000000000000p-3 0x0.0p+0 0x1.0000000000000p-3
block basis1 2 2 3 6
0x1.0000000000000p-2 0x1.8000000000000p-2 0x1.0000000000000p-1 0x1.4000000000000p-1 0x1.8000000000000p-1 0x1.c000000000000p-1
block mach_w0 2 3 2 6
-0x1.0000000000000p-2 -0x1.8000000000000p-3 0x0.0p+0 0x1.0000000000000p-4 0x1.0000000000000p-2 0x1.4000000000000p-2
block mach_b0 1 2 2
0x1.0000000000000p-2 -0x1.0000000000000p-1
block mach_w1 2 3 2 6
-0x1.0000000000000p-3 -0x1.0000000000000p-4 0x1.0000000000000p-3 0x1.8000000000000p-3 0x1.8000000000000p-2 0x1.c000000000000p-2
block mach_b1 1 2 2
0x1.0000000000000p+0 -0x1.0000000000000p-3
end
"""
V1_BASES = np.arange(12.0).reshape(2, 2, 3) / 8.0 - 0.5  # (M, N, e)
V1_WEIGHTS = np.arange(12.0).reshape(3, 2, 2) / 16.0 - 0.25  # (e, M, C)
V1_BIAS = np.array([[0.25, -0.5], [1.0, -0.125]])  # (M, C)


def test_v1_text_loads_to_the_stacked_arrays_and_writes_back_unchanged():
    model = model_from_text(V1_GDU_TEXT)
    assert model.fe is None
    layer = model.layer
    assert (layer.mode, layer.kernel.sigma, layer.kappa) == ("PROJECTION", 1.5, None)
    assert layer.activation == "tanh"
    np.testing.assert_array_equal(layer.bases, V1_BASES)
    np.testing.assert_array_equal(layer.weights, V1_WEIGHTS)
    np.testing.assert_array_equal(layer.bias, V1_BIAS)
    assert model_to_text(model) == V1_GDU_TEXT
    built = GduLayer(
        V1_BASES, V1_WEIGHTS, V1_BIAS, KernelConfig(1.5), "PROJECTION", activation="tanh"
    )
    assert model_to_text(GduModel(None, built)) == V1_GDU_TEXT


# Format v1 text of a tiny ERM model (a one-layer extractor 3 -> 2 and K=2
# tanh heads with C=2), as the per-head ERM model class wrote it: one weight
# and bias block per head.
V1_ERM_TEXT = """gdu-checkpoint 1
field kind erm-model
field fe_layers 1
field fe_nonlinearity relu
block fe_w0 2 3 2 6
-0x1.0000000000000p-1 -0x1.0000000000000p-2 0x0.0p+0 0x1.0000000000000p-2 0x1.0000000000000p-1 0x1.8000000000000p-1
block fe_b0 1 2 2
0x1.0000000000000p-3 -0x1.0000000000000p-2
field activation tanh
field num_heads 2
block head_w0 2 2 2 4
-0x1.8000000000000p-2 -0x1.0000000000000p-2 0x1.0000000000000p-3 0x1.0000000000000p-2
block head_b0 1 2 2
0x1.0000000000000p-1 -0x1.8000000000000p-1
block head_w1 2 2 2 4
-0x1.0000000000000p-3 0x0.0p+0 0x1.8000000000000p-2 0x1.0000000000000p-1
block head_b1 1 2 2
0x1.0000000000000p-4 0x1.0000000000000p+0
end
"""
V1_ERM_FE_W = np.arange(6.0).reshape(3, 2) / 4.0 - 0.5
V1_ERM_FE_B = np.array([0.125, -0.25])
V1_ERM_WEIGHTS = np.arange(8.0).reshape(2, 2, 2) / 8.0 - 0.375  # (e, K, C)
V1_ERM_BIAS = np.array([[0.5, -0.75], [0.0625, 1.0]])  # (K, C)


def test_v1_erm_text_loads_and_writes_back_unchanged():
    model = model_from_text(V1_ERM_TEXT)
    assert model.fe.nonlinearity == "relu"
    layer = model.layer
    assert (layer.mode, layer.bases, layer.activation) == ("UNIFORM", None, "tanh")
    np.testing.assert_array_equal(layer.weights, V1_ERM_WEIGHTS)
    np.testing.assert_array_equal(layer.bias, V1_ERM_BIAS)
    np.testing.assert_array_equal(model.fe.weights[0], V1_ERM_FE_W)
    np.testing.assert_array_equal(model.fe.biases[0], V1_ERM_FE_B)
    # The heads' mean, computed head by head from the expected arrays.
    X = np.random.default_rng(19).normal(size=(5, 3))
    feats = X @ V1_ERM_FE_W + V1_ERM_FE_B
    heads = [np.tanh(feats @ V1_ERM_WEIGHTS[:, j] + V1_ERM_BIAS[j]) for j in range(2)]
    np.testing.assert_allclose(
        predict_logits(model, X), (heads[0] + heads[1]) / 2.0, rtol=1e-15, atol=0.0
    )
    assert model_to_text(model) == V1_ERM_TEXT


def test_rejects_per_basis_blocks_of_different_shapes():
    text = V1_GDU_TEXT.replace("block basis1 2 2 3 6", "block basis1 2 3 2 6")
    with pytest.raises(CheckpointError, match="basis blocks"):
        model_from_text(text)
    text = V1_GDU_TEXT.replace("block mach_b1 1 2 2", "block mach_b1 2 1 2 2")
    with pytest.raises(CheckpointError, match="mach_b blocks"):
        model_from_text(text)
    head, _, _ = V1_GDU_TEXT.partition("block basis0")
    with pytest.raises(CheckpointError, match="basis blocks"):
        model_from_text(head.replace("num_bases 2", "num_bases 0") + "end\n")
    head, _, _ = V1_ERM_TEXT.partition("block head_w0")
    with pytest.raises(CheckpointError, match="head_w blocks"):
        model_from_text(head.replace("num_heads 2", "num_heads 0") + "end\n")


def test_rejects_an_extractor_that_does_not_feed_the_layer():
    # The 3 -> 2 extractor of the ERM fixture ahead of the e=3 layer.
    fe_lines = V1_ERM_TEXT.splitlines()[2:8]
    text = V1_GDU_TEXT.replace("field fe_layers 0", "\n".join(fe_lines))
    with pytest.raises(CheckpointError, match="extractor output size 2 does not match") as info:
        model_from_text(text)
    assert type(info.value.__cause__) is ValueError


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("0x1.0000000000000p-2 0x1.8000000000000p-2 0x1.0000000000000p-1",
         "0x1.0000000000000p-2 0xzz 0x1.0000000000000p-1", "block 'basis1'"),
        ("0x1.8000000000000p-1 0x1.c000000000000p-1\nblock mach_w0",
         "0x1.8000000000000p-1 0x1.cp-1z\nblock mach_w0", "block 'basis1'"),
        ("field sigma 0x1.8000000000000p+0", "field sigma 1.5x", "field 'sigma'"),
        ("field sigma 0x1.8000000000000p+0", "field sigma -", "field 'sigma'"),
        ("block mach_w0 2 3 2 6", "block mach_w0 two 3 2 6", "block 'mach_w0'"),
        ("block mach_w0 2 3 2 6", "block mach_w0 2 3 -2 6", "block 'mach_w0'"),
        ("block mach_b0 1 2 2", "block mach_b0 1 2 2.0", "block 'mach_b0'"),
        # 2^32 * 2^32 values wrap to 0 in int64.
        ("block mach_b0 1 2 2", "block mach_b0 2 4294967296 4294967296 0", "block 'mach_b0'"),
        ("field num_bases 2", "field num_bases two", "field 'num_bases'"),
        ("field fe_layers 0", "field fe_layers x", "field 'fe_layers'"),
        ("gdu-checkpoint 1", "gdu-checkpoint v1", "version"),
    ],
)
def test_malformed_tokens_raise_checkpoint_errors_that_name_the_place(old, new, message):
    assert old in V1_GDU_TEXT
    with pytest.raises(CheckpointError, match=message):
        model_from_text(V1_GDU_TEXT.replace(old, new, 1))


def test_malformed_erm_tokens_raise_checkpoint_errors():
    bad_count = V1_ERM_TEXT.replace("field num_heads 2", "field num_heads 2.5")
    with pytest.raises(CheckpointError, match="field 'num_heads'"):
        model_from_text(bad_count)
    bad_value = V1_ERM_TEXT.replace("0x1.0000000000000p-4 0x1.0000000000000p+0", "0x1.0p-4 nan?")
    with pytest.raises(CheckpointError, match="block 'head_b1'"):
        model_from_text(bad_value)


def test_parts_that_do_not_fit_raise_checkpoint_errors():
    # Bases of width 6 ahead of machines that take 3 features.
    wide = V1_GDU_TEXT.replace("block basis0 2 2 3 6", "block basis0 2 1 6 6")
    wide = wide.replace("block basis1 2 2 3 6", "block basis1 2 1 6 6")
    with pytest.raises(CheckpointError, match="invalid gdu-model checkpoint") as info:
        model_from_text(wide)
    assert type(info.value.__cause__) is ValueError
    # A kernel mode the layer does not know.
    with pytest.raises(CheckpointError, match="invalid gdu-model checkpoint"):
        model_from_text(V1_GDU_TEXT.replace("field mode PROJECTION", "field mode BOGUS"))


def test_a_kappa_on_a_projection_layer_raises_a_checkpoint_error():
    text = V1_GDU_TEXT.replace("field kappa -", "field kappa 0x1.9000000000000p+5")
    match = "invalid gdu-model checkpoint: a PROJECTION layer takes no kappa, got kappa=50.0"
    with pytest.raises(CheckpointError, match=match) as info:
        model_from_text(text)
    assert type(info.value.__cause__) is ValueError


def awkward_layer():
    layer = init_layer(
        3, 4, 5, 2, seed=11, mode="PROJECTION", kernel=KernelConfig(sigma=7.5)
    )
    # Values that expose lossy decimal formatting.
    layer.bases[0][0, 0] = 1.0 / 3.0
    layer.bases[1][2, 3] = 1e-300
    layer.machines[0].weights[0, 0] = -0.1
    return layer


def test_layer_round_trip_bit_exact():
    layer = awkward_layer()
    restored = model_from_text(model_to_text(GduModel(None, layer))).layer
    assert restored.mode == layer.mode
    assert restored.kernel == layer.kernel
    assert restored.kappa is None
    for a, b in zip(layer.bases, restored.bases):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(layer.machines, restored.machines):
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.bias, b.bias)
        assert a.activation == b.activation


def test_layer_text_stable_across_round_trips():
    text = model_to_text(GduModel(None, awkward_layer()))
    assert model_to_text(model_from_text(text)) == text


def test_block_text_matches_the_v1_layout():
    layer = awkward_layer()
    layer.bases[0][1, 1] = -0.0
    flat = [float(v) for v in layer.bases[0].ravel()]  # 4 x 5
    lines = ["block basis0 2 4 5 20"] + [
        " ".join(v.hex() for v in flat[i : i + 8]) for i in range(0, 20, 8)
    ]
    assert "\n" + "\n".join(lines) + "\n" in model_to_text(GduModel(None, layer))


def test_gdu_model_round_trip(tmp_path):
    fe = init_feature_extractor([4, 6, 5], seed=3, nonlinearity="tanh")
    layer = init_layer(2, 3, 5, 3, seed=4, mode="MMD", kernel=KernelConfig(2.0), kappa=2.0)
    model = GduModel(fe, layer)
    path = tmp_path / "model.ckpt"
    save_model(path, model)
    restored = load_model(path)
    assert isinstance(restored, GduModel)
    assert restored.fe.nonlinearity == "tanh"
    for a, b in zip(model.fe.weights, restored.fe.weights):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(
        model.layer.bases[1], restored.layer.bases[1]
    )
    assert restored.layer.kappa == 2.0


def test_erm_model_round_trip():
    model = init_erm_model([3, 4], 2, n_heads=3, seed=9, activation="tanh")
    model.layer.bias += np.arange(6.0).reshape(3, 2) / 3.0
    text = model_to_text(model)
    assert "field kind erm-model" in text and "field num_heads 3" in text
    restored = model_from_text(text)
    assert (restored.layer.mode, restored.layer.bases) == ("UNIFORM", None)
    assert restored.layer.activation == "tanh"
    np.testing.assert_array_equal(restored.layer.weights, model.layer.weights)
    np.testing.assert_array_equal(restored.layer.bias, model.layer.bias)
    assert model_to_text(restored) == text


def test_rejects_bad_version_and_truncation():
    text = model_to_text(GduModel(None, awkward_layer()))
    with pytest.raises(CheckpointError, match="version"):
        model_from_text(text.replace("gdu-checkpoint 1", "gdu-checkpoint 99", 1))
    with pytest.raises(CheckpointError):
        model_from_text(text[: len(text) // 2])
    with pytest.raises(CheckpointError, match="kind"):
        model_from_text(text.replace("field kind gdu-model", "field kind mystery", 1))
    with pytest.raises(CheckpointError, match="kind 'layer'"):
        model_from_text(text.replace("field kind gdu-model", "field kind layer", 1))


def test_tokens_after_end_raise_checkpoint_errors():
    with pytest.raises(CheckpointError, match="'gdu-checkpoint' after 'end'"):
        model_from_text(V1_GDU_TEXT + V1_ERM_TEXT)
    with pytest.raises(CheckpointError, match="'garbage' after 'end'"):
        model_from_text(V1_ERM_TEXT + "garbage 1 2 3\n")
    # Trailing whitespace is not a token.
    assert model_to_text(model_from_text(V1_GDU_TEXT + "\n  \n")) == V1_GDU_TEXT


def test_non_finite_and_signed_zero_machine_weights_round_trip():
    layer = awkward_layer()
    layer.weights[0, 0, 0] = np.nan
    layer.weights[1, 2, 1] = -np.inf
    layer.weights[2, 1, 0] = np.inf
    layer.bias[1, 0] = -0.0
    layer.bias[2, 1] = 5e-324
    text = model_to_text(GduModel(None, layer))
    tokens = set(text.split())
    assert {"nan", "inf", "-inf", "-0x0.0p+0", "0x0.0000000000001p-1022"} <= tokens
    restored = model_from_text(text).layer
    np.testing.assert_array_equal(restored.weights, layer.weights)
    assert np.signbit(restored.bias[1, 0]) and restored.bias[2, 1] == 5e-324
    assert model_to_text(GduModel(None, restored)) == text
