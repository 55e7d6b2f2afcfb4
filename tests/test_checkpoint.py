"""Bit-exact round-trips for the text checkpoint format."""

import base64
import struct

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
    FeatureExtractor,
    GduModel,
    init_erm_model,
    init_feature_extractor,
    predict_logits,
)


# Format v4 text of a tiny GDU model: a one-layer relu extractor 2 -> 3 and
# a CS layer (M=2, N=2, e=3, C=2, sigma 1.5, kappa 20), its three
# stacked arrays one block each, every block the base64 of its float64 bytes.
GDU_TEXT = """gdu-checkpoint 4
field fe_layers 1
field fe_nonlinearity relu
block fe_w0 2 2 3 6
AAAAAAAA4L8AAAAAAADQvwAAAAAAAAAAAAAAAAAA0D8AAAAAAADgPwAAAAAAAOg/
block fe_b0 1 3 3
AAAAAAAAwD8AAAAAAADQvwAAAAAAAOA/
field mode CS
field sigma 0x1.8000000000000p+0
field kappa 0x1.4000000000000p+4
block bases 3 2 2 3 12
AAAAAAAA4L8AAAAAAADYvwAAAAAAANC/AAAAAAAAwL8AAAAAAAAAAAAAAAAAAMA/AAAAAAAA0D8AAAAAAADYPwAAAAAAAOA/AAAAAAAA5D8AAAAAAADoPwAAAAAAAOw/
block weights 3 3 2 2 12
AAAAAAAA0L8AAAAAAADIvwAAAAAAAMC/AAAAAAAAsL8AAAAAAAAAAAAAAAAAALA/AAAAAAAAwD8AAAAAAADIPwAAAAAAANA/AAAAAAAA1D8AAAAAAADYPwAAAAAAANw/
block bias 2 2 2 4
AAAAAAAA0D8AAAAAAADgvwAAAAAAAPA/AAAAAAAAwL8=
end
"""
GDU_FE_W = np.arange(6.0).reshape(2, 3) / 4.0 - 0.5
GDU_FE_B = np.array([0.125, -0.25, 0.5])
GDU_BASES = np.arange(12.0).reshape(2, 2, 3) / 8.0 - 0.5  # (M, N, e)
GDU_WEIGHTS = np.arange(12.0).reshape(3, 2, 2) / 16.0 - 0.25  # (e, M, C)
GDU_BIAS = np.array([[0.25, -0.5], [1.0, -0.125]])  # (M, C)
BASES_BLOCK = GDU_TEXT[GDU_TEXT.index("block bases") : GDU_TEXT.index("block weights")]


def test_gdu_text_loads_to_the_stacked_arrays_and_writes_back_unchanged():
    model = model_from_text(GDU_TEXT)
    assert model.fe.nonlinearity == "relu"
    np.testing.assert_array_equal(model.fe.weights[0], GDU_FE_W)
    np.testing.assert_array_equal(model.fe.biases[0], GDU_FE_B)
    layer = model.layer
    assert (layer.mode, layer.kernel.sigma, layer.kappa) == ("CS", 1.5, 20.0)
    np.testing.assert_array_equal(layer.bases, GDU_BASES)
    np.testing.assert_array_equal(layer.weights, GDU_WEIGHTS)
    np.testing.assert_array_equal(layer.bias, GDU_BIAS)
    assert model_to_text(model) == GDU_TEXT
    fe = FeatureExtractor([GDU_FE_W], [GDU_FE_B], "relu")
    built = GduLayer(GDU_BASES, GDU_WEIGHTS, GDU_BIAS, KernelConfig(1.5), "CS", 20.0)
    assert model_to_text(GduModel(fe, built)) == GDU_TEXT


# Format v4 text of a tiny ERM model: a one-layer relu extractor 3 -> 2 and
# K=2 heads with C=2, the UNIFORM layer with no bases and no kernel.
ERM_TEXT = """gdu-checkpoint 4
field fe_layers 1
field fe_nonlinearity relu
block fe_w0 2 3 2 6
AAAAAAAA4L8AAAAAAADQvwAAAAAAAAAAAAAAAAAA0D8AAAAAAADgPwAAAAAAAOg/
block fe_b0 1 2 2
AAAAAAAAwD8AAAAAAADQvw==
field mode UNIFORM
field sigma -
field kappa -
block weights 3 2 2 2 8
AAAAAAAA2L8AAAAAAADQvwAAAAAAAMC/AAAAAAAAAAAAAAAAAADAPwAAAAAAANA/AAAAAAAA2D8AAAAAAADgPw==
block bias 2 2 2 4
AAAAAAAA4D8AAAAAAADovwAAAAAAALA/AAAAAAAA8D8=
end
"""
ERM_FE_W = np.arange(6.0).reshape(3, 2) / 4.0 - 0.5
ERM_FE_B = np.array([0.125, -0.25])
ERM_WEIGHTS = np.arange(8.0).reshape(2, 2, 2) / 8.0 - 0.375  # (e, K, C)
ERM_BIAS = np.array([[0.5, -0.75], [0.0625, 1.0]])  # (K, C)


def test_erm_text_loads_and_writes_back_unchanged():
    model = model_from_text(ERM_TEXT)
    assert model.fe.nonlinearity == "relu"
    layer = model.layer
    assert (layer.mode, layer.bases, layer.kernel) == ("UNIFORM", None, None)
    assert layer.kappa is None
    np.testing.assert_array_equal(layer.weights, ERM_WEIGHTS)
    np.testing.assert_array_equal(layer.bias, ERM_BIAS)
    np.testing.assert_array_equal(model.fe.weights[0], ERM_FE_W)
    np.testing.assert_array_equal(model.fe.biases[0], ERM_FE_B)
    # The heads' mean, computed head by head from the expected arrays.
    X = np.random.default_rng(19).normal(size=(5, 3))
    feats = X @ ERM_FE_W + ERM_FE_B  # no nonlinearity after the last layer
    heads = [feats @ ERM_WEIGHTS[:, j] + ERM_BIAS[j] for j in range(2)]
    np.testing.assert_allclose(
        predict_logits(model, X), (heads[0] + heads[1]) / 2.0, rtol=1e-15, atol=0.0
    )
    assert model_to_text(model) == ERM_TEXT


# Format v3 text of the same GDU model: v4's layout with an ``activation``
# field after ``kappa``. Version 4 dropped that field, and no v3 reader is
# kept.
V3_GDU_TEXT = """gdu-checkpoint 3
field fe_layers 1
field fe_nonlinearity relu
block fe_w0 2 2 3 6
AAAAAAAA4L8AAAAAAADQvwAAAAAAAAAAAAAAAAAA0D8AAAAAAADgPwAAAAAAAOg/
block fe_b0 1 3 3
AAAAAAAAwD8AAAAAAADQvwAAAAAAAOA/
field mode CS
field sigma 0x1.8000000000000p+0
field kappa 0x1.4000000000000p+4
field activation tanh
block bases 3 2 2 3 12
AAAAAAAA4L8AAAAAAADYvwAAAAAAANC/AAAAAAAAwL8AAAAAAAAAAAAAAAAAAMA/AAAAAAAA0D8AAAAAAADYPwAAAAAAAOA/AAAAAAAA5D8AAAAAAADoPwAAAAAAAOw/
block weights 3 3 2 2 12
AAAAAAAA0L8AAAAAAADIvwAAAAAAAMC/AAAAAAAAsL8AAAAAAAAAAAAAAAAAALA/AAAAAAAAwD8AAAAAAADIPwAAAAAAANA/AAAAAAAA1D8AAAAAAADYPwAAAAAAANw/
block bias 2 2 2 4
AAAAAAAA0D8AAAAAAADgvwAAAAAAAPA/AAAAAAAAwL8=
end
"""

# Format v2 text of the same GDU model: v3's layout with every value a
# ``float.hex`` token, eight to a line. Version 3 replaced those lines with
# base64 tokens, and no v2 reader is kept.
V2_GDU_TEXT = """gdu-checkpoint 2
field fe_layers 1
field fe_nonlinearity relu
block fe_w0 2 2 3 6
-0x1.0000000000000p-1 -0x1.0000000000000p-2 0x0.0p+0 0x1.0000000000000p-2 0x1.0000000000000p-1 0x1.8000000000000p-1
block fe_b0 1 3 3
0x1.0000000000000p-3 -0x1.0000000000000p-2 0x1.0000000000000p-1
field mode CS
field sigma 0x1.8000000000000p+0
field kappa 0x1.4000000000000p+4
field activation tanh
block bases 3 2 2 3 12
-0x1.0000000000000p-1 -0x1.8000000000000p-2 -0x1.0000000000000p-2 -0x1.0000000000000p-3 0x0.0p+0 0x1.0000000000000p-3 0x1.0000000000000p-2 0x1.8000000000000p-2
0x1.0000000000000p-1 0x1.4000000000000p-1 0x1.8000000000000p-1 0x1.c000000000000p-1
block weights 3 3 2 2 12
-0x1.0000000000000p-2 -0x1.8000000000000p-3 -0x1.0000000000000p-3 -0x1.0000000000000p-4 0x0.0p+0 0x1.0000000000000p-4 0x1.0000000000000p-3 0x1.8000000000000p-3
0x1.0000000000000p-2 0x1.4000000000000p-2 0x1.8000000000000p-2 0x1.c000000000000p-2
block bias 2 2 2 4
0x1.0000000000000p-2 -0x1.0000000000000p-1 0x1.0000000000000p+0 -0x1.0000000000000p-3
end
"""

# Format v1 texts of the same shapes: one block per basis and one weight and
# bias block per machine or head, under a ``kind`` field. Version 2 replaced
# that layout.
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


@pytest.mark.parametrize(
    "text, version",
    [(V1_GDU_TEXT, 1), (V1_ERM_TEXT, 1), (V2_GDU_TEXT, 2), (V3_GDU_TEXT, 3)],
    ids=["gdu", "erm", "v2-gdu", "v3-gdu"],
)
def test_v1_texts_are_unsupported(text, version):
    with pytest.raises(CheckpointError, match=f"^unsupported checkpoint version {version}$"):
        model_from_text(text)


def _invalid(text):
    """The ``CheckpointError`` that ``text`` raises, carrying the constructor's ``ValueError``."""
    with pytest.raises(CheckpointError, match="^invalid checkpoint: ") as info:
        model_from_text(text)
    assert type(info.value.__cause__) is ValueError
    return str(info.value.__cause__)


def test_rejects_blocks_whose_shapes_do_not_fit():
    # Each block is read whole, so only the constructor checks how they fit.
    assert "bases must form" in _invalid(
        GDU_TEXT.replace("block bases 3 2 2 3 12", "block bases 2 4 3 12")
    )
    assert "bias (M, C)" in _invalid(GDU_TEXT.replace("block bias 2 2 2 4", "block bias 3 2 1 2 4"))
    # No bases, or no heads.
    no_bases = GDU_TEXT.replace(BASES_BLOCK, "block bases 3 0 2 3 0\n")
    assert "bases must form a nonempty" in _invalid(no_bases)
    head, _, _ = ERM_TEXT.partition("block weights")
    no_heads = head + "block weights 3 2 0 2 0\nblock bias 2 0 2 0\nend\n"
    assert "nonempty (e, M, C)" in _invalid(no_heads)


def test_rejects_an_extractor_that_does_not_feed_the_layer():
    # The 3 -> 2 extractor of the ERM fixture ahead of the e=3 layer.
    fe_lines = ERM_TEXT.splitlines()[1:7]
    gdu_fe_lines = GDU_TEXT.splitlines()[1:7]
    text = GDU_TEXT.replace("\n".join(gdu_fe_lines), "\n".join(fe_lines))
    assert "extractor output size 2 does not match" in _invalid(text)


def _b64(values) -> str:
    """The standard base64 of ``values`` as little-endian float64s, in order."""
    values = [float(v) for v in values]
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


@pytest.mark.parametrize(
    "old, new, message",
    [
        # A character outside the base64 alphabet.
        ("AAAAAAAAwL8AAAAAAAAAAAAAAAAAAMA/", "AAAAAAAAwL8AAAAAAAAA!AAAAAAAAMA/", "block 'bases'"),
        # Padding cut short, then padding inside the token.
        ("AAAAAAAAwL8=\nend", "AAAAAAAAwL8\nend", "block 'bias'.*padding"),
        ("AAAAAAAAwL8=\nend", "AAAAAAAA=wL8\nend", "block 'bias'.*padding"),
        # Valid base64 one value short of the declared count.
        (_b64(GDU_BASES.ravel()), _b64(GDU_BASES.ravel()[:-1]),
         "block 'bases': 88 bytes for 12 float64 values"),
        ("field sigma 0x1.8000000000000p+0", "field sigma 1.5x", "field 'sigma'"),
        ("field kappa 0x1.4000000000000p+4", "field kappa None", "field 'kappa'"),
        ("block weights 3 3 2 2 12", "block weights two 3 2 2 12", "block 'weights'"),
        ("block weights 3 3 2 2 12", "block weights 3 3 -2 2 12", "block 'weights'"),
        ("block bias 2 2 2 4", "block bias 2 2 2 4.0", "block 'bias'"),
        # 2^32 * 2^32 values wrap to 0 in int64.
        ("block bias 2 2 2 4", "block bias 2 4294967296 4294967296 0", "block 'bias'"),
        # The number of bases is the first dimension of their block.
        ("block bases 3 2 2 3 12", "block bases 3 two 2 3 12", "block 'bases'"),
        ("field fe_layers 1", "field fe_layers x", "field 'fe_layers'"),
        ("gdu-checkpoint 4", "gdu-checkpoint v4", "version"),
    ],
)
def test_malformed_tokens_raise_checkpoint_errors_that_name_the_place(old, new, message):
    assert old in GDU_TEXT
    with pytest.raises(CheckpointError, match=message):
        model_from_text(GDU_TEXT.replace(old, new, 1))


def test_malformed_erm_tokens_raise_checkpoint_errors():
    # The number of heads is the middle dimension of the weights block.
    bad_count = ERM_TEXT.replace("block weights 3 2 2 2 8", "block weights 3 2 2.5 2 8")
    with pytest.raises(CheckpointError, match="block 'weights'"):
        model_from_text(bad_count)
    # Valid base64 one value longer than the declared count.
    long_value = ERM_TEXT.replace(_b64(ERM_BIAS.ravel()), _b64([*ERM_BIAS.ravel(), 0.0]))
    with pytest.raises(CheckpointError, match="block 'bias': 40 bytes for 4 float64 values"):
        model_from_text(long_value)


def test_bases_are_read_exactly_when_the_mode_takes_them():
    with pytest.raises(CheckpointError, match="expected block 'bases', found 'weights'"):
        model_from_text(GDU_TEXT.replace(BASES_BLOCK, ""))
    with pytest.raises(CheckpointError, match="expected block 'weights', found 'bases'"):
        model_from_text(ERM_TEXT.replace("block weights", BASES_BLOCK + "block weights"))


def test_parts_that_do_not_fit_raise_checkpoint_errors():
    # Bases of width 6 ahead of machines that take 3 features.
    wide = GDU_TEXT.replace("block bases 3 2 2 3 12", "block bases 3 2 1 6 12")
    assert "bases must be (M, N, e) = (2, N, 3); got (2, 1, 6)" in _invalid(wide)
    # A kernel mode the layer does not know.
    assert "unknown gating mode 'BOGUS'" in _invalid(GDU_TEXT.replace("mode CS", "mode BOGUS"))


def test_a_kernel_or_kappa_the_mode_does_not_take_raises_a_checkpoint_error():
    projection = GDU_TEXT.replace("field mode CS", "field mode PROJECTION")
    assert _invalid(projection) == "a PROJECTION layer takes no kappa, got kappa=20.0"
    no_sigma = GDU_TEXT.replace("field sigma 0x1.8000000000000p+0", "field sigma -")
    assert _invalid(no_sigma) == "a CS layer needs a kernel, got kernel=None"
    erm_sigma = ERM_TEXT.replace("field sigma -", "field sigma 0x1.8000000000000p+0")
    assert "a UNIFORM layer has no bases and no kernel" in _invalid(erm_sigma)
    erm_kappa = ERM_TEXT.replace("field kappa -", "field kappa 0x1.4000000000000p+4")
    assert _invalid(erm_kappa) == "a UNIFORM layer takes no kappa, got kappa=20.0"
    zero_sigma = GDU_TEXT.replace("field sigma 0x1.8000000000000p+0", "field sigma 0x0.0p+0")
    assert "sigma must be a positive finite real" in _invalid(zero_sigma)


def test_bases_whose_squared_norms_overflow_raise_a_checkpoint_error():
    layer = init_layer(2, 3, 4, 2, 0, "CS", KernelConfig(1e152), 20.0)
    model_from_text(model_to_text(GduModel(None, layer)))
    # The bases init_layer would draw at sigma = 1e154, which it refuses.
    layer.bases *= 100.0
    layer.kernel = KernelConfig(1e154)
    message = _invalid(model_to_text(GduModel(None, layer)))
    assert message.startswith("GduLayer bases needs rows with squared norms below")


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


def test_layer_text_stable_across_round_trips():
    text = model_to_text(GduModel(None, awkward_layer()))
    assert model_to_text(model_from_text(text)) == text


def test_block_text_is_base64_of_c_order_bytes():
    layer = awkward_layer()
    layer.bases[0][1, 1] = -0.0
    # The same values held in Fortran order: a transposed view of a copy.
    layer.bases = np.ascontiguousarray(layer.bases.transpose()).transpose()
    assert not layer.bases.flags.c_contiguous
    lines = ["block bases 3 3 4 5 60", _b64(layer.bases.ravel())]  # ravel reads in C order
    assert "\n" + "\n".join(lines) + "\nblock weights" in model_to_text(GduModel(None, layer))


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
    model = init_erm_model([3, 4], 2, n_heads=3, seed=9)
    model.layer.bias += np.arange(6.0).reshape(3, 2) / 3.0
    text = model_to_text(model)
    assert "field mode UNIFORM\nfield sigma -\nfield kappa -\n" in text
    assert "block bases" not in text and "block weights 3 4 3 2 24" in text
    restored = model_from_text(text)
    assert (restored.layer.mode, restored.layer.bases) == ("UNIFORM", None)
    np.testing.assert_array_equal(restored.layer.weights, model.layer.weights)
    np.testing.assert_array_equal(restored.layer.bias, model.layer.bias)
    assert model_to_text(restored) == text


def test_rejects_bad_version_and_truncation():
    text = model_to_text(GduModel(None, awkward_layer()))
    with pytest.raises(CheckpointError, match="^unsupported checkpoint version 99$"):
        model_from_text(text.replace("gdu-checkpoint 4", "gdu-checkpoint 99", 1))
    # Cut after a whole block, and between a block's header and its values.
    bias_at = text.index("block bias")
    for cut in (text[:bias_at], text[: text.index("\n", bias_at) + 1]):
        with pytest.raises(CheckpointError, match="^unexpected end of checkpoint$"):
            model_from_text(cut)
    # The v1 ``kind`` field is not part of the format.
    with pytest.raises(CheckpointError, match="expected field 'fe_layers', found 'kind'"):
        model_from_text(text.replace("\n", "\nfield kind gdu-model\n", 1))


def test_tokens_after_end_raise_checkpoint_errors():
    with pytest.raises(CheckpointError, match="'gdu-checkpoint' after 'end'"):
        model_from_text(GDU_TEXT + ERM_TEXT)
    with pytest.raises(CheckpointError, match="'garbage' after 'end'"):
        model_from_text(ERM_TEXT + "garbage 1 2 3\n")
    # Trailing whitespace is not a token.
    assert model_to_text(model_from_text(GDU_TEXT + "\n  \n")) == GDU_TEXT


def test_non_finite_and_signed_zero_machine_weights_round_trip():
    layer = awkward_layer()
    layer.weights[0, 0, 0] = np.nan
    layer.weights[1, 2, 1] = -np.inf
    layer.weights[2, 1, 0] = np.inf
    # A quiet NaN with its sign set and a payload, and a signalling NaN.
    layer.weights.view(np.uint64)[3, 0, 1] = 0xFFF80000DEADBEEF
    layer.weights.view(np.uint64)[4, 1, 1] = 0x7FF0000000000001
    layer.bias[1, 0] = -0.0
    layer.bias[2, 1] = 5e-324
    text = model_to_text(GduModel(None, layer))
    restored = model_from_text(text).layer
    for got, sent in ((restored.weights, layer.weights), (restored.bias, layer.bias)):
        np.testing.assert_array_equal(got.view(np.uint64), sent.view(np.uint64))
    assert np.signbit(restored.bias[1, 0]) and restored.bias[2, 1] == 5e-324
    assert model_to_text(GduModel(None, restored)) == text
