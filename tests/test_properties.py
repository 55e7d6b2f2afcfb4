"""Property tests over random layer sizes, gating modes and activations."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gdu.checkpoint import layer_from_text, layer_to_text
from gdu.kernel import KernelConfig
from gdu.layer import GATING_MODES, GEOMETRY_MODES, forward_batch, gate_matrix, init_layer

SETTINGS = settings(derandomize=True, deadline=None, max_examples=20)


@st.composite
def layers_and_batches(draw, modes=GATING_MODES):
    """A random layer with nonzero biases plus a feature batch for it."""
    m, n, e, c = (draw(st.integers(1, 4)) for _ in range(4))
    mode = draw(st.sampled_from(modes))
    activation = draw(st.sampled_from(("identity", "tanh")))
    sigma = draw(st.sampled_from((0.5, 1.5, 4.0)))
    kappa = None if mode == "PROJECTION" else draw(st.sampled_from((0.1, 2.0, 20.0)))
    seed = draw(st.integers(0, 2**31 - 1))
    layer = init_layer(m, n, e, c, seed, mode, KernelConfig(sigma), kappa, activation)
    rng = np.random.default_rng(seed)
    layer.bias += rng.normal(size=(m, c))
    X = rng.normal(size=(draw(st.integers(1, 6)), e))
    return layer, X


@SETTINGS
@given(layers_and_batches())
def test_checkpoint_round_trip_is_bit_exact(case):
    layer, _ = case
    text = layer_to_text(layer)
    back = layer_from_text(text)
    np.testing.assert_array_equal(back.bases, layer.bases)
    np.testing.assert_array_equal(back.weights, layer.weights)
    np.testing.assert_array_equal(back.bias, layer.bias)
    assert (back.mode, back.kernel, back.kappa, back.activation) == (
        layer.mode, layer.kernel, layer.kappa, layer.activation,
    )
    assert layer_to_text(back) == text


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
