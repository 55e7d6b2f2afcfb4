"""Shared fixtures for training and acceptance tests."""

import tracemalloc

import numpy as np

from gdu.kernel import KernelConfig
from gdu.layer import _basis_inners, basis_gram_matrix, init_layer
from gdu.regularization import RegConfig, omega_ols
from gdu.training import (
    GduModel,
    gradients,
    init_feature_extractor,
    objective,
    trainable_arrays,
)

from oracles import fd_gradient, max_relative_error

SMALL_DIMS = dict(e=4, m=2, n=3, c=3, b=5)


def build_small_gdu(seed, mode, kappa=2.0, sigma=1.5, fe_nonlinearity="tanh", dims=SMALL_DIMS):
    """A small random model plus a batch, sized per the gradient contract.

    The extractor uses tanh between layers so the objective stays smooth
    for finite differencing.
    """
    rng = np.random.default_rng(seed)
    e, m, n, c, b = dims["e"], dims["m"], dims["n"], dims["c"], dims["b"]
    fe = init_feature_extractor([e, e], seed + 1, fe_nonlinearity)
    layer = init_layer(
        m, n, e, c, seed + 2, mode, KernelConfig(sigma),
        kappa if mode != "PROJECTION" else None,
    )
    # Break the zero-bias symmetry so every block has nontrivial gradients.
    layer.bias += rng.normal(scale=0.3, size=(m, c))
    model = GduModel(fe, layer)
    X = rng.normal(size=(b, e))
    y = rng.integers(0, c, size=b)
    return model, X, y


def layer_ols(X, beta, layer):
    """``omega_ols`` over the statistics of ``layer`` on the feature batch X."""
    return omega_ols(_basis_inners(X, layer)[0], basis_gram_matrix(layer), beta)


def reg_toggles(mode):
    """Each applicable regularizer off, on alone, and all-on, per mode."""
    if mode in ("CS", "MMD"):
        return [
            RegConfig(),
            RegConfig(lambda_ols=0.5),
            RegConfig(lambda_l1=0.5),
            RegConfig(lambda_ols=0.5, lambda_l1=0.5),
        ]
    return [
        RegConfig(),
        RegConfig(lambda_ols=0.5),
        RegConfig(lambda_orth=0.5),
        RegConfig(lambda_ols=0.5, lambda_orth=0.5),
    ]


def gradient_max_rel_error(model, X, y, reg, train_mode, step=1e-5):
    """Worst relative disagreement between backprop and central FD."""
    analytic = gradients((X, y), model, reg, train_mode)
    arrays = trainable_arrays(model, train_mode)
    numeric = fd_gradient(lambda: objective((X, y), model, reg), arrays, step)
    assert set(analytic) == set(arrays)
    return max_relative_error(analytic, numeric)


def traced_peak_bytes(fn, *args):
    """``fn(*args)`` and the peak of traced allocations above the start, in bytes.

    numpy reports its array buffers to tracemalloc, so the peak counts every
    temporary array that ``fn`` makes, whether or not it outlives the call.
    """
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
