"""Regularization terms for the gated domain layer.

* ``omega_ols``  - mean squared RKHS reconstruction error of each sample's
  feature map by the gate-weighted basis embeddings (kernel-trick expansion).
* ``omega_orth`` - orthogonality penalties on the basis Gram matrix:
  soft orthogonality ``SO = ||K - I||_F^2``, spectral restricted isometry
  ``SRIP = ||K - I||_2`` (exact, from a dense symmetric eigensolver), and
  mutual coherence ``MC = max_{i != j} |K_ij|``.
* ``omega_l1``   - batch-mean L1 norm of the gating coefficients.

``omega_total`` adds the weighted terms a gating mode takes:

==============  ==============================
mode            weights
==============  ==============================
CS, MMD         ``lambda_ols``, ``lambda_l1``
PROJECTION      ``lambda_ols``, ``lambda_orth``
UNIFORM         none (the layer has no bases)
==============  ==============================

A nonzero weight outside its mode's row raises a ValueError that names the
weight and the mode. The training objective adds the same combination
through ``_add_regularizers``, reusing the gate's inner products instead of
recomputing kernel blocks. The training trace still reports all three raw
terms for every mode with bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .layer import UNIFORM, GduLayer, _basis_inners, basis_gram_matrix

__all__ = [
    "ORTH_VARIANTS",
    "RegConfig",
    "omega_ols",
    "omega_orth",
    "omega_l1",
    "omega_total",
]

ORTH_VARIANTS = ("SO", "SRIP", "MC")

_OLS_CLAMP_TOL = 1e-10
_WEIGHTS = ("lambda_ols", "lambda_orth", "lambda_l1")
# The weights each gating mode takes (see the module docstring).
_MODE_WEIGHTS = {
    "CS": ("lambda_ols", "lambda_l1"),
    "MMD": ("lambda_ols", "lambda_l1"),
    "PROJECTION": ("lambda_ols", "lambda_orth"),
    UNIFORM: (),
}


@dataclass(frozen=True)
class RegConfig:
    """Weights for the regularization terms; all must be finite and nonnegative."""

    lambda_ols: float = 0.0
    lambda_orth: float = 0.0
    lambda_l1: float = 0.0
    orth_variant: str = "SRIP"

    def __post_init__(self):
        for name in _WEIGHTS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if self.orth_variant not in ORTH_VARIANTS:
            raise ValueError(f"unknown orthogonality variant {self.orth_variant!r}")


def _omega_ols_from_stats(a, k_bases, beta):
    """Reconstruction error from precomputed embedding inner products."""
    cross = ad.mean(ad.summation(beta * a, axis=1))
    quad = ad.mean(ad.summation((beta @ k_bases) * beta, axis=1))
    raw = 1.0 - 2.0 * cross + quad
    val = float(ad.value_of(raw))
    if val < -_OLS_CLAMP_TOL:
        raise ValueError(f"reconstruction error evaluated to {val}; expected >= 0")
    if val < 0.0:
        return ad.maximum(raw, 0.0)
    return raw


def _checked_inners(X, beta, layer: GduLayer):
    """``a[i, j] = <phi(x_i), mu_j>`` for a batch that ``beta`` must match."""
    bshape = ad.value_of(beta).shape
    b = ad.value_of(X).shape[0]
    if bshape != (b, layer.num_bases):
        raise ValueError(
            f"beta shape {bshape} does not match batch {b} x {layer.num_bases}"
        )
    a, _ = _basis_inners(X, layer)
    return a


def omega_ols(X, beta, layer: GduLayer):
    """Mean squared RKHS reconstruction error over the batch.

    Expands ``||phi(x_i) - sum_j beta_ij mu_j||^2`` via the kernel trick:
    ``k(x_i, x_i) - 2 sum_j beta_ij <phi(x_i), mu_j>
    + sum_{j,l} beta_ij beta_il <mu_j, mu_l>`` with ``k(x, x) = 1``.
    """
    a = _checked_inners(X, beta, layer)
    return _omega_ols_from_stats(a, basis_gram_matrix(layer), beta)


def omega_orth(K, variant: str):
    """Orthogonality penalty on a basis Gram matrix."""
    if variant not in ORTH_VARIANTS:
        raise ValueError(f"unknown orthogonality variant {variant!r}")
    shape = ad.value_of(K).shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square Gram matrix, got shape {shape}")
    m = shape[0]
    eye = np.eye(m)
    if variant == "SO":
        diff = K - eye
        return ad.summation(diff * diff)
    if variant == "SRIP":
        return ad.spectral_norm_sym(K - eye)
    # MC: largest absolute off-diagonal entry.
    if m == 1:
        return 0.0
    off = ad.absolute(K) * (1.0 - eye)
    return ad.amax(off)


def omega_l1(beta):
    """Batch-mean L1 norm of the gating coefficients."""
    return ad.mean(ad.summation(ad.absolute(beta), axis=1))


def _check_mode_weights(mode: str, cfg: RegConfig):
    """Raise a ValueError naming every nonzero weight that ``mode`` does not take."""
    allowed = _MODE_WEIGHTS[mode]
    bad = [f"{n}={getattr(cfg, n)}" for n in _WEIGHTS if n not in allowed and getattr(cfg, n)]
    if bad:
        takes = " and ".join(allowed) if allowed else "no regularizer"
        raise ValueError(f"a {mode} layer takes {takes}; got {', '.join(bad)}")


def _add_regularizers(obj, a, beta, layer: GduLayer, cfg: RegConfig):
    """``obj`` plus the mode's weighted regularization terms.

    ``a`` holds the inner products ``<phi(x_i), mu_j>`` that produced
    ``beta`` and is read only by OLS. The basis Gram matrix is built once,
    and only when OLS or ORTH needs it. Each present term is added to
    ``obj`` in turn, so absent terms put no node on a tape. A nonzero weight
    the mode does not take raises a ValueError that names it.
    """
    _check_mode_weights(layer.mode, cfg)
    if cfg.lambda_ols > 0.0 or cfg.lambda_orth > 0.0:
        k_bases = basis_gram_matrix(layer)
        if cfg.lambda_ols > 0.0:
            obj = obj + cfg.lambda_ols * _omega_ols_from_stats(a, k_bases, beta)
        if cfg.lambda_orth > 0.0:
            obj = obj + cfg.lambda_orth * omega_orth(k_bases, cfg.orth_variant)
    if cfg.lambda_l1 > 0.0:
        obj = obj + cfg.lambda_l1 * omega_l1(beta)
    return obj


def omega_total(X, beta, layer: GduLayer, cfg: RegConfig):
    """Mode-appropriate combination of the regularization terms."""
    needs_a = cfg.lambda_ols > 0.0 and layer.mode != UNIFORM
    a = _checked_inners(X, beta, layer) if needs_a else None
    return _add_regularizers(0.0, a, beta, layer, cfg)
