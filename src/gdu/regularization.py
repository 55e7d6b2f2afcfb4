"""Regularization terms for the gated domain layer.

Each term reads kernel statistics or gates, never features or a layer:

* ``omega_ols(a, k_bases, beta)`` - mean squared RKHS reconstruction error
  of each sample's feature map by the gate-weighted basis embeddings
  (kernel-trick expansion). It reads the gate's inner products
  ``a[i, j] = <phi(x_i), mu_j>``, the basis Gram K and the gates beta.
* ``omega_orth(K)`` - the orthogonality penalty on the basis Gram K, the
  spectral restricted isometry ``SRIP = ||K - I||_2`` (Bansal et al.,
  arXiv:1810.09102), exact from a dense symmetric eigensolver.
* ``omega_l1(beta)`` - batch-mean L1 norm of the (b, M) gates beta.

The training objective adds the weighted terms a gating mode takes:

==============  ==============================
mode            weights
==============  ==============================
CS, MMD         ``lambda_ols``, ``lambda_l1``
PROJECTION      ``lambda_ols``, ``lambda_orth``
UNIFORM         none (the layer has no bases)
==============  ==============================

A nonzero weight outside its mode's row raises a ValueError that names the
weight and the mode (``_check_mode_weights``). The training entry points
check the weights once per call; a step only asks ``_reads_basis_gram``
whether OLS or ORTH is on. The objective adds the terms through
``_add_regularizers``, which reads the gate's inner products and, when
OLS or ORTH is on, the basis Gram from the one call that also gives the
gate its statistics, so no kernel block is evaluated twice. The training
trace still reports all three raw terms for every mode with bases.

Each term is a float. Under each ``omega_*`` sits one array function
(``_ols``, ``_orth``, ``_l1``) that returns the value and its closed-form
backward, which the training step calls; the step reaches ORTH through
``_orth``. Their sums over a row of M gates run column by column,
bit-identical to numpy's (``gdu.layer._row_sum``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import _check_float
from .layer import UNIFORM, _row_sum

__all__ = [
    "RegConfig",
    "omega_ols",
    "omega_orth",
    "omega_l1",
]

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

    def __post_init__(self):
        for name in _WEIGHTS:
            value = _check_float(name, getattr(self, name))
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
            object.__setattr__(self, name, value)


def _batch_rows(name: str, beta) -> int:
    """The b rows of (b, M) gates; none raise a ValueError, as their mean is 0/0."""
    if beta.shape[0] == 0:
        raise ValueError(f"{name} needs at least one row, got 0")
    return beta.shape[0]


def _ols(a, k_bases, beta):
    """:func:`omega_ols` and its backward: ``(value, back)``.

    ``back(g)`` returns ``(g_a, g_k, g_beta)``: ``-2 beta g / b``, ``beta^T
    beta g / b`` and ``(beta (K + K^T) - 2 a) g / b``, zero where the clamp
    fires.
    """
    av, kv, bv = (np.asarray(t, dtype=np.float64) for t in (a, k_bases, beta))
    if bv.ndim != 2 or av.shape != bv.shape:
        raise ValueError(f"beta shape {bv.shape} does not match the inner products' {av.shape}")
    m = bv.shape[1]
    if kv.shape != (m, m):
        raise ValueError(f"basis Gram shape {kv.shape} does not match {m} bases")
    b = float(_batch_rows("omega_ols", bv))
    bk = bv @ kv
    cross = np.add.reduce(_row_sum(bv * av), axis=None) / b
    quad = np.add.reduce(_row_sum(bk * bv), axis=None) / b
    val = float(1.0 - 2.0 * cross + quad)
    if val < -_OLS_CLAMP_TOL:
        raise ValueError(f"reconstruction error evaluated to {val}; expected >= 0")
    clamped = val < 0.0
    if clamped:
        val = 0.0

    def back(g):
        s = 0.0 if clamped else g / b
        return bv * (-2.0 * s), bv.T @ (bv * s), (bk + bv @ kv.T - 2.0 * av) * s

    return val, back


def omega_ols(a, k_bases, beta):
    """Mean squared RKHS reconstruction error over the batch.

    Expands ``||phi(x_i) - sum_j beta_ij mu_j||^2`` by the kernel trick into
    ``1 - 2 mean_i <beta_i, a_i> + mean_i beta_i K beta_i^T`` over the b rows,
    with ``k(x, x) = 1``, the gate's inner products ``a[i, j] = <phi(x_i),
    mu_j>`` and the basis Gram ``K[j, l] = <mu_j, mu_l>``. ``a`` and ``beta``
    must both be (b, M) and ``k_bases`` (M, M); a mismatch raises a
    ValueError that names the shapes. The value is a float, clamped at 0
    against roundoff; below ``-1e-10`` it raises. The per-row sums run
    column by column, bit-identical to numpy's. An empty batch raises a
    ValueError that names it.
    """
    return _ols(a, k_bases, beta)[0]


def _orth(K):
    """:func:`omega_orth` and its backward: ``(value, back)``.

    For the output gradient g, ``back(g)`` is g times ``sign(lambda*) u
    u^T`` for the dominant eigenpair of ``K - I``, exact when the dominant
    eigenvalue is simple.
    """
    kv = np.asarray(K, dtype=np.float64)
    if kv.ndim != 2 or kv.shape[0] != kv.shape[1]:
        raise ValueError(f"expected a square Gram matrix, got shape {kv.shape}")
    if kv.shape[0] == 0:
        raise ValueError("omega_orth needs at least one basis, got a (0, 0) Gram matrix")
    eigvals, eigvecs = np.linalg.eigh(kv - np.eye(kv.shape[0]))
    i = int(np.argmax(np.abs(eigvals)))
    u = eigvecs[:, i]
    dk = (1.0 if eigvals[i] >= 0 else -1.0) * np.outer(u, u)
    return float(abs(eigvals[i])), lambda g: g * dk


def omega_orth(K):
    """SRIP, the spectral norm ``||K - I||_2`` of a basis Gram matrix K, as a float.

    A K that is not square, or is (0, 0), raises a ValueError that names it.
    """
    return _orth(K)[0]


def _l1(beta):
    """:func:`omega_l1` and its backward ``back(g) = sign(beta) g / b``: ``(value, back)``."""
    bv = np.asarray(beta, dtype=np.float64)
    if bv.ndim != 2:
        raise ValueError(f"expected (b, M) gates, got beta of shape {bv.shape}")
    b = float(_batch_rows("omega_l1", bv))
    val = np.add.reduce(_row_sum(np.abs(bv)), axis=None) / b
    return float(val), lambda g: np.sign(bv) * (g / b)


def omega_l1(beta):
    """Batch-mean L1 norm of the gating coefficients, as a float.

    The per-row sums run column by column, bit-identical to numpy's. A beta
    that is not 2-D raises a ValueError that names its shape, and an empty
    batch one that names it.
    """
    return _l1(beta)[0]


def _check_mode_weights(mode: str, cfg: RegConfig):
    """Raise a ValueError naming every nonzero weight that ``mode`` does not take.

    The training entry points call it once per call, before any step.
    """
    allowed = _MODE_WEIGHTS[mode]
    bad = [f"{n}={getattr(cfg, n)}" for n in _WEIGHTS if n not in allowed and getattr(cfg, n)]
    if bad:
        takes = " and ".join(allowed) if allowed else "no regularizer"
        raise ValueError(f"a {mode} layer takes {takes}; got {', '.join(bad)}")


def _reads_basis_gram(cfg: RegConfig) -> bool:
    """Whether the weighted terms read the basis Gram: OLS or ORTH is on.

    It checks nothing: ``cfg`` must have passed :func:`_check_mode_weights`
    for the layer's mode, so a UNIFORM layer's weights are all zero.
    """
    return cfg.lambda_ols > 0.0 or cfg.lambda_orth > 0.0


def _add_regularizers(obj, a, beta, k_bases, cfg: RegConfig):
    """``obj`` plus the weighted regularization terms, and their backward.

    ``cfg`` must have passed :func:`_check_mode_weights` for the layer's
    mode, and ``a``, ``beta`` and ``k_bases`` must come from one call of
    :func:`gdu.layer._inners_and_gate`, with the basis Gram exactly when
    :func:`_reads_basis_gram`; nothing here checks either. ``a`` holds the
    inner products ``<phi(x_i), mu_j>`` that produced ``beta`` and is read
    only by OLS; ``k_bases`` is the basis Gram, read by OLS and ORTH and
    None when neither is on. The training step takes both
    from the call that made the gate's statistics, so one Gaussian Gram
    serves the gate and every term. The sum runs left to right, ``obj + w1
    t1 + w2 t2``. Returns ``(total, back)``; ``obj``'s gradient is the
    total's. ``back(g, g_beta)`` hands ``w g`` to each term and returns
    ``(g_a, g_beta, g_k)``: the terms' gradients of a and of k_bases (None
    where no term reads them), and ``g_beta`` plus theirs in term order.
    """
    ols = _ols(a, k_bases, beta) if cfg.lambda_ols > 0.0 else None
    orth = _orth(k_bases) if cfg.lambda_orth > 0.0 else None
    l1 = _l1(beta) if cfg.lambda_l1 > 0.0 else None
    total = obj
    for weight, term in ((cfg.lambda_ols, ols), (cfg.lambda_orth, orth), (cfg.lambda_l1, l1)):
        if term is not None:
            total = total + weight * term[0]

    def back(g, g_beta):
        g_a = g_k = None
        if ols is not None:
            g_a, g_k, g_ols = ols[1](g * cfg.lambda_ols)
            g_beta = g_beta + g_ols
        if orth is not None:
            g_orth = orth[1](g * cfg.lambda_orth)
            g_k = g_orth if g_k is None else g_k + g_orth
        if l1 is not None:
            g_beta = g_beta + l1[1](g * cfg.lambda_l1)
        return g_a, g_beta, g_k

    return total, back
