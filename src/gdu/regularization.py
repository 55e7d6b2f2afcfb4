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
weight and the mode. The objective adds them through ``_add_regularizers``,
which reads the gate's inner products and, when OLS or ORTH is on, the
basis Gram from the one kernel node that also gives the gate its
statistics, so no kernel block is evaluated twice. The training trace
still reports all three raw terms for every mode with bases.

On arrays each term is a float. On tensors each is one tape node with a
closed-form backward, and its forward runs the same numpy operations as
on arrays. Their sums over a row of M gates run column by column,
bit-identical to numpy's (``gdu.layer._row_sum``). The weighted sum of the
objective's terms is one more node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
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


def omega_ols(a, k_bases, beta):
    """Mean squared RKHS reconstruction error over the batch.

    Expands ``||phi(x_i) - sum_j beta_ij mu_j||^2`` by the kernel trick into
    ``1 - 2 mean_i <beta_i, a_i> + mean_i beta_i K beta_i^T`` over the b rows,
    with ``k(x, x) = 1``, the gate's inner products ``a[i, j] = <phi(x_i),
    mu_j>`` and the basis Gram ``K[j, l] = <mu_j, mu_l>``. ``a`` and ``beta``
    must both be (b, M) and ``k_bases`` (M, M); a mismatch raises a
    ValueError that names the shapes. The value is clamped at 0 against
    roundoff; below ``-1e-10`` it raises. Arrays in give a float; a tensor
    among ``a``, ``k_bases`` and ``beta`` gives one node whose backward is
    ``-2 beta / b`` for a, ``(beta (K + K^T) - 2 a) / b`` for beta and
    ``beta^T beta / b`` for K, and zero where the clamp fires. The per-row
    sums run column by column, bit-identical to numpy's. An empty batch
    raises a ValueError that names it.
    """
    av, kv, bv = (ad.value_of(t) for t in (a, k_bases, beta))
    if bv.ndim != 2 or av.shape != bv.shape:
        raise ValueError(f"beta shape {bv.shape} does not match the inner products' {av.shape}")
    m = bv.shape[1]
    if kv.shape != (m, m):
        raise ValueError(f"basis Gram shape {kv.shape} does not match {m} bases")
    b = float(_batch_rows("omega_ols", bv))
    bk = bv @ kv
    cross = np.sum(_row_sum(bv * av)) / b
    quad = np.sum(_row_sum(bk * bv)) / b
    val = float(1.0 - 2.0 * cross + quad)
    if val < -_OLS_CLAMP_TOL:
        raise ValueError(f"reconstruction error evaluated to {val}; expected >= 0")
    clamped = val < 0.0
    if clamped:
        val = 0.0
    parents = tuple(t for t in (a, k_bases, beta) if ad.is_tensor(t))
    if not parents:
        return val

    def bw(g):
        s = 0.0 if clamped else g / b
        if ad.is_tensor(a):
            a._accumulate(bv * (-2.0 * s))
        if ad.is_tensor(k_bases):
            k_bases._accumulate(bv.T @ (bv * s))
        if ad.is_tensor(beta):
            beta._accumulate((bk + bv @ kv.T - 2.0 * av) * s)

    return ad.Tensor(val, parents, bw)


def omega_orth(K):
    """SRIP, the spectral norm ``||K - I||_2`` of a basis Gram matrix K.

    Arrays in give a float; a tensor gives one node whose backward is, for
    the output gradient g, g times ``sign(lambda*) u u^T`` for the dominant
    eigenpair of ``K - I``, exact when the dominant eigenvalue is simple.
    A K that is not square, or is (0, 0), raises a ValueError that names it.
    """
    kv = ad.value_of(K)
    if kv.ndim != 2 or kv.shape[0] != kv.shape[1]:
        raise ValueError(f"expected a square Gram matrix, got shape {kv.shape}")
    if kv.shape[0] == 0:
        raise ValueError("omega_orth needs at least one basis, got a (0, 0) Gram matrix")
    eigvals, eigvecs = np.linalg.eigh(kv - np.eye(kv.shape[0]))
    i = int(np.argmax(np.abs(eigvals)))
    u = eigvecs[:, i]
    val, dk = abs(eigvals[i]), (1.0 if eigvals[i] >= 0 else -1.0) * np.outer(u, u)
    if not ad.is_tensor(K):
        return float(val)
    return ad.Tensor(val, (K,), lambda g: K._accumulate(g * dk))


def omega_l1(beta):
    """Batch-mean L1 norm of the gating coefficients.

    Arrays in give a float; a tensor gives one node with backward
    ``sign(beta) / b``. The per-row sums run column by column, bit-identical
    to numpy's. A beta that is not 2-D raises a ValueError that names its
    shape, and an empty batch one that names it.
    """
    bv = ad.value_of(beta)
    if bv.ndim != 2:
        raise ValueError(f"expected (b, M) gates, got beta of shape {bv.shape}")
    b = float(_batch_rows("omega_l1", bv))
    val = np.sum(_row_sum(np.abs(bv))) / b
    if not ad.is_tensor(beta):
        return float(val)
    return ad.Tensor(val, (beta,), lambda g: beta._accumulate(np.sign(bv) * (g / b)))


def _check_mode_weights(mode: str, cfg: RegConfig):
    """Raise a ValueError naming every nonzero weight that ``mode`` does not take."""
    allowed = _MODE_WEIGHTS[mode]
    bad = [f"{n}={getattr(cfg, n)}" for n in _WEIGHTS if n not in allowed and getattr(cfg, n)]
    if bad:
        takes = " and ".join(allowed) if allowed else "no regularizer"
        raise ValueError(f"a {mode} layer takes {takes}; got {', '.join(bad)}")


def _reads_basis_gram(mode: str, cfg: RegConfig) -> bool:
    """Whether the weighted terms read the basis Gram: OLS or ORTH is on.

    A nonzero weight the mode does not take raises a ValueError that names it.
    """
    _check_mode_weights(mode, cfg)
    return cfg.lambda_ols > 0.0 or cfg.lambda_orth > 0.0


def _add_regularizers(obj, a, beta, k_bases, cfg: RegConfig):
    """``obj`` plus the weighted regularization terms, as one node.

    ``cfg`` must have passed :func:`_reads_basis_gram` for the layer's mode.
    ``a`` holds the inner products ``<phi(x_i), mu_j>`` that produced
    ``beta`` and is read only by OLS; ``k_bases`` is the basis Gram, read by
    OLS and ORTH and None when neither is on. The training step takes both
    from the node that made the gate's statistics, so one Gaussian Gram
    serves the gate and every term. The sum runs left to right,
    ``obj + w1 t1 + w2 t2``, and its backward hands ``g`` to ``obj`` and
    ``w g`` to each term; with no term present ``obj`` comes back as it is,
    and with no tensor among the parts the sum is a float.
    """
    terms = []
    if cfg.lambda_ols > 0.0:
        terms.append((cfg.lambda_ols, omega_ols(a, k_bases, beta)))
    if cfg.lambda_orth > 0.0:
        terms.append((cfg.lambda_orth, omega_orth(k_bases)))
    if cfg.lambda_l1 > 0.0:
        terms.append((cfg.lambda_l1, omega_l1(beta)))
    if not terms:
        return obj
    total = ad.value_of(obj)
    for weight, term in terms:
        total = total + weight * ad.value_of(term)
    parents = tuple(t for t in (obj, *(term for _, term in terms)) if ad.is_tensor(t))
    if not parents:
        return float(total)

    def bw(g):
        if ad.is_tensor(obj):
            obj._accumulate(g)
        for weight, term in terms:
            if ad.is_tensor(term):
                term._accumulate(g * weight)

    return ad.Tensor(total, parents, bw)
