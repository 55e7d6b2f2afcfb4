"""Gaussian kernel evaluation, Gram matrices, and bandwidth selection.

The kernel is fixed to the Gaussian ``k(x, y) = exp(-||x - y||^2 / (2 sigma^2))``,
matching the squared-bandwidth convention of the median heuristic
``sigma^2 = median{||x_i - x_j||^2}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

__all__ = [
    "KernelConfig",
    "DimensionMismatchError",
    "DegenerateDataError",
    "gaussian_kernel",
    "gram",
    "median_heuristic",
]


class DimensionMismatchError(ValueError):
    """Raised when two inputs disagree on their feature dimension."""


class DegenerateDataError(ValueError):
    """Raised when data admits no usable bandwidth (all rows identical)."""


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian kernel bandwidth ``sigma > 0``."""

    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be a positive finite real, got {self.sigma}")


def _check_feature_dims(name_a, dim_a, name_b, dim_b):
    if dim_a != dim_b:
        raise DimensionMismatchError(
            f"{name_a} has dimension {dim_a} but {name_b} has dimension {dim_b}"
        )


def gaussian_kernel(x, y, cfg: KernelConfig) -> float:
    """Evaluate ``k(x, y)`` for two vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("gaussian_kernel expects 1-D vectors")
    _check_feature_dims("x", x.shape[0], "y", y.shape[0])
    d2 = float(np.sum((x - y) ** 2))
    return math.exp(-d2 / (2.0 * cfg.sigma**2))


def squared_distances(X, Y):
    """Pairwise squared Euclidean distances between rows of X and rows of Y.

    Computed as ``||x||^2 + ||y||^2 - 2 x.y`` and clamped at zero, because
    floating-point cancellation can leave tiny negatives where rows nearly
    coincide. Arrays only.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    xx = np.sum(X * X, axis=1, keepdims=True)
    yy = np.sum(Y * Y, axis=1, keepdims=True)
    return np.maximum(xx + yy.T - 2.0 * (X @ Y.T), 0.0)


def gram(X, Y, cfg: KernelConfig):
    """Kernel matrix ``G[i, j] = k(X_i, Y_j)``.

    Arrays in give an array out. If either input is a tensor, the result is
    one tape node whose backward is closed-form: with ``W = g * G / sigma^2``
    for the output gradient ``g``,

        dX = W Y - diag(W 1) X,    dY = W^T X - diag(W^T 1) Y,

    since ``dk(x, y)/dx = k(x, y) (y - x) / sigma^2``. Where the distance
    clamp fires the two rows coincide up to rounding, so ``y - x`` is
    already ~0 there and no clamp mask is needed. Only tensor inputs get a
    gradient.
    """
    Xv, Yv = ad.value_of(X), ad.value_of(Y)
    if Xv.ndim != 2 or Yv.ndim != 2:
        raise ValueError("gram expects 2-D row matrices")
    _check_feature_dims("X", Xv.shape[1], "Y", Yv.shape[1])
    G = np.exp(squared_distances(Xv, Yv) / (-2.0 * cfg.sigma**2))
    x_t, y_t = ad.is_tensor(X), ad.is_tensor(Y)
    if not x_t and not y_t:
        return G
    inv_s2 = 1.0 / cfg.sigma**2
    same = X is Y

    def bw(g):
        W = g * G
        W *= inv_s2
        if same:  # both terms land on X: dX = S X - diag(S 1) X, S = W + W^T
            W = W + W.T
        if x_t:
            dX = W @ Yv
            dX -= W.sum(axis=1, keepdims=True) * Xv
            X._accumulate(dX)
        if y_t and not same:
            dY = W.T @ Xv
            dY -= W.sum(axis=0)[:, None] * Yv
            Y._accumulate(dY)

    return ad.Tensor(G, tuple(t for t in (X, Y) if ad.is_tensor(t)), bw)


def median_heuristic(X) -> float:
    """Bandwidth from the median of squared pairwise distances.

    Uses distinct unordered pairs ``i < j`` and returns
    ``sigma = sqrt(median)``. Even-length medians are the arithmetic mean of
    the two central values.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("median_heuristic expects an (n, e) matrix")
    n = X.shape[0]
    if n < 2:
        raise ValueError(f"median_heuristic needs at least two rows, got {n}")
    d2 = squared_distances(X, X)
    pairs = d2[np.triu_indices(n, k=1)]
    med = float(np.median(pairs))
    if med <= 0.0:
        raise DegenerateDataError("degenerate data, zero bandwidth")
    return math.sqrt(med)
