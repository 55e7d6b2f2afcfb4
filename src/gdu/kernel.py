"""Gaussian kernel evaluation, Gram matrices, and bandwidth selection.

The kernel is fixed to the Gaussian ``k(x, y) = exp(-||x - y||^2 / (2 sigma^2))``,
matching the squared-bandwidth convention of the median heuristic
``sigma^2 = median{||x_i - x_j||^2}``.

Empirical kernel mean embeddings reduce to block means of a Gram matrix:
``<mu_p, mu_q>`` is the mean of the (p, q) block. :func:`gram_block_means`
gives all of them at once and :func:`gram_diagonal_block_means` only the
squared norms ``||mu_p||^2``; each is one autodiff tape node with a
closed-form backward, and :func:`gram` is the one-row-block case. Both
take the rows of a point set on its last axis, so an (M, N, e) stack of
bases is read as it is, as M*N rows, and its gradient lands in the
stack's own shape.

Both build their Gram blocks with one matmul of augmented rows: with
``c = 1 / (2 sigma^2)``,

    [x, 1, -c ||x||^2] . [2c y, -c ||y||^2, 1] = -c ||x - y||^2,

the kernel's exponent, which is then clamped at 0 and exponentiated in
place (:func:`_gaussian_gram`). Floating-point cancellation can leave the
exponent slightly above 0 where two rows nearly coincide; the clamp keeps
every kernel value in [0, 1]. The products ``x_k (2c y_k)`` round
differently from ``y_k (2c x_k)``, so ``gram(X, X)`` is symmetric only up
to rounding (~1e-16). :func:`squared_distances` keeps the explicit
``||x||^2 + ||y||^2 - 2 x.y`` form for :func:`gdu.heuristics.davies_bouldin`,
which needs distances, not kernel values. Two callers run the same
operations in the same order without building the full (n, m) matrix of
temporaries, so their distances equal its entries bit for bit:
:func:`median_heuristic` evaluates only the pairs ``i < j`` of
``squared_distances(X, X)``, in row blocks, and keeps them in the leading
slots of the (n, n) buffer of ``X @ X.T`` itself, so the Gram is the only
full-size array it makes; :func:`gdu.heuristics.kmeans` writes
``squared_distances(X, C).T`` into reused, transposed buffers.
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
    "gram",
    "gram_block_means",
    "gram_diagonal_block_means",
    "median_heuristic",
]


class DimensionMismatchError(ValueError):
    """Raised when two inputs disagree on their feature dimension."""


class DegenerateDataError(ValueError):
    """Raised when the median squared distance over pairs of rows is zero, so
    no bandwidth fits: more than half the pairs at distance zero suffice, as
    with 10 zero rows and 3 rows of ones; not all rows need be identical."""


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


def squared_distances(X, Y):
    """Pairwise squared Euclidean distances between rows of X and rows of Y.

    Computed as ``||x||^2 + ||y||^2 - 2 x.y`` and clamped at zero, because
    floating-point cancellation can leave tiny negatives where rows nearly
    coincide. Leading axes batch: (..., n, e) and (..., m, e) give
    (..., n, m). Arrays only.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    xx = np.sum(X * X, axis=-1)[..., :, None]
    yy = np.sum(Y * Y, axis=-1)[..., None, :]
    return np.maximum(xx + yy - 2.0 * (X @ np.swapaxes(Y, -1, -2)), 0.0)


def _augmented(A, *columns):
    """A with ``columns`` (scalars, or one value per row) appended on its last axis.

    ``W @ _augmented(A, 1.0)`` gives ``W @ A`` and the row sums of W from
    one matmul.
    """
    e = A.shape[-1]
    out = np.empty(A.shape[:-1] + (e + len(columns),))
    out[..., :e] = A
    for k, column in enumerate(columns, start=e):
        out[..., k] = column
    return out


def _gaussian_exponent(X, Y, sigma):
    """``-||x - y||^2 / (2 sigma^2)`` for rows of X and Y, before the clamp.

    One matmul of rows augmented to ``[x, 1, -c ||x||^2]`` and
    ``[2c y, -c ||y||^2, 1]`` with ``c = 1 / (2 sigma^2)``. Leading axes
    batch as in :func:`squared_distances`. Arrays only.
    """
    c = 0.5 / sigma**2
    xa = _augmented(X, 1.0, -c * np.sum(X * X, axis=-1))
    ya = _augmented(2.0 * c * Y, -c * np.sum(Y * Y, axis=-1), 1.0)
    return xa @ np.swapaxes(ya, -1, -2)


def _gaussian_gram(X, Y, sigma):
    """Gaussian Gram ``exp(min(exponent, 0))`` of :func:`_gaussian_exponent`.

    The clamp and the exp run in place on the matmul's output, so the
    (..., n, m) result is the only full-size array made.
    """
    G = _gaussian_exponent(X, Y, sigma)
    np.minimum(G, 0.0, out=G)
    return np.exp(G, out=G)


def _rows(X):
    """The value of X, which must be a row matrix or a stack of them."""
    Xv = ad.value_of(X)
    if Xv.ndim not in (2, 3):
        raise ValueError(f"expected (n, e) rows or an (M, N, e) stack, got shape {Xv.shape}")
    return Xv


def gram(X, Y, cfg: KernelConfig):
    """Kernel matrix ``G[i, j] = k(X_i, Y_j)``.

    Arrays in give an array out. If either input is a tensor, the result is
    one tape node whose backward is closed-form: with ``W = g * G / sigma^2``
    for the output gradient ``g``,

        dX = W Y - diag(W 1) X,    dY = W^T X - diag(W^T 1) Y,

    since ``dk(x, y)/dx = k(x, y) (y - x) / sigma^2``. Where the exponent
    clamp fires the two rows coincide up to rounding, so ``y - x`` is
    already ~0 there and no clamp mask is needed. Only tensor inputs get a
    gradient. This is :func:`gram_block_means` with blocks of one row, whose
    means are G itself, so no reduction runs.
    """
    return gram_block_means(X, Y, cfg, 1, 1)


def gram_block_means(X, Y, cfg: KernelConfig, n_x: int, n_y: int):
    """Block means of ``gram(X, Y)``, shape (rows(X) / n_x, rows(Y) / n_y).

    X and Y are row matrices or stacks of them, such as (M, N, e) bases,
    whose rows are read in order. ``K[p, q]`` is the mean of the (p, q)
    block, whose rows are the p-th run of ``n_x`` rows of X and whose
    columns are the q-th run of ``n_y`` rows of Y. When the runs are the point sets of empirical kernel mean
    embeddings, ``K[p, q] = <mu_p, mu_q>``; ``n_x = 1`` gives the inner
    products ``<phi(x_i), mu_q>``.

    Arrays in give an array out; otherwise the result is one tape node. The
    forward reduces in the order of ``mean(mean(reshape(gram), 3), 1)``, so
    it is bit-identical to that chain over the same G. The backward expands
    the small gradient ``g``, scaled by ``1 / (n_x n_y sigma^2)``, over the
    blocks to ``W = G * E(g)`` and applies the closed form of :func:`gram`,
    with ``W Y`` and the row sums ``W 1`` from one matmul ``W [Y | 1]``.
    With one tensor on both sides G is symmetric up to rounding, and both
    terms land on X as ``dX = S X - diag(S 1) X`` with
    ``S = W + W^T = G * E(g + g^T)``.
    """
    Xs, Ys = _rows(X), _rows(Y)
    _check_feature_dims("X", Xs.shape[-1], "Y", Ys.shape[-1])
    Xv, Yv = Xs.reshape(-1, Xs.shape[-1]), Ys.reshape(-1, Ys.shape[-1])
    G = _gaussian_gram(Xv, Yv, cfg.sigma)
    rows_x, rows_y = G.shape
    if n_x < 1 or n_y < 1 or rows_x % n_x or rows_y % n_y:
        raise ValueError(
            f"blocks of {n_x} x {n_y} rows do not tile a {rows_x} x {rows_y} gram"
        )
    p, q = rows_x // n_x, rows_y // n_y
    blocks = G.reshape(p, n_x, q, n_y)
    x_t, y_t = ad.is_tensor(X), ad.is_tensor(Y)
    if n_x == n_y == 1:
        # Means of one value each, exactly G; the backward reads G, so a
        # tensor gets a copy that the caller may change.
        K = G.copy() if x_t or y_t else G
    else:
        # A side of one row has means of one value each: no reduction runs.
        K = blocks.sum(axis=3) / n_y if n_y > 1 else blocks[..., 0]
        K = K.sum(axis=1) / n_x if n_x > 1 else K[:, 0]
    if not x_t and not y_t:
        return K
    scale = 1.0 / (n_x * n_y * cfg.sigma**2)
    same = X is Y and n_x == n_y

    def bw(g):
        s = g * scale
        if same:
            s = s + s.T
        W = (blocks * s[:, None, :, None]).reshape(rows_x, rows_y)
        if x_t:
            WY = W @ _augmented(Yv, 1.0)
            X._accumulate((WY[:, :-1] - WY[:, -1:] * Xv).reshape(Xs.shape))
        if y_t and not same:
            WX = W.T @ _augmented(Xv, 1.0)
            Y._accumulate((WX[:, :-1] - WX[:, -1:] * Yv).reshape(Ys.shape))

    return ad.Tensor(K, tuple(t for t in (X, Y) if ad.is_tensor(t)), bw)


def gram_diagonal_block_means(X, cfg: KernelConfig, n: int):
    """Means of the diagonal blocks of ``gram(X, X)``, shape (rows(X) / n,).

    ``K[p]`` is the mean of ``gram(X_p, X_p)`` for the p-th run ``X_p`` of
    ``n`` rows of X, a row matrix or a stack of them such as (M, N, e)
    bases, i.e. the squared norm ``||mu_p||^2`` of its kernel mean
    embedding. One batched matmul evaluates only the M diagonal (n, n)
    blocks, bit-identical to M separate ``mean(gram(X_p, X_p))`` calls.

    Arrays in give an array out; a tensor gives one tape node. Each block
    has one tensor on both sides, so its backward is
    ``dX_p = S_p X_p - diag(S_p 1) X_p`` with ``S_p = 2 g_p G_p / (n^2 sigma^2)``,
    both terms from one batched matmul ``S_p [X_p | 1]``.
    """
    Xs = _rows(X)
    rows, e = math.prod(Xs.shape[:-1]), Xs.shape[-1]
    if n < 1 or rows % n:
        raise ValueError(f"blocks of {n} rows do not tile {rows} rows")
    Xb = Xs.reshape(rows // n, n, e)
    G = _gaussian_gram(Xb, Xb, cfg.sigma)
    K = G.reshape(rows // n, n * n).sum(axis=1) / float(n * n)
    if not ad.is_tensor(X):
        return K
    scale = 2.0 / (n * n * cfg.sigma**2)

    def bw(g):
        S = G * (g * scale)[:, None, None]
        SX = S @ _augmented(Xb, 1.0)
        X._accumulate((SX[..., :-1] - SX[..., -1:] * Xb).reshape(Xs.shape))

    return ad.Tensor(K, (X,), bw)


# Row-block height of :func:`_upper_squared_distances`. Its temporaries
# are one (_PAIR_BLOCK_ROWS, n) buffer for a block's rows of the Gram,
# doubled, one (_PAIR_BLOCK_ROWS, _PAIR_BLOCK_ROWS) square and that
# square's upper triangle, and a block's pairs stay in cache between their
# passes; 64 rows were fastest at 2000 x 64 (timed against 32, 128 and 256).
_PAIR_BLOCK_ROWS = 64
# The pairs j > i of a square block; its (h, h) corner serves a shorter last block.
_UPPER_PAIRS = np.triu(np.ones((_PAIR_BLOCK_ROWS, _PAIR_BLOCK_ROWS), dtype=bool), 1)


def _upper_squared_distances(X):
    """The squared distances ``squared_distances(X, X)[i, j]`` for ``i < j``, bit for bit.

    Each is ``max((xx_i + xx_j) - 2 G_ij, 0)`` over ``G = X @ X.T`` (one
    symmetric matmul), as in :func:`squared_distances`. The result is a
    view of the first n (n - 1) / 2 slots of G's own C-contiguous buffer,
    so no second buffer of that size is made. Rows are taken in blocks:
    a block first copies its rows of G from the diagonal on, doubled, into
    one reused (_PAIR_BLOCK_ROWS, n) buffer. The rectangle of its rows
    against all later rows is then written at the running offset, and its
    own upper triangle is picked out of a small square. Writing never
    overtakes reading: the rows before ``hi`` hold
    ``hi n - hi (hi + 1) / 2 <= hi n`` pairs, so a block that ends at row
    ``hi`` writes only into rows of G that are already copied. The pairs
    are not in row-major order, which the median, an order statistic,
    does not see.
    """
    n = X.shape[0]
    xx = np.sum(X * X, axis=-1)
    G = X @ X.T
    pairs = G.reshape(-1)[: n * (n - 1) // 2]
    rows = np.empty((min(_PAIR_BLOCK_ROWS, n), n))
    start = 0
    for lo in range(0, n, _PAIR_BLOCK_ROWS):
        hi = min(lo + _PAIR_BLOCK_ROWS, n)
        h = hi - lo
        twice_g = np.multiply(G[lo:hi, lo:], 2.0, out=rows[:h, : n - lo])
        square = np.add(xx[lo:hi, None], xx[None, lo:hi])
        square -= twice_g[:, :h]
        upper = square[_UPPER_PAIRS[:h, :h]]
        block = pairs[start : start + upper.size + h * (n - hi)]
        block[: upper.size] = upper
        rect = block[upper.size :].reshape(h, n - hi)
        np.add(xx[lo:hi, None], xx[None, hi:], out=rect)
        rect -= twice_g[:, h:]
        np.maximum(block, 0.0, out=block)
        start += block.size
    return pairs


def median_heuristic(X) -> float:
    """Bandwidth from the median of squared pairwise distances.

    Uses distinct unordered pairs ``i < j`` and returns
    ``sigma = sqrt(median)``. Even-length medians are the arithmetic mean of
    the two central values. The pair values are those of
    :func:`squared_distances` bit for bit (see
    :func:`_upper_squared_distances`), so sigma equals
    ``sqrt(np.median(squared_distances(X, X)[np.triu_indices(n, 1)]))``.
    The pairs sit in the leading slots of the (n, n) Gram's buffer and are
    partitioned there in place, so the Gram is the one full-size array. A
    zero median, from more than half the pairs at distance zero and not only
    from all rows identical, raises :class:`DegenerateDataError`.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("median_heuristic expects an (n, e) matrix")
    n = X.shape[0]
    if n < 2:
        raise ValueError(f"median_heuristic needs at least two rows, got {n}")
    if not np.all(np.isfinite(X)):
        raise ValueError("median_heuristic needs finite rows")
    pairs = _upper_squared_distances(X)
    # np.median's result, from one in-place partition of the pair values.
    k = pairs.size // 2
    pairs.partition(k)
    if pairs.size % 2:
        med = float(pairs[k])
    else:
        med = float(np.mean([pairs[:k].max(), pairs[k]]))
    if med <= 0.0:
        raise DegenerateDataError("degenerate data, zero bandwidth")
    return math.sqrt(med)
