"""Gaussian kernel evaluation, Gram matrices, and bandwidth selection.

The kernel is fixed to the Gaussian ``k(x, y) = exp(-||x - y||^2 / (2 sigma^2))``,
matching the squared-bandwidth convention of the median heuristic
``sigma^2 = median{||x_i - x_j||^2}``.

Empirical kernel mean embeddings reduce to block means of a Gram matrix
(Muandet et al., arXiv:1605.09522): ``<mu_p, mu_q>`` is the mean of the
(p, q) block. :func:`gram` is the Gaussian Gram of two arrays of rows.
:func:`_kernel_statistics` is the one block-mean reducer: it gives a
training step the inner products ``<phi(x_i), mu_j>`` of a batch against
the (M, N, e) bases, the squared norms ``||mu_j||^2`` and, when its
regularizers read it, the basis Gram, whose reduction (:func:`_block_means`)
:func:`gdu.layer.basis_gram_matrix` shares, as the kernel's one autodiff
tape node with one closed-form backward; a tape tensor passed to any other
function here raises a TypeError. One function, :func:`_check_rows`,
checks the rows that meet a distance or a kernel: in
:func:`median_heuristic`, :class:`gdu.layer.GduLayer` and :mod:`gdu.heuristics`.

Every Gram is built with one matmul of augmented rows: with
``c = 1 / (2 sigma^2)``,

    [x, 1, -c ||x||^2] . [2c y, -c ||y||^2, 1] = -c ||x - y||^2,

the kernel's exponent, which is then clamped at 0 and exponentiated in
place (:func:`_gaussian_gram`). Floating-point cancellation can leave the
exponent slightly above 0 where two rows nearly coincide; the clamp keeps
every kernel value in [0, 1]. The products ``x_k (2c y_k)`` round
differently from ``y_k (2c x_k)``, so ``gram(X, X)`` is symmetric only up
to rounding (~1e-16). :func:`squared_distances` keeps the explicit
``||x||^2 + ||y||^2 - 2 x.y`` form for the distances of
:mod:`gdu.heuristics` and :func:`median_heuristic`, which need distances,
not kernel values (see ``heuristics._distances_to``).
:func:`median_heuristic` takes its pairs from row blocks of products
(:func:`_upper_squared_distances`) and makes no (n, n) array.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

__all__ = [
    "KernelConfig",
    "DimensionMismatchError",
    "DegenerateDataError",
    "gram",
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
    """Gaussian kernel bandwidth ``sigma > 0``.

    The kernel scales by ``c = 1 / (2 sigma^2)`` and its gradients by
    ``1 / sigma^2``, so sigma^2 and its reciprocal must be finite positive
    floats too: below about 7.5e-155, sigma^2 underflows to 0 or its
    reciprocal overflows, and above about 1.3e154, sigma^2 overflows.
    """

    sigma: float

    def __post_init__(self):
        _check_float("sigma", self.sigma)
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be a positive finite real, got {self.sigma}")
        square = float(self.sigma) * float(self.sigma)
        if not (0.0 < square < math.inf and 1.0 / square < math.inf):
            raise ValueError(
                f"sigma={self.sigma} puts sigma^2 or 1/sigma^2 outside the finite positive floats"
            )


def _check_int(name: str, value):
    """Raise unless ``value`` is a Python or numpy integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value}")


def _check_float(name: str, value):
    """Raise unless ``value`` is a real number, naming ``name``.

    A bool is refused too: every float check would read it as 0.0 or 1.0.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a real number, got the bool {value}")
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


# A quarter of the largest float: rows whose squared norms stay below it
# keep every squared distance ``xx + yy - 2 x.y`` between rows, or between
# rows and means of rows, finite.
_MAX_SQ_NORM = np.finfo(np.float64).max / 4.0


def _check_rows(X, who: str):
    """``(X, xx)``: X as a float64 (n, e) matrix and its rows' squared norms.

    Raises a ValueError naming ``who`` for a non-matrix, for non-finite
    rows, and for rows whose squared norms reach ``_MAX_SQ_NORM``.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"{who} expects an (n, e) matrix, got shape {X.shape}")
    # An overflow to inf is what the check looks for, not a warning.
    with np.errstate(over="ignore"):
        xx = np.sum(X * X, axis=-1)
        largest = np.max(xx, initial=0.0)
        if np.isfinite(4.0 * largest):
            return X, xx
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{who} needs finite rows")
    raise ValueError(
        f"{who} needs rows with squared norms below {_MAX_SQ_NORM:.4g}, got {largest:.4g}"
    )


def _check_seed(name: str, value):
    """Raise unless ``value`` is an integer (see :func:`_check_int`) and nonnegative.

    Names the argument where ``np.random.default_rng`` would fail without it.
    """
    _check_int(name, value)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


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
    batch as in :func:`squared_distances`. Arrays only. Where ``||x||^2``,
    ``c ||x||^2``, ``c ||y||^2`` or ``2c y`` overflows on finite rows, a
    ValueError names sigma, under any warnings filter. Non-finite rows raise
    no overflow, so they pass through.
    """
    c = 0.5 / sigma**2
    try:
        with np.errstate(over="raise"):
            xa = _augmented(X, 1.0, -c * np.sum(X * X, axis=-1))
            ya = _augmented(2.0 * c * Y, -c * np.sum(Y * Y, axis=-1), 1.0)
    except FloatingPointError:
        with np.errstate(over="ignore"):
            largest = max(np.max(np.sum(A * A, axis=-1), initial=0.0) for A in (X, Y))
        raise ValueError(
            f"the Gaussian kernel's exponent overflows at sigma={sigma} on rows with "
            f"squared norms up to {largest:.4g}"
        ) from None
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


def _array_rows(X):
    """The rows of X as :func:`_rows` reads them, as one matrix; a tape tensor raises TypeError."""
    if ad.is_tensor(X):
        raise TypeError(
            "the kernel's Gram functions take arrays, not tape tensors; a step's "
            "kernel statistics and their gradient come from kernel._kernel_statistics"
        )
    return _rows(X).reshape(-1, np.shape(X)[-1])


def _row_gradient(WA, rows):
    """The closed form ``W A - diag(W 1) rows`` from one matmul ``WA = W [A | 1]``."""
    return WA[..., :-1] - WA[..., -1:] * rows


def gram(X, Y, cfg: KernelConfig):
    """Kernel matrix ``G[i, j] = k(X_i, Y_j)`` of two arrays of rows.

    A stack such as (M, N, e) bases is read row by row. Arrays only: a
    step's kernel statistics and their gradient come from the one tape node
    :func:`_kernel_statistics`.
    """
    Xv, Yv = _array_rows(X), _array_rows(Y)
    _check_feature_dims("X", Xv.shape[-1], "Y", Yv.shape[-1])
    return _gaussian_gram(Xv, Yv, cfg.sigma)


def _block_means(G, n: int):
    """``K[p, q] = <mu_p, mu_q>``, the mean of the (p, q) n x n block of G (m n, m n).

    Bit for bit ``mean(mean(G.reshape(m, n, m, n), 3), 1)``: each run of n
    columns is summed and divided by n, then each run of n rows.
    """
    m = G.shape[0] // n
    K = G.reshape(m, n, m, n).sum(axis=3) / n
    return K.sum(axis=1) / n


def _kernel_statistics(X, V, cfg: KernelConfig, n: int, gram: bool):
    """The kernel statistics of a (b, e) batch X against M runs of ``n`` rows of V.

    V is a stack such as (M, N, e) bases, read as M*N rows; its gradient
    lands in its own shape. Returns ``(a, norms, K)``: ``a[i, j] =
    <phi(x_i), mu_j>`` (b, M), ``norms[j] = ||mu_j||^2`` (M,) and, with
    ``gram``, the basis Gram ``K[j, l] = <mu_j, mu_l>`` (M, M), else None.
    Without ``gram`` it evaluates the Gram of X against V and, batched, only
    V's M diagonal (n, n) blocks; with it, one Gram of the stacked rows
    ``R = [X; V]`` against V. a sums each run of n columns and divides by
    n, K is :func:`_block_means` of V's rows of that Gram, and each norm
    sums its block in row order, so the routes differ only where their
    matmuls round an entry of G differently.

    Arrays in give arrays out. A tensor among X and V gives one tape node
    whose outputs are the parts of :meth:`gdu.autodiff.Tensor.split`. Its
    backward expands the output gradients over their blocks, times G, to
    weights W, and gives a set of rows the closed form ``W A - diag(W 1)
    rows`` of ``dk(x, y)/dx = k(x, y) (y - x) / sigma^2`` from one matmul
    ``W [A | 1]`` (:func:`_row_gradient`). Where the exponent clamp fires,
    ``y - x`` is already ~0, so no clamp mask is needed. Without ``gram``,
    ``W_x = G_x * E(g_a) / (n sigma^2)`` gives X ``W_x [V | 1]`` and V
    ``W_x^T [X | 1]`` plus, per diagonal block, ``S_p [V_p | 1]`` with
    ``S_p = 2 g_p G_p / (n^2 sigma^2)``. With ``gram`` the norms' gradient
    folds into the diagonal of K's, which is symmetrized, as V sits on both
    sides; V gets ``W^T [R | 1]`` and X ``W_x [V | 1]``. There W overwrites
    G, so the backward runs once, and a second raises RuntimeError.
    """
    Xv, Vs = _rows(X), _rows(V)
    e = Vs.shape[-1]
    _check_feature_dims("X", Xv.shape[-1], "V", e)
    Vv = Vs.reshape(-1, e)
    rows = Vv.shape[0]
    if Xv.ndim != 2 or n < 1 or rows % n:
        raise ValueError(f"expected (b, e) rows and runs of {n} rows that tile {rows} rows")
    b, m = Xv.shape[0], rows // n
    on_diagonal = np.arange(m)
    K = None
    if gram:
        R = np.concatenate((Xv, Vv))
        G = _gaussian_gram(R, Vv, cfg.sigma)
        G_x, G_v = G[:b].reshape(b, m, n), G[b:].reshape(m, n, m, n)
        a = G_x.sum(axis=2) / n
        diagonal = G_v[on_diagonal, :, on_diagonal]
        K = _block_means(G[b:], n)
    else:
        G = _gaussian_gram(Xv, Vv, cfg.sigma)
        G_x, Vb = G.reshape(b, m, n), Vv.reshape(m, n, e)
        a = G_x.sum(axis=2) / n
        diagonal = _gaussian_gram(Vb, Vb, cfg.sigma)
    norms = diagonal.reshape(m, n * n).sum(axis=1) / float(n * n)
    stats = (a, norms, K) if gram else (a, norms)
    x_t, v_t = ad.is_tensor(X), ad.is_tensor(V)
    if not x_t and not v_t:
        return a, norms, K

    def bw(g):
        nonlocal G
        ga, gn = g[: b * m].reshape(b, m), g[b * m : b * m + m]
        if not gram:
            W = (G_x * (ga * (1.0 / (n * cfg.sigma**2)))[:, :, None]).reshape(b, rows)
            if x_t:
                X._accumulate(_row_gradient(W @ _augmented(Vv, 1.0), Xv))
            if v_t:
                S = diagonal * (gn * (2.0 / (n * n * cfg.sigma**2)))[:, None, None]
                dV = _row_gradient(W.T @ _augmented(Xv, 1.0), Vv).reshape(m, n, e)
                dV += _row_gradient(S @ _augmented(Vb, 1.0), Vb)
                V._accumulate(dV.reshape(Vs.shape))
            return
        if G is None:
            raise RuntimeError("a kernel statistics node is backpropagated only once")
        scale = 1.0 / cfg.sigma**2
        s = g[b * m + m :].reshape(m, m).copy()
        s[on_diagonal, on_diagonal] += gn
        s = (s + s.T) * (scale / (n * n))
        # W overwrites G: the backward is G's last reader.
        np.multiply(G_x, (ga * (scale / n))[:, :, None], out=G_x)
        np.multiply(G_v, s[:, None, :, None], out=G_v)
        W, G = G, None
        RA = _augmented(R, 1.0)
        if v_t:
            # (RA^T W)^T, as numpy's BLAS runs it faster than W^T RA.
            V._accumulate(_row_gradient((RA.T @ W).T, Vv).reshape(Vs.shape))
        if x_t:
            X._accumulate(_row_gradient(W[:b] @ RA[b:], Xv))

    packed = np.concatenate([part.reshape(-1) for part in stats])
    node = ad.Tensor(packed, tuple(t for t in (X, V) if ad.is_tensor(t)), bw)
    parts = node.split(*(part.shape for part in stats))
    return tuple(parts) if gram else (*parts, None)


# Row-block height of :func:`_upper_squared_distances`. Its temporaries
# are one reused (_PAIR_BLOCK_ROWS, n) buffer for a block's doubled
# products, one (_PAIR_BLOCK_ROWS, _PAIR_BLOCK_ROWS) square and that
# square's upper triangle. At 2000 x 64, 64 rows were fastest (timed
# against 32, 128 and 256); at 2000 x 16, 128 rows were ~10% faster but
# double the buffer to 2 MB.
_PAIR_BLOCK_ROWS = 64
# The pairs j > i of a square block; its (h, h) corner serves a shorter last block.
_UPPER_PAIRS = np.triu(np.ones((_PAIR_BLOCK_ROWS, _PAIR_BLOCK_ROWS), dtype=bool), 1)


def _upper_squared_distances(X, xx):
    """The n (n - 1) / 2 squared distances of the pairs ``i < j`` of X's rows.

    Rows are taken in blocks of ``_PAIR_BLOCK_ROWS``. A block ``lo:hi``
    takes its pairs from one product ``X[lo:hi] @ X[lo:].T``, with the
    arithmetic of ``squared_distances(X[lo:hi], X[lo:])``: each pair is
    ``max((xx_i + xx_j) - 2 G_ij, 0)`` over the squared norms ``xx`` of
    :func:`_check_rows`. The doubled product goes into one reused
    (_PAIR_BLOCK_ROWS, n) buffer; the rectangle of the block's rows
    against all later rows is written straight into the pair vector, and
    the block's own upper triangle is picked out of a small square. So no
    (n, n) array is made. The BLAS may round a block's product differently
    from the one (n, n) product ``X @ X.T`` in the last n mod 8 columns,
    so a pair there may differ from ``squared_distances(X, X)`` in the last
    bit; no pair was seen to differ where n is a multiple of 8. The pairs
    are not in row-major order, which the median, an order statistic,
    does not see.
    """
    n = X.shape[0]
    pairs = np.empty(n * (n - 1) // 2)
    buffer = np.empty(min(_PAIR_BLOCK_ROWS, n) * n)
    start = 0
    for lo in range(0, n, _PAIR_BLOCK_ROWS):
        hi = min(lo + _PAIR_BLOCK_ROWS, n)
        h = hi - lo
        twice_g = np.matmul(X[lo:hi], X[lo:].T, out=buffer[: h * (n - lo)].reshape(h, n - lo))
        twice_g *= 2.0
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
    the two central values. The pairs are the row-block products of
    :func:`_upper_squared_distances`, partitioned in place in their own
    n (n - 1) / 2 vector, the one full-size array; no (n, n) Gram is made.
    Where n mod 8 != 0, sigma may differ in the last bit from the full
    Gram's ``sqrt(np.median(squared_distances(X, X)[np.triu_indices(n,
    1)]))``; at the 1200 and 2000 rows the benchmarks use, a test pins
    the two equal. A zero median, from more than half the pairs at distance
    zero and not only from all rows identical, raises
    :class:`DegenerateDataError`.
    """
    X, xx = _check_rows(X, "median_heuristic")
    n = X.shape[0]
    if n < 2:
        raise ValueError(f"median_heuristic needs at least two rows, got {n}")
    pairs = _upper_squared_distances(X, xx)
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
