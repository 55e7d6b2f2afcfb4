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
:func:`gdu.layer.basis_gram_matrix` shares, and returns its closed-form
backward with them. Every function here takes arrays of rows. It lays its
Gram out basis-major, the
M*N basis vectors' rows against the batch's columns, in training, epoch
metrics and serving alike: a basis's N kernel values against the batch
are N contiguous rows of length b, so each inner product is a row-order
sum of whole rows, not one short reduction per (row, basis). One
function, :func:`_check_rows`, checks the rows that meet a distance or a
kernel: in :func:`median_heuristic`, :class:`gdu.layer.GduLayer` and
:mod:`gdu.heuristics`.

Every Gram is built with one matmul of augmented rows: with
``c = 1 / (2 sigma^2)``,

    [x, 1, -c ||x||^2] . [2c y, -c ||y||^2, 1] = -c ||x - y||^2,

the kernel's exponent, which is then clamped at 0 and exponentiated in
place (:func:`_gaussian_gram`). One helper, :func:`_augmented_forms`,
writes these left and right forms for every caller: :func:`gram`,
:func:`_kernel_statistics` and the oracles in ``tests/oracles.py``. Per
call it sums each row set's squared norms once, writes each of its forms
once under one overflow guard, and stacks several row sets into one form
without a copy of the rows. A left form's first e + 1 columns are ``[x
| 1]``, so a backward's products ``W [x | 1]`` read a column view of it.
Floating-point cancellation can leave the
exponent slightly above 0 where two rows nearly coincide; the clamp keeps
every kernel value in [0, 1]. The products ``x_k (2c y_k)`` round
differently from ``y_k (2c x_k)``, so ``gram(X, X)`` is symmetric only up
to rounding (~1e-16). The distances of :mod:`gdu.heuristics` and
:func:`median_heuristic`, which need distances, not kernel values, keep
the explicit ``||x||^2 + ||y||^2 - 2 x.y`` form of the
``squared_distances`` oracle in ``tests/oracles.py`` (see
``heuristics._distances_to``). :func:`median_heuristic` takes its pairs
from row blocks of products (:func:`_upper_squared_distances`) and makes
no (n, n) array.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

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
        sigma = _check_float("sigma", self.sigma)
        if not (math.isfinite(sigma) and sigma > 0):
            raise ValueError(f"sigma must be a positive finite real, got {sigma}")
        square = sigma * sigma
        if not (0.0 < square < math.inf and 1.0 / square < math.inf):
            raise ValueError(
                f"sigma={sigma} puts sigma^2 or 1/sigma^2 outside the finite positive floats"
            )
        object.__setattr__(self, "sigma", sigma)


def _check_int(name: str, value):
    """Raise unless ``value`` is a Python or numpy integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value}")


def _check_float(name: str, value) -> float:
    """``value`` as a Python float; raise unless it is a real number, naming ``name``.

    A bool is refused too: every float check would read it as 0.0 or 1.0.
    So is a real beyond the floats, such as ``10**400``. A config stores the
    float: a numpy float32 would turn the arithmetic it meets into float32
    (NEP 50), and numpy cannot take a ``Fraction`` to exp or Adam's steps.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a real number, got the bool {value}")
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a real number within the floats, got {value}") from None


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


def _augmented_forms(sigma, *row_sets):
    """``(left, right)``: the augmented rows of one call's Gram operands.

    Each of ``row_sets`` is a pair ``(A, forms)`` of (..., n, e) rows,
    sharing their leading axes, and the forms to write for them: ``"l"``,
    ``"r"`` or ``"lr"``. With ``c = 1 / (2 sigma^2)`` a row x's left form
    is ``[x, 1, -c ||x||^2]`` and its right form ``[2c x, -c ||x||^2, 1]``,
    so ``left @ right^T`` is the kernel's exponent ``-c ||x - y||^2``.
    ``left`` stacks the left forms of the sets that ask for one, in order
    along the row axis, and ``right`` the right forms; a form no set asks
    for is None. The first e + 1 columns of a left form are ``[x | 1]``,
    the operand of a backward's ``W [x | 1]``, as a view.

    Each set's squared norms come from one pass and serve both its forms.
    Where ``||x||^2``, ``c ||x||^2`` or ``2c x`` overflows on finite rows,
    one guard raises a ValueError that names sigma and the largest squared
    norm, under any warnings filter. Non-finite rows raise no overflow, so
    they pass through.
    """
    c = 0.5 / sigma**2
    first = row_sets[0][0]
    lead, e = first.shape[:-2], first.shape[-1]
    rows = {form: [A.shape[-2] for A, wanted in row_sets if form in wanted] for form in "lr"}
    left = right = None
    if rows["l"]:
        left = np.empty(lead + (sum(rows["l"]), e + 2))
        left[..., e] = 1.0
    if rows["r"]:
        right = np.empty(lead + (sum(rows["r"]), e + 2))
        right[..., e + 1] = 1.0
    i = j = 0
    try:
        with np.errstate(over="raise"):
            for A, wanted in row_sets:
                n = A.shape[-2]
                # np.sum's reduction, without its wrapper's per-call cost.
                scaled_norms = -c * np.add.reduce(A * A, axis=-1)
                if "l" in wanted:
                    left[..., i : i + n, :e] = A
                    left[..., i : i + n, e + 1] = scaled_norms
                    i += n
                if "r" in wanted:
                    np.multiply(A, 2.0 * c, out=right[..., j : j + n, :e])
                    right[..., j : j + n, e] = scaled_norms
                    j += n
    except FloatingPointError:
        with np.errstate(over="ignore"):
            largest = max(np.max(np.sum(A * A, axis=-1), initial=0.0) for A, _ in row_sets)
        raise ValueError(
            f"the Gaussian kernel's exponent overflows at sigma={sigma} on rows with "
            f"squared norms up to {largest:.4g}"
        ) from None
    return left, right


def _gaussian_gram(left, right):
    """Gaussian Gram ``exp(min(left @ right^T, 0))`` of augmented rows.

    ``left`` and ``right`` are left and right forms of
    :func:`_augmented_forms`, with the same leading axes. The clamp and the
    exp run in place on the matmul's output, so the (..., n, m) result is
    the only full-size array made.
    """
    G = left @ np.swapaxes(right, -1, -2)
    np.minimum(G, 0.0, out=G)
    return np.exp(G, out=G)


def _rows(X):
    """X as float64, which must be a row matrix or a stack of them."""
    Xv = np.asarray(X, dtype=np.float64)
    if Xv.ndim not in (2, 3):
        raise ValueError(f"expected (n, e) rows or an (M, N, e) stack, got shape {Xv.shape}")
    return Xv


def _row_gradient(WA, rows):
    """The closed form ``W A - diag(W 1) rows`` from one matmul ``WA = W [A | 1]``."""
    return WA[..., :-1] - WA[..., -1:] * rows


def gram(X, Y, cfg: KernelConfig):
    """Kernel matrix ``G[i, j] = k(X_i, Y_j)`` of two arrays of rows.

    A stack such as (M, N, e) bases is read row by row. A step's kernel
    statistics and their gradient come from :func:`_kernel_statistics`.
    """
    Xv, Yv = (A.reshape(-1, A.shape[-1]) for A in (_rows(X), _rows(Y)))
    _check_feature_dims("X", Xv.shape[-1], "Y", Yv.shape[-1])
    return _gaussian_gram(*_augmented_forms(cfg.sigma, (Xv, "l"), (Yv, "r")))


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

    V is a stack such as (M, N, e) bases, read as M*N rows. Returns ``(a,
    norms, K, back)``: ``a[i, j] = <phi(x_i), mu_j>``, a C-ordered (b, M)
    array, ``norms[j] = ||mu_j||^2`` (M,), with ``gram`` the basis Gram
    ``K[j, l] = <mu_j, mu_l>`` (M, M), else None, and the backward.

    The Gram is basis-major, V's rows against the batch's. Each row set
    has one augmented form of each kind per call (:func:`_augmented_forms`),
    from one pass over its squared norms under one overflow guard. Without
    ``gram`` it evaluates the (M*N, b) Gram of V's left form against X's
    right form and, batched, only V's M diagonal (n, n) blocks, which read
    the same left form as an (M, n, e + 2) view against V's right form;
    with it, one (M*N, b + M*N) Gram of V's left form against the right
    form of the stacked rows ``R = [X; V]``, written straight from X and V
    with no copy of R; there X's left form is written too, stacked above
    V's, for V's gradient. a adds each basis's n rows of the batch's columns,
    contiguous rows of length b, in row order and divides by n: bit for
    bit ``block_means_node(V, X, cfg, n, 1).T`` of ``tests/oracles.py``
    without ``gram``. K is :func:`_block_means` of the Gram's V columns,
    and each norm sums its diagonal block in row order, so the routes
    differ only where their matmuls round an entry of G differently. The
    batch-major (b, M*N) layout summed each run of n columns pairwise, one
    numpy inner loop per (row, basis), which cost more than the exp on
    1000-row serving batches; its a agreed with this one within 1e-15
    relative at the benchmark's shapes, and its norms and K bit for bit.

    ``back(g_a, g_norms, g_k, grad_x)`` takes the gradients of a, the norms
    and K (None without ``gram``) and returns ``(g_X, g_V)``, g_X None
    unless ``grad_x``, g_V in V's shape. It expands the output gradients
    over their blocks, times G, to weights W, and gives a set of rows the
    closed form ``W A - diag(W 1) rows`` of ``dk(x, y)/dx = k(x, y) (y - x)
    / sigma^2`` from one matmul ``W [A | 1]`` (:func:`_row_gradient`).
    Where the exponent clamp fires, ``y - x`` is already ~0, so no clamp
    mask is needed. Each ``[A | 1]`` is a view of the first e + 1 columns
    of A's left form; without ``gram`` the backward writes ``[X | 1]``
    itself, as inference never reads X's left form. Without ``gram``, the weights ``W = G *
    E(g_a^T) / (n sigma^2)`` (M*N, b) give X ``W^T [V | 1]`` and V ``W [X
    | 1]`` plus, per diagonal block, ``S_p [V_p | 1]`` with ``S_p = 2 g_p
    G_p / (n^2 sigma^2)``. With ``gram`` the
    norms' gradient folds into the diagonal of K's, which is symmetrized,
    as V sits on both sides. Each basis's n rows of G share one row of
    weights, so W is one broadcast multiply over the contiguous Gram; a
    multiply per column block, on strided views, ran ~3x slower. V gets ``W
    [R | 1]`` and X ``W_x^T [V | 1]``, with ``W_x`` W's first b columns,
    run as ``([R | 1]^T W^T)^T`` and ``([V | 1]^T W_x)^T``: numpy's BLAS
    ran these 6-9% faster at (b, M, N, e) = (256, 10, 50, 64). There W
    overwrites G, so the backward runs once, and a second raises
    RuntimeError.
    """
    Xv, Vs = _rows(X), _rows(V)
    e = Vs.shape[-1]
    _check_feature_dims("X", Xv.shape[-1], "V", e)
    Vv = Vs.reshape(-1, e)
    rows = Vv.shape[0]
    if Xv.ndim != 2 or n < 1 or rows % n:
        raise ValueError(f"expected (b, e) rows and runs of {n} rows that tile {rows} rows")
    b, m = Xv.shape[0], rows // n
    left, right = _augmented_forms(cfg.sigma, (Xv, "lr" if gram else "r"), (Vv, "lr"))
    left_v = left[left.shape[0] - rows :]
    on_diagonal = np.arange(m)
    K = None
    if gram:
        G = _gaussian_gram(left_v, right)
        G_x, G_v = G[:, :b].reshape(m, n, b), G[:, b:]
        diagonal = G_v.reshape(m, n, m, n)[on_diagonal, :, on_diagonal]
        K = _block_means(G_v, n)
    else:
        G = _gaussian_gram(left_v, right[:b])
        G_x = G.reshape(m, n, b)
        diagonal = _gaussian_gram(left_v.reshape(m, n, e + 2), right[b:].reshape(m, n, e + 2))
    # Each basis's n rows of length b add in row order; np.add.reduce is
    # the reduction that ndarray.sum wraps, without the wrapper's cost.
    a = (np.add.reduce(G_x, axis=1) / n).T.copy()
    norms = np.add.reduce(diagonal.reshape(m, n * n), axis=1) / float(n * n)
    ones_v = left_v[:, : e + 1]  # [V | 1]

    def back(g_a, g_norms, g_k, grad_x):
        nonlocal G
        g_x = None
        if not gram:
            W = (G_x * (g_a.T * (1.0 / (n * cfg.sigma**2)))[:, None, :]).reshape(rows, b)
            if grad_x:
                g_x = _row_gradient(W.T @ ones_v, Xv)
            S = diagonal * (g_norms * (2.0 / (n * n * cfg.sigma**2)))[:, None, None]
            ones_x = np.empty((b, e + 1))  # [X | 1]
            ones_x[:, :e] = Xv
            ones_x[:, e] = 1.0
            g_v = _row_gradient(W @ ones_x, Vv).reshape(m, n, e)
            g_v += _row_gradient(S @ ones_v.reshape(m, n, e + 1), Vv.reshape(m, n, e))
            return g_x, g_v.reshape(Vs.shape)
        if G is None:
            raise RuntimeError("the kernel statistics are backpropagated only once")
        scale = 1.0 / cfg.sigma**2
        s = g_k.copy()
        s[on_diagonal, on_diagonal] += g_norms
        s = (s + s.T) * (scale / (n * n))
        # A basis's n rows of G share one row of weights: g_a's column for
        # the batch and s's row, each entry over n columns, for V.
        weights = np.empty((m, 1, b + rows))
        weights[:, 0, :b] = g_a.T * (scale / n)
        weights[:, 0, b:] = np.repeat(s, n, axis=1)
        # W overwrites G: the backward is G's last reader.
        W, G = G, None
        blocks = W.reshape(m, n, b + rows)
        blocks *= weights
        # Both products run transposed, as numpy's BLAS ran them faster;
        # [R | 1] is for the stacked rows R = [X; V].
        ones_r = left[:, : e + 1]
        g_v = _row_gradient((ones_r.T @ W.T).T, Vv).reshape(Vs.shape)
        if grad_x:
            g_x = _row_gradient((ones_v.T @ W[:, :b]).T, Xv)
        return g_x, g_v

    return a, norms, K, back


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
    arithmetic of the oracle ``squared_distances(X[lo:hi], X[lo:])`` in
    ``tests/oracles.py``: each pair is
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
