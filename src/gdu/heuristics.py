"""Parameter-selection heuristics: k-means clustering and Davies-Bouldin
scoring to pick the number of elementary domains.

Features are clustered for a range of candidate counts; the candidate with
the lowest mean Davies-Bouldin score across repeated runs wins, with ties
broken toward the smaller count (smaller ensembles cost less).

:func:`select_m` checks its rows once (:func:`gdu.kernel._check_rows`). It
hands :func:`kmeans` and :func:`davies_bouldin` one private ``_CheckedRows``
object for all of its clusterings: the rows, checked under the name
``select_m``, their squared norms, their contiguous transpose X^T, and per
seed one k-means++ seeding that grows on demand. Both functions take a
plain array too and wrap it on entry, so each has one code path. k-means++
draws its centroids one at a time from one RNG stream (Arthur &
Vassilvitskii, SODA 2007), so the seeding to k is exactly the first k
centroids of the seeding to any larger count; every candidate count of a
seed starts from a copy of that prefix, and the seeding to the largest
count is drawn once per seed. The one-shot seeding it replaced is kept as
``kmeans_pp_init`` in ``tests/oracles.py``.

:func:`kmeans` is bit-identical to the plain Lloyd loop with one mask and
one mean per cluster, kept as ``kmeans_loop`` in ``tests/oracles.py``: the
same assignments, centroids, inertia and iteration count. Its distances
are the operations of :func:`gdu.kernel.squared_distances` in the same
order, but in the (k, n) layout: one product ``C @ X^T`` per Lloyd step
over a contiguous copy of X^T made once per row set. With k <= 10, OpenBLAS
runs that short, wide product 1.8-4.5x faster than ``X @ C^T`` into an (n, k)
buffer, and most of the gain needs the contiguous copy: ``C @ X.T`` on a
view gains 23-39% (n = 4000, e = 16, one thread). The two layouts round
differently on some shapes, so the oracle computes its distances in the
(k, n) layout too. Each centroid is its members' sum in row order
divided by their count, the value ``X[assignments == j].mean(axis=0)``
gives. That row-order invariant rules out two faster-looking reductions:
``np.add.reduceat`` sums pairwise and a one-hot matmul sums in the BLAS's
blocked order, and either moves centroids by ~1e-15, which can flip a
later assignment. A weighted ``np.bincount`` and ``np.add.reduce`` over
the rows keep the order. For one-column rows the mean itself sums
pairwise, so there only ``np.add.reduce`` over the gathered members
matches it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .kernel import _check_int, _check_rows, _check_seed, squared_distances

__all__ = [
    "ClusteringResult",
    "ScoreRow",
    "kmeans",
    "davies_bouldin",
    "select_m",
]

_MAX_LLOYD_ITER = 300


@dataclass
class ClusteringResult:
    assignments: np.ndarray  # cluster index per row
    centroids: np.ndarray  # (k, e)
    inertia: float

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


@dataclass(frozen=True)
class ScoreRow:
    k: int
    mean_db: float
    std_db: float


# From 2 columns up to this width, per-column weighted bincounts form the
# cluster sums faster than gathering the rows by cluster and reducing them;
# the two are even at 32 columns and the gather wins at 64 (timed at
# n = 1200 and 4000). At one column only the gather matches the mean.
_BINCOUNT_MAX_WIDTH = 31


def _distances_to(XT, xx, centroids, twice_g, out):
    """``squared_distances(X, centroids).T`` into ``out`` (k, n), up to rounding.

    The same operations in the same order, ``max((xx + yy) - 2 C X^T, 0)``,
    with ``XT`` the contiguous (e, n) transpose of X and ``xx`` the rows'
    squared norms, both made once per row set. The product is
    written straight into the work buffer ``twice_g`` (k, n) and doubled
    there, which is exact. BLAS may round ``C X^T`` and ``X C^T``
    differently, so this agrees with :func:`gdu.kernel.squared_distances`
    to ~1e-12 of the squared norms, not bit for bit.
    """
    np.matmul(centroids, XT, out=twice_g)
    twice_g *= 2.0
    np.add(xx, np.sum(centroids * centroids, axis=-1)[:, None], out=out)
    np.subtract(out, twice_g, out=out)
    return np.maximum(out, 0.0, out=out)


def _kmeans_pp(XT, xx, seed):
    """The k-means++ centroids of ``seed``, one (e,) row per ``next``, without end.

    Each row's D^2 to its nearest centroid so far is lowered by one
    :func:`_distances_to` pass on (1, n) buffers per new centroid. Once
    every row coincides with a centroid (D^2 sums to 0), the next centroid
    is a uniformly drawn row.
    """
    n = XT.shape[1]
    rng = np.random.default_rng(seed)
    row, twice_g, d2 = np.empty((1, len(XT))), np.empty((1, n)), np.empty((1, n))
    row[0] = XT[:, rng.integers(n)]
    closest = _distances_to(XT, xx, row, twice_g, np.empty((1, n)))[0]
    while True:
        yield row[0].copy()
        total = closest.sum()
        if total <= 0.0:
            row[0] = XT[:, rng.integers(n)]
            continue
        row[0] = XT[:, rng.choice(n, p=closest / total)]
        _distances_to(XT, xx, row, twice_g, d2)
        np.minimum(closest, d2[0], out=closest)


class _CheckedRows:
    """Rows checked once, with what every clustering of them reuses.

    ``X`` and its rows' squared norms ``xx`` come from
    :func:`gdu.kernel._check_rows` under the name ``who``; ``XT`` is X's
    contiguous transpose, made on first use. :meth:`seeding` keeps one
    growing k-means++ seeding per seed.
    """

    def __init__(self, X, who: str):
        self.X, self.xx = _check_rows(X, who)
        self._seedings = {}

    @functools.cached_property
    def XT(self):
        return np.ascontiguousarray(self.X.T)

    def seeding(self, seed, k):
        """A new (k, e) array of the first k k-means++ centroids of ``seed``."""
        draws, drawn = self._seedings.setdefault(seed, (_kmeans_pp(self.XT, self.xx, seed), []))
        while len(drawn) < k:
            drawn.append(next(draws))
        return np.array(drawn[:k])


def _checked(X, who: str) -> _CheckedRows:
    """``X`` itself if it is a ``_CheckedRows``, else X checked under the name ``who``."""
    return X if isinstance(X, _CheckedRows) else _CheckedRows(X, who)


def _nearest(D):
    """``np.argmin(D, axis=0)`` for distances D (k, n), in k vectorized passes.

    The first minimum of a column sits after the leading run of entries
    strictly above it, so the index is that run's length. ``argmin`` makes
    one short call per column, which costs more at k <= 10.
    """
    best = np.minimum.reduce(D, axis=0)
    above = D > best
    for j in range(1, len(D)):
        np.logical_and(above[j - 1], above[j], out=above[j])
    return np.add.reduce(above, axis=0, dtype=np.intp)


def _cluster_means(X, columns, assignments, counts, out):
    """``out[j] = X[assignments == j].mean(axis=0)`` bit for bit; no cluster empty.

    A mean over rows of two or more columns adds the rows in order, one at
    a time, and so do both routes here: a weighted ``bincount`` per row of
    ``columns`` (the contiguous X^T of the distances; None selects the
    other route), or a stable sort of the rows by cluster and
    ``np.add.reduce`` over each cluster's run, which is the same reduction
    as the mean's over the same (m, e) layout, one column or many.
    """
    k = len(out)
    if columns is not None:
        for c, column in enumerate(columns):
            out[:, c] = np.bincount(assignments, weights=column, minlength=k)
    else:
        keys = assignments.astype(np.min_scalar_type(k - 1))
        members = X[np.argsort(keys, kind="stable")]
        start = 0
        for j, end in enumerate(np.cumsum(counts).tolist()):
            np.add.reduce(members[start:end], axis=0, out=out[j])
            start = end
    out /= counts[:, None]


def kmeans(X, k: int, seed: int) -> ClusteringResult:
    """Lloyd's algorithm with k-means++ seeding; deterministic given seed.

    ``X`` is an (n, e) array, or the private ``_CheckedRows`` that
    :func:`select_m` makes once for all of its clusterings; the result is
    the same bit for bit. From ``_CheckedRows`` the rows are not checked
    again, and the seeding is a copy of the first k centroids of the seed's
    growing seeding.

    Runs to an assignment fixpoint or 300 iterations. Empty clusters are
    re-seeded from the point farthest from its assigned centroid; X with
    fewer than k distinct rows, which leaves a cluster empty however it is
    re-seeded, raises a ValueError. So do rows whose squared norms would
    overflow a distance. The inertia never increases from one iteration to
    the next; the ``kmeans_loop`` oracle can assert that as it runs.

    Each centroid is its members' sum in row order over their count, the
    value of ``X[assignments == j].mean(axis=0)``, formed without a mask per
    cluster (see :func:`_cluster_means`). Summing in any other order, as
    ``np.add.reduceat`` or a one-hot matmul would, changes the centroids in
    the last bits. The distances of every step, and of every k-means++
    seed, are one ``C @ X^T`` product over a contiguous X^T made once per
    row set (see :func:`_distances_to`); the bincount route reads its columns
    from the same X^T. An iteration that leaves a cluster empty takes the
    per-cluster loop: its re-seeds move rows between clusters while the
    means are formed, so the loop's order decides which means see a move.
    """
    _check_int("k", k)
    _check_seed("seed", seed)
    checked = _checked(X, "kmeans")
    X, xx = checked.X, checked.xx
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n rows, got k={k}, n={n}")
    XT = checked.XT
    centroids = checked.seeding(seed, k)
    # Fewer than k distinct rows make the seeding repeat a centroid, and
    # leave a cluster empty however it is re-seeded. The rows are counted
    # here, not left to an empty cluster: the BLAS may round two copies of a
    # centroid apart and split the copies of a row between them.
    if np.count_nonzero((centroids[:, None] == centroids).all(axis=2)) > k:
        distinct = len(np.unique(X, axis=0))
        if distinct < k:
            raise ValueError(f"kmeans needs at least k={k} distinct rows, got {distinct}")
    columns = XT if 2 <= X.shape[1] <= _BINCOUNT_MAX_WIDTH else None
    twice_g, D = np.empty((k, n)), np.empty((k, n))
    rows = np.arange(n)
    assignments = np.full(n, -1)
    for _ in range(_MAX_LLOYD_ITER):
        _distances_to(XT, xx, centroids, twice_g, D)
        new_assignments = _nearest(D)
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        counts = np.bincount(assignments, minlength=k)
        if counts.all():
            _cluster_means(X, columns, assignments, counts, centroids)
            continue
        for j in range(k):
            members = X[assignments == j]
            if len(members) == 0:
                farthest = int(np.argmax(D[assignments, rows]))
                centroids[j] = X[farthest]
                assignments[farthest] = j
            else:
                centroids[j] = members.mean(axis=0)
    else:
        _distances_to(XT, xx, centroids, twice_g, D)
    # At the fixpoint D already holds the final centroids' distances.
    inertia = float(D[assignments, rows].sum())
    return ClusteringResult(assignments, centroids, inertia)


def davies_bouldin(X, result: ClusteringResult) -> float:
    """Davies-Bouldin score: mean over clusters of the worst ratio
    ``(s_i + s_j) / d_ij``, with ``s`` the mean distance to the centroid
    and ``d`` the centroid separation. Lower is better.

    ``X`` is an (n, e) array or the private ``_CheckedRows`` of
    :func:`select_m`, whose rows are not checked again. Raises a ValueError
    for assignments that are not one per row or lie outside [0, k), for
    centroids of another width than X's rows, for an empty cluster, and
    for two centroids that are equal or at a computed distance of zero,
    where a ratio would be inf or NaN.
    """
    X = _checked(X, "davies_bouldin").X
    shape = np.shape(result.assignments)
    if len(shape) != 1:
        raise ValueError(f"davies_bouldin got assignments of shape {shape} for {len(X)} rows")
    if len(result.assignments) != len(X):
        raise ValueError(f"davies_bouldin got {len(result.assignments)} assignments for {len(X)} rows")
    k = result.k
    if k < 2:
        raise ValueError(f"Davies-Bouldin needs at least 2 clusters, got {k}")
    if result.centroids.shape != (k, X.shape[1]):
        raise ValueError(
            f"davies_bouldin got centroids of shape {result.centroids.shape} for rows of width {X.shape[1]}"
        )
    outside = (result.assignments < 0) | (result.assignments >= k)
    if outside.any():
        raise ValueError(
            f"davies_bouldin needs assignments in [0, {k}), got {result.assignments[outside][0]}"
        )
    spreads = np.empty(k)
    for j in range(k):
        members = X[result.assignments == j]
        if len(members) == 0:
            raise ValueError(f"cluster {j} is empty")
        spreads[j] = np.mean(
            np.sqrt(np.sum((members - result.centroids[j]) ** 2, axis=1))
        )
    separations = np.sqrt(squared_distances(result.centroids, result.centroids))
    # Equal rows can round to a tiny positive distance; they coincide too.
    equal = (result.centroids[:, None, :] == result.centroids[None, :, :]).all(axis=-1)
    coincident = np.argwhere(((separations == 0.0) | equal) & ~np.eye(k, dtype=bool))
    if len(coincident):
        i, j = coincident[0].tolist()
        raise ValueError(f"davies_bouldin needs distinct centroids, but centroids {i} and {j} coincide")
    worst = np.zeros(k)
    for i in range(k):
        ratios = [
            (spreads[i] + spreads[j]) / separations[i, j]
            for j in range(k)
            if j != i
        ]
        worst[i] = max(ratios)
    return float(np.mean(worst))


def select_m(X, k_range, seeds: int, seed0: int):
    """Choose the basis count by the lowest mean Davies-Bouldin score.

    ``k_range`` is an inclusive ``(lo, hi)`` interval. Each candidate is
    clustered ``seeds`` times with seeds ``seed0, seed0+1, ...``; returns
    ``(chosen_k, [ScoreRow])`` with ties broken toward smaller k. The rows
    are checked once, and every :func:`kmeans` and :func:`davies_bouldin`
    call shares them, their X^T and each seed's k-means++ seeding (see the
    module text).
    """
    try:
        lo, hi = k_range
    except (TypeError, ValueError):
        raise ValueError(f"k_range must be an (lo, hi) pair, got {k_range!r}") from None
    for name, value in (("k_range[0]", lo), ("k_range[1]", hi), ("seeds", seeds)):
        _check_int(name, value)
    _check_seed("seed0", seed0)
    checked = _CheckedRows(X, "select_m")
    n = checked.X.shape[0]
    if not 2 <= lo <= hi <= n:
        raise ValueError(f"invalid k range [{lo}, {hi}] for n={n}")
    if seeds < 1:
        raise ValueError("need at least one run per candidate")
    table = []
    for k in range(lo, hi + 1):
        scores = [
            davies_bouldin(checked, kmeans(checked, k, seed0 + run)) for run in range(seeds)
        ]
        table.append(ScoreRow(k, float(np.mean(scores)), float(np.std(scores))))
    best = min(table, key=lambda row: (row.mean_db, row.k))
    return best.k, table

