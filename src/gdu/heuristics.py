"""Parameter-selection heuristics: k-means clustering and Davies-Bouldin
scoring to pick the number of elementary domains.

Features are clustered for a range of candidate counts; the candidate with
the lowest mean Davies-Bouldin score across repeated runs wins, with ties
broken toward the smaller count (smaller ensembles cost less).

:func:`kmeans` is bit-identical to the plain Lloyd loop with one mask and
one mean per cluster, kept as ``kmeans_loop`` in ``tests/oracles.py``: the
same assignments, centroids, inertia and iteration count. Its distances
are the operations of :func:`gdu.kernel.squared_distances` in the same
order, laid out transposed. Each centroid is its members' sum in row order
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

from dataclasses import dataclass

import numpy as np

from .kernel import squared_distances

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


def _distances_to_row(X, xx, c, twice_g, out):
    """``max((xx + ||c||^2) - 2 X c, 0)`` into ``out`` (n,): the operations of
    :func:`_distances_to` for one centroid. ``twice_g`` (n,) is a work buffer.
    """
    np.matmul(X, c, out=twice_g)
    twice_g *= 2.0
    np.add(xx, np.dot(c, c), out=out)
    np.subtract(out, twice_g, out=out)
    return np.maximum(out, 0.0, out=out)


def _kmeans_pp_init(X, xx, k, rng):
    """k-means++ seeding of k centroids; ``xx`` holds the rows' squared norms.

    Each row's D^2 to a new centroid takes one matrix-vector product and a
    few vector passes into reused buffers (:func:`_distances_to_row`).
    """
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    twice_g, d2 = np.empty(n), np.empty(n)
    closest = _distances_to_row(X, xx, centroids[0], twice_g, np.empty(n))
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            centroids[i] = X[rng.integers(n)]
            continue
        centroids[i] = X[rng.choice(n, p=closest / total)]
        np.minimum(closest, _distances_to_row(X, xx, centroids[i], twice_g, d2), out=closest)
    return centroids


# From 2 columns up to this width, per-column weighted bincounts form the
# cluster sums faster than gathering the rows by cluster and reducing them;
# the two are even at 32 columns and the gather wins at 64 (timed at
# n = 1200 and 4000). At one column only the gather matches the mean.
_BINCOUNT_MAX_WIDTH = 31


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
    xx = np.sum(X * X, axis=-1)
    largest = np.max(xx, initial=0.0)
    if not np.isfinite(4.0 * largest):
        if not np.all(np.isfinite(X)):
            raise ValueError(f"{who} needs finite rows")
        raise ValueError(
            f"{who} needs rows with squared norms below {_MAX_SQ_NORM:.4g}, got {largest:.4g}"
        )
    return X, xx


def _check_int(name: str, value):
    """Raise unless ``value`` is a Python or numpy integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value}")


def _distances_to(X, xx, centroids, G, twice_g, out):
    """``squared_distances(X, centroids).T`` into ``out`` (k, n), bit for bit.

    The same operations in the same order, ``max((xx + yy) - 2 X C^T, 0)``,
    with ``xx`` the rows' squared norms, computed once per :func:`kmeans`
    call. ``G`` (n, k) and ``twice_g`` (k, n) are work buffers; doubling
    is exact, so doubling while transposing changes no value.
    """
    np.matmul(X, centroids.T, out=G)
    np.multiply(G.T, 2.0, out=twice_g)
    np.add(xx, np.sum(centroids * centroids, axis=-1)[:, None], out=out)
    np.subtract(out, twice_g, out=out)
    return np.maximum(out, 0.0, out=out)


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
    ``columns`` (X transposed, contiguous; None selects the other route),
    or a stable sort of the rows by cluster and ``np.add.reduce`` over each
    cluster's run, which is the same reduction as the mean's over the same
    (m, e) layout, one column or many.
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
    the last bits. An iteration that leaves a cluster empty takes the
    per-cluster loop: its re-seeds move rows between clusters while the
    means are formed, so the loop's order decides which means see a move.
    """
    _check_int("k", k)
    X, xx = _check_rows(X, "kmeans")
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n rows, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(X, xx, k, rng)
    columns = np.ascontiguousarray(X.T) if 2 <= X.shape[1] <= _BINCOUNT_MAX_WIDTH else None
    G, twice_g, D = np.empty((n, k)), np.empty((k, n)), np.empty((k, n))
    rows = np.arange(n)
    assignments = np.full(n, -1)
    for _ in range(_MAX_LLOYD_ITER):
        _distances_to(X, xx, centroids, G, twice_g, D)
        new_assignments = _nearest(D)
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        counts = np.bincount(assignments, minlength=k)
        if counts.all():
            _cluster_means(X, columns, assignments, counts, centroids)
            continue
        # Identical rows share a cluster, so with fewer than k distinct rows
        # some cluster is empty on every pass and no re-seed can fill it.
        # (The distance of a row to its own copy can round to ~1e-15, so the
        # rows are compared, not the distances.)
        distinct = len(np.unique(X, axis=0))
        if distinct < k:
            raise ValueError(f"kmeans needs at least k={k} distinct rows, got {distinct}")
        for j in range(k):
            members = X[assignments == j]
            if len(members) == 0:
                farthest = int(np.argmax(D[assignments, rows]))
                centroids[j] = X[farthest]
                assignments[farthest] = j
            else:
                centroids[j] = members.mean(axis=0)
    else:
        _distances_to(X, xx, centroids, G, twice_g, D)
    # At the fixpoint D already holds the final centroids' distances.
    inertia = float(D[assignments, rows].sum())
    return ClusteringResult(assignments, centroids, inertia)


def davies_bouldin(X, result: ClusteringResult) -> float:
    """Davies-Bouldin score: mean over clusters of the worst ratio
    ``(s_i + s_j) / d_ij``, with ``s`` the mean distance to the centroid
    and ``d`` the centroid separation. Lower is better."""
    X, _ = _check_rows(X, "davies_bouldin")
    if len(result.assignments) != len(X):
        raise ValueError(f"davies_bouldin got {len(result.assignments)} assignments for {len(X)} rows")
    k = result.k
    if k < 2:
        raise ValueError(f"Davies-Bouldin needs at least 2 clusters, got {k}")
    spreads = np.empty(k)
    for j in range(k):
        members = X[result.assignments == j]
        if len(members) == 0:
            raise ValueError(f"cluster {j} is empty")
        spreads[j] = np.mean(
            np.sqrt(np.sum((members - result.centroids[j]) ** 2, axis=1))
        )
    separations = np.sqrt(squared_distances(result.centroids, result.centroids))
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
    ``(chosen_k, [ScoreRow])`` with ties broken toward smaller k.
    """
    lo, hi = k_range
    for name, value in (("k_range[0]", lo), ("k_range[1]", hi), ("seeds", seeds), ("seed0", seed0)):
        _check_int(name, value)
    X, _ = _check_rows(X, "select_m")
    if not 2 <= lo <= hi <= X.shape[0]:
        raise ValueError(f"invalid k range [{lo}, {hi}] for n={X.shape[0]}")
    if seeds < 1:
        raise ValueError("need at least one run per candidate")
    table = []
    for k in range(lo, hi + 1):
        scores = [
            davies_bouldin(X, kmeans(X, k, seed0 + run)) for run in range(seeds)
        ]
        table.append(ScoreRow(k, float(np.mean(scores)), float(np.std(scores))))
    best = min(table, key=lambda row: (row.mean_db, row.k))
    return best.k, table

