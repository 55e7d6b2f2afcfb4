"""Parameter-selection heuristics: k-means clustering and Davies-Bouldin
scoring to pick the number of elementary domains.

Features are clustered for a range of candidate counts; the candidate with
the lowest mean Davies-Bouldin score across repeated runs wins, with ties
broken toward the smaller count (smaller ensembles cost less).
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
    "write_score_table",
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


def _kmeans_pp_init(X, k, rng):
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    closest = np.sum((X - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            centroids[i] = X[rng.integers(n)]
            continue
        centroids[i] = X[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, np.sum((X - centroids[i]) ** 2, axis=1))
    return centroids


def kmeans(X, k: int, seed: int, check_monotone: bool = False) -> ClusteringResult:
    """Lloyd's algorithm with k-means++ seeding; deterministic given seed.

    Runs to an assignment fixpoint or 300 iterations. Empty clusters are
    re-seeded from the point farthest from its assigned centroid. With
    ``check_monotone`` the non-increasing inertia invariant is asserted
    every iteration.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n rows, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(X, k, rng)
    assignments = np.full(n, -1)
    last_inertia = np.inf
    for _ in range(_MAX_LLOYD_ITER):
        d2 = squared_distances(X, centroids)
        new_assignments = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(n), new_assignments].sum())
        if check_monotone:
            assert inertia <= last_inertia + 1e-9, "inertia increased"
        last_inertia = inertia
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for j in range(k):
            members = X[assignments == j]
            if len(members) == 0:
                farthest = int(np.argmax(d2[np.arange(n), assignments]))
                centroids[j] = X[farthest]
                assignments[farthest] = j
            else:
                centroids[j] = members.mean(axis=0)
    d2 = squared_distances(X, centroids)
    inertia = float(d2[np.arange(n), assignments].sum())
    return ClusteringResult(assignments, centroids, inertia)


def davies_bouldin(X, result: ClusteringResult) -> float:
    """Davies-Bouldin score: mean over clusters of the worst ratio
    ``(s_i + s_j) / d_ij``, with ``s`` the mean distance to the centroid
    and ``d`` the centroid separation. Lower is better."""
    X = np.asarray(X, dtype=np.float64)
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
    X = np.asarray(X, dtype=np.float64)
    lo, hi = int(k_range[0]), int(k_range[1])
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


def write_score_table(path, table):
    with open(path, "w", newline="\n") as fh:
        fh.write("k,mean_db,std_db\n")
        for row in table:
            fh.write(f"{row.k},{row.mean_db!r},{row.std_db!r}\n")
