"""k-means, Davies-Bouldin, and basis-count selection."""

from unittest import mock

import numpy as np
import pytest

from gdu import heuristics
from gdu.heuristics import (
    ClusteringResult,
    ScoreRow,
    davies_bouldin,
    kmeans,
    select_m,
)
from gdu.kernel import KernelConfig, median_heuristic
from gdu.layer import GduLayer

from oracles import kmeans_loop, kmeans_pp_init


def blobs(rng, centers, n_per, spread=0.1):
    parts = [c + rng.normal(scale=spread, size=(n_per, len(c))) for c in centers]
    return np.concatenate(parts)


def test_kmeans_k_equals_n():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(6, 2))
    result = kmeans(X, 6, seed=1)
    assert result.inertia == pytest.approx(0.0, abs=1e-20)
    assert sorted(result.assignments) == list(range(6))


def test_kmeans_k1_gives_global_mean():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 3))
    result = kmeans(X, 1, seed=0)
    np.testing.assert_allclose(result.centroids[0], X.mean(axis=0), atol=1e-12)


def test_kmeans_separates_two_blobs():
    rng = np.random.default_rng(2)
    X = blobs(rng, [np.array([0.0]), np.array([10.0])], 30)
    result = kmeans(X, 2, seed=3)
    labels = result.assignments
    # Brute-force optimal 2-clustering splits exactly at the gap.
    assert len(set(labels[:30])) == 1 and len(set(labels[30:])) == 1
    assert labels[0] != labels[-1]
    for c in result.centroids[:, 0]:
        assert min(abs(c - 0.0), abs(c - 10.0)) < 0.2


def test_kmeans_deterministic_and_monotone():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 4))
    a = kmeans(X, 5, seed=7)
    b = kmeans(X, 5, seed=7)
    np.testing.assert_array_equal(a.assignments, b.assignments)
    np.testing.assert_array_equal(a.centroids, b.centroids)
    # The loop oracle is bit-identical to kmeans and asserts, every
    # iteration, that the inertia does not increase.
    oracle = kmeans_loop(X, 5, seed=7, check_monotone=True)
    np.testing.assert_array_equal(oracle.centroids, a.centroids)


def test_kmeans_rejects_bad_k():
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 1)), 4, seed=0)
    X = np.arange(6.0).reshape(3, 2)
    for bad in (2.0, np.float64(2.0), True):
        with pytest.raises(ValueError, match=f"^k must be an integer, got {bad}$"):
            kmeans(X, bad, seed=0)
    assert kmeans(X, np.int64(2), seed=0).k == 2
    # A float seed used to fail inside default_rng with an unnamed error.
    for bad in (0.5, np.float64(1.0), True):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {bad}$"):
            kmeans(X, 2, bad)
    assert kmeans(X, 2, np.int64(0)).k == 2


def test_davies_bouldin_singleton_clusters_score_zero():
    X = np.array([[0.0, 0.0], [4.0, 0.0]])
    result = ClusteringResult(np.array([0, 1]), X.copy(), 0.0)
    assert davies_bouldin(X, result) == 0.0


def test_davies_bouldin_translation_invariant():
    rng = np.random.default_rng(4)
    X = blobs(rng, [np.zeros(2), np.full(2, 5.0)], 25)
    result = kmeans(X, 2, seed=0)
    base = davies_bouldin(X, result)
    shifted = X + np.array([100.0, -40.0])
    shifted_result = ClusteringResult(
        result.assignments, result.centroids + np.array([100.0, -40.0]), result.inertia
    )
    assert davies_bouldin(shifted, shifted_result) == pytest.approx(base, rel=1e-12)


def test_davies_bouldin_hand_value():
    # Two clusters with unit mean spread and centroid distance 4 -> 0.5.
    X = np.array([[0.0, 1.0], [0.0, -1.0], [4.0, 1.0], [4.0, -1.0]])
    result = ClusteringResult(
        np.array([0, 0, 1, 1]), np.array([[0.0, 0.0], [4.0, 0.0]]), 0.0
    )
    assert davies_bouldin(X, result) == pytest.approx(0.5, abs=1e-12)
    # Integer-valued float assignments index the clusters as well.
    as_floats = ClusteringResult(result.assignments.astype(float), result.centroids, 0.0)
    assert davies_bouldin(X, as_floats) == davies_bouldin(X, result)


def test_davies_bouldin_validation():
    X = np.zeros((3, 1))
    with pytest.raises(ValueError):
        davies_bouldin(X, ClusteringResult(np.zeros(3, dtype=int), np.zeros((1, 1)), 0.0))
    with pytest.raises(ValueError, match="empty"):
        davies_bouldin(
            X, ClusteringResult(np.zeros(3, dtype=int), np.zeros((2, 1)), 0.0)
        )
    # Assignments for other rows than X's name both lengths.
    rng = np.random.default_rng(3)
    Y = blobs(rng, [np.zeros(2), np.full(2, 5.0), np.full(2, -5.0)], 20)
    with pytest.raises(ValueError, match="^davies_bouldin got 60 assignments for 40 rows$"):
        davies_bouldin(Y[:40], kmeans(Y, 3, 0))


# Each used to be scored: an assignment outside [0, k) was dropped (4.707
# here), other widths failed in numpy's broadcasting, and coincident
# centroids gave a RuntimeWarning and then inf or NaN.
TWO_CENTROIDS = [[0.0, 0.5], [4.0, 0.5]]


@pytest.mark.parametrize(
    "assignments, centroids, message",
    [
        # A column of assignments used to fail in boolean indexing, unnamed.
        ([[0], [0], [1], [1], [1]], TWO_CENTROIDS, r"got assignments of shape \(5, 1\) for 5 rows"),
        ([0, 0, 1, 1, 7], TWO_CENTROIDS, r"needs assignments in \[0, 2\), got 7"),
        ([0, 0, 1, 1, -1], TWO_CENTROIDS, r"needs assignments in \[0, 2\), got -1"),
        ([0, 0, 1, 1, 1], [[0.0], [4.0]], r"got centroids of shape \(2, 1\) for rows of width 2"),
        ([0, 0, 1, 1, 1], [[0.0, 0.5, 0.0], [4.0, 0.5, 0.0]],
         r"got centroids of shape \(2, 3\) for rows of width 2"),
        ([0, 0, 1, 1, 1], [[4.0, 0.5], [4.0, 0.5]],
         "needs distinct centroids, but centroids 0 and 1 coincide"),
        # Equal rows whose squared distance can round above 0 (2.8e-17 with
        # OpenBLAS on x86-64), so a zero-distance test alone misses them.
        ([0, 0, 1, 2, 2], [[0.0, 0.5], [0.1, 0.3], [0.1, 0.3]],
         "needs distinct centroids, but centroids 1 and 2 coincide"),
    ],
)
def test_davies_bouldin_names_bad_clusterings(assignments, centroids, message):
    X = np.array([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0], [4.0, 1.0], [9.0, 9.0]])
    result = ClusteringResult(np.array(assignments), np.array(centroids), 0.0)
    with pytest.raises(ValueError, match=f"^davies_bouldin {message}$"):
        davies_bouldin(X, result)


def test_select_m_recovers_three_planted_clusters():
    rng = np.random.default_rng(5)
    centers = [np.array([0.0, 0.0]), np.array([12.0, 0.0]), np.array([0.0, 12.0])]
    X = blobs(rng, centers, 40, spread=0.5)
    chosen, table = select_m(X, (2, 8), seeds=3, seed0=0)
    assert chosen == 3
    assert [row.k for row in table] == list(range(2, 9))
    best = min(table, key=lambda r: r.mean_db)
    assert best.k == 3


def test_select_m_width_one_range_and_determinism():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(30, 2))
    chosen, table = select_m(X, (4, 4), seeds=2, seed0=1)
    assert chosen == 4 and len(table) == 1
    again = select_m(X, (4, 4), seeds=2, seed0=1)
    assert again == (chosen, table)


def test_select_m_recovery_rate_on_planted_k():
    # Separation >= 10x the RMS cluster radius (sqrt(3) for unit spread in
    # 3-D); demand >= 95% recovery per planted count.
    min_sep = 10.0 * np.sqrt(3.0)
    for planted in (2, 3, 4, 5):
        hits = 0
        for seed in range(40):
            rng = np.random.default_rng(1000 * planted + seed)

            def draw():
                return [rng.normal(scale=30.0, size=3) for _ in range(planted)]

            centers = draw()
            while True:
                dists = [
                    np.linalg.norm(a - b)
                    for i, a in enumerate(centers)
                    for b in centers[:i]
                ]
                if not dists or min(dists) >= min_sep:
                    break
                centers = draw()
            X = blobs(rng, centers, 30, spread=1.0)
            chosen, _ = select_m(X, (2, 7), seeds=5, seed0=seed)
            hits += chosen == planted
        assert hits >= 38, f"planted={planted} recovered {hits}/40"


def test_select_m_validation():
    with pytest.raises(ValueError):
        select_m(np.zeros((5, 1)), (1, 3), seeds=1, seed0=0)
    with pytest.raises(ValueError):
        select_m(np.zeros((5, 1)), (2, 9), seeds=1, seed0=0)
    with pytest.raises(ValueError):
        select_m(np.zeros((5, 2)), (2, 3), seeds=0, seed0=0)
    # Counts and seeds are integers; a float is not truncated to one.
    X = np.arange(12.0).reshape(6, 2)
    for k_range, seeds, seed0, name, bad in (
        ((2.5, 4), 1, 0, r"k_range\[0\]", 2.5),
        ((2, 4.0), 1, 0, r"k_range\[1\]", 4.0),
        ((2, True), 1, 0, r"k_range\[1\]", True),
        ((2, 3), 1.0, 0, "seeds", 1.0),
        ((2, 3), np.float64(2.0), 0, "seeds", 2.0),
        ((2, 3), 1, 0.5, "seed0", 0.5),
        ((2, 3), 1, False, "seed0", False),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad}$"):
            select_m(X, k_range, seeds=seeds, seed0=seed0)
    _, table = select_m(X, (np.int32(2), np.int64(3)), seeds=np.int64(1), seed0=np.int8(0))
    assert [row.k for row in table] == [2, 3]


# 64 columns is train-wide's feature width, which sums centroids by the
# gather route; 16 takes the bincount route.
@pytest.mark.parametrize("e", [16, 64])
def test_select_m_equals_select_m_on_the_loop_oracle(e):
    rng = np.random.default_rng(8)
    centers = rng.normal(scale=4.0, size=(4, e))
    X = centers[rng.integers(4, size=400)] + rng.normal(size=(400, e))
    got = select_m(X, (2, 7), seeds=2, seed0=3)
    table = []
    for k in range(2, 8):
        scores = [davies_bouldin(X, kmeans_loop(X, k, 3 + run)) for run in range(2)]
        table.append(ScoreRow(k, float(np.mean(scores)), float(np.std(scores))))
    expected = min(table, key=lambda row: (row.mean_db, row.k)).k, table
    assert got == expected


def test_select_m_clusters_and_scores_each_candidate_once_per_seed():
    # The bench times select_m through these two names; a refactor that
    # called anything else would leave their spans empty.
    X = np.random.default_rng(11).normal(size=(60, 3))
    with (
        mock.patch.object(heuristics, "kmeans", wraps=kmeans) as clusterings,
        mock.patch.object(heuristics, "davies_bouldin", wraps=davies_bouldin) as scores,
    ):
        select_m(X, (3, 7), seeds=4, seed0=2)
    assert clusterings.call_count == scores.call_count == (7 - 3 + 1) * 4


# Three distinct integer rows, so every D^2 is exact: from the fourth
# centroid on, D^2 sums to 0 and the seeding draws a row uniformly.
DUPLICATE_ROWS = np.repeat(np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 3.0]]), [5, 4, 3], axis=0)


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
@pytest.mark.parametrize("duplicates", [False, True])
def test_the_growing_seeding_is_the_one_shot_seeding_bit_for_bit(order, duplicates):
    rng = np.random.default_rng(12)
    X = DUPLICATE_ROWS if duplicates else rng.normal(size=(40, 5))
    ks = list(range(1, 11))
    if order == "descending":
        ks.reverse()
    elif order == "shuffled":
        rng.shuffle(ks)
    checked = heuristics._CheckedRows(X, "test")
    for seed in (0, 7):
        for k in ks:
            expected = kmeans_pp_init(checked.XT, checked.xx, k, np.random.default_rng(seed))
            got = checked.seeding(seed, k)
            assert got.shape == (k, X.shape[1])
            assert got.tobytes() == expected.tobytes()
        if duplicates:
            # Ten centroids from three distinct rows: the seeding took the
            # branch where D^2 sums to 0.
            assert len(np.unique(checked.seeding(seed, 10), axis=0)) == 3


def test_kmeans_on_shared_rows_equals_kmeans_on_the_array_bit_for_bit():
    rng = np.random.default_rng(13)
    for e in (1, 2, 16, 40):
        centers = rng.normal(scale=4.0, size=(5, e))
        X = centers[rng.integers(5, size=300)] + rng.normal(size=(300, e))
        checked = heuristics._CheckedRows(X, "select_m")
        # Counts out of order, so some clusterings start from a prefix of a
        # seeding drawn further by an earlier call.
        for k, seed in ((6, 1), (2, 1), (4, 0), (8, 0), (3, 1), (7, 1)):
            got, expected = kmeans(checked, k, seed), kmeans(X, k, seed)
            np.testing.assert_array_equal(got.assignments, expected.assignments)
            assert got.centroids.tobytes() == expected.centroids.tobytes()
            assert got.inertia == expected.inertia
            assert davies_bouldin(checked, got) == davies_bouldin(X, expected)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clustering_rejects_non_finite_rows(bad):
    X = np.random.default_rng(9).normal(size=(12, 2))
    X[5, 1] = bad
    result = ClusteringResult(np.arange(12) % 2, np.zeros((2, 2)), 0.0)
    with pytest.raises(ValueError, match="kmeans needs finite rows"):
        kmeans(X, 2, seed=0)
    with pytest.raises(ValueError, match="davies_bouldin needs finite rows"):
        davies_bouldin(X, result)
    with pytest.raises(ValueError, match="select_m needs finite rows"):
        select_m(X, (2, 3), seeds=1, seed0=0)


@pytest.mark.parametrize("shape", [(12,), (2, 3, 2)])
def test_clustering_rejects_rows_that_are_not_a_matrix(shape):
    X = np.zeros(shape)
    result = ClusteringResult(np.zeros(2, dtype=int), np.zeros((2, 1)), 0.0)
    with pytest.raises(ValueError, match=r"kmeans expects an \(n, e\) matrix"):
        kmeans(X, 2, seed=0)
    with pytest.raises(ValueError, match=r"davies_bouldin expects an \(n, e\) matrix"):
        davies_bouldin(X, result)
    with pytest.raises(ValueError, match=r"select_m expects an \(n, e\) matrix"):
        select_m(X, (2, 3), seeds=1, seed0=0)


def test_clustering_rejects_rows_whose_squared_norms_overflow():
    # Finite rows near 1e155: their squared norms overflow, so every
    # distance would be inf - inf = NaN. The check itself raises no
    # overflow warning. Rows at 1e153 still pass. The median heuristic and
    # a layer's bases share the clustering's row check.
    X = 1e155 * (1.0 + 1e-3 * np.random.default_rng(10).normal(size=(20, 2)))
    result = ClusteringResult(np.arange(20) % 2, np.zeros((2, 2)), 0.0)

    def layer(rows):
        return GduLayer(rows.reshape(4, 5, 2), np.zeros((2, 4, 1)), np.zeros((4, 1)),
                        KernelConfig(1.0), "PROJECTION")

    for who, call in (("kmeans", lambda: kmeans(X, 3, seed=0)),
                      ("davies_bouldin", lambda: davies_bouldin(X, result)),
                      ("select_m", lambda: select_m(X, (2, 3), seeds=1, seed0=0)),
                      ("median_heuristic", lambda: median_heuristic(X)),
                      ("GduLayer bases", lambda: layer(X))):
        with pytest.raises(ValueError, match=f"{who} needs rows with squared norms below"):
            call()
    assert np.isfinite(kmeans(X / 100.0, 3, seed=0).inertia)
    assert np.isfinite(median_heuristic(X / 100.0))
    layer(X / 100.0)


def test_kmeans_rejects_fewer_distinct_rows_than_clusters():
    # Two distinct rows, ten copies each: every re-seed used to take row 0
    # and the next assignment moved it back, for all 300 iterations.
    X = np.repeat(np.array([[0.0, 1.0], [2.0, 3.0]]), 10, axis=0)
    for k in (3, 4):
        with pytest.raises(ValueError, match=f"kmeans needs at least k={k} distinct rows"):
            kmeans(X, k, seed=0)
    assert sorted(np.bincount(kmeans(X, 2, seed=0).assignments)) == [10, 10]

