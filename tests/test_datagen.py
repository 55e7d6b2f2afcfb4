"""Synthetic benchmark construction, invariance checks, reproduction from
the generator's arguments, and the Bayes classifier's accuracy."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest

from gdu.datagen import (
    DomainSample,
    DomainSpec,
    ElementarySpec,
    SyntheticBenchmark,
    _uniform_classes,
    bayes_accuracy,
    make_benchmark,
    materialize,
    sample_domain,
)
from gdu.heuristics import select_m
from gdu.kernel import KernelConfig, median_heuristic
from gdu.rkhs import EmpiricalKme, mmd_sq

from oracles import bayes_accuracy_loop


def small_elem():
    means = np.zeros((2, 2, 3))
    means[0, 0, 0] = -1.0
    means[0, 1, 0] = 1.0
    means[1, 0, 1] = -1.0
    means[1, 1, 1] = 1.0
    return ElementarySpec(means)


def test_sample_domain_one_hot_alpha_tags():
    elem = small_elem()
    spec = DomainSpec(np.array([0.0, 1.0]), 50, "source")
    sample = sample_domain(spec, elem, seed=0)
    assert (sample.tags == 1).all()
    assert sample.x.shape == (50, 3)


def test_sample_domain_deterministic():
    elem = small_elem()
    spec = DomainSpec(np.array([0.3, 0.7]), 40, "source")
    a = sample_domain(spec, elem, seed=5)
    b = sample_domain(spec, elem, seed=5)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.tags, b.tags)


def test_sample_domain_component_frequencies_concentrate():
    elem = small_elem()
    alpha = np.array([0.35, 0.65])
    spec = DomainSpec(alpha, 10_000, "source")
    sample = sample_domain(spec, elem, seed=1)
    for j in (0, 1):
        freq = np.mean(sample.tags == j)
        stderr = np.sqrt(alpha[j] * (1 - alpha[j]) / 10_000)
        assert abs(freq - alpha[j]) < 3 * stderr


def test_sample_domain_classes_are_equally_likely_in_every_component():
    elem = ElementarySpec(np.zeros((2, 3, 3)))
    for alpha in ([1.0, 0.0], [0.0, 1.0]):
        sample = sample_domain(DomainSpec(np.array(alpha), 6000, "source"), elem, seed=2)
        counts = np.bincount(sample.y, minlength=3)
        assert len(counts) == 3
        stderr = np.sqrt((1 / 3) * (2 / 3) / 6000)
        assert np.all(np.abs(counts / 6000 - 1 / 3) < 4 * stderr), counts


def test_the_largest_uniform_draw_falls_in_the_last_class():
    # At C = 7 the CDF's last entry is 1 - 2^-52, below the largest draw
    # 1 - 2^-53: counting CDF entries alone gives class 7, and
    # class_means[tags, labels] has no such class.
    top = 1.0 - 2.0**-53
    assert np.cumsum(np.full(7, 1.0 / 7))[-1] < top
    np.testing.assert_array_equal(_uniform_classes(np.array([0.0, 0.5, top]), 7), [0, 3, 6])


def test_uniform_classes_count_the_cdf_entries_below_each_draw():
    # Every draw of an existing benchmark stays in its class.
    u = np.random.default_rng(3).random(5000)
    for c in range(2, 50):
        cdf = np.cumsum(np.full(c, 1.0 / c))
        np.testing.assert_array_equal(_uniform_classes(u, c), (u[:, None] > cdf).sum(axis=1))


def test_make_benchmark_alphas_on_simplex_and_distinct():
    bench = make_benchmark(4, 2, 6, 3, seed=7)
    sources = [d for d in bench.domains if d.role == "source"]
    targets = [d for d in bench.domains if d.role == "target"]
    assert len(sources) == 3 and len(targets) == 1
    for d in bench.domains:
        assert abs(d.alpha.sum() - 1.0) < 1e-12
        assert (d.alpha >= 0).all()
    for t in targets:
        for s in sources:
            assert np.abs(t.alpha - s.alpha).sum() > 0.1


@pytest.mark.parametrize("name, least", [
    ("n_components", 2), ("n_classes", 2), ("n_sources", 2),
    ("n_train", 1), ("n_val", 1), ("n_target", 1),
])
def test_make_benchmark_names_a_size_below_its_least_value(name, least):
    # A single component has no mixture to shift. An empty domain used to
    # fail in DomainSpec as "n_samples must be positive", naming no argument.
    good = dict(n_components=3, n_classes=2, input_dim=6, n_sources=3, seed=0)
    with pytest.raises(ValueError, match=f"^{name} must be at least {least}, got {least - 1}$"):
        make_benchmark(**{**good, name: least - 1})


def test_make_benchmark_validation_domains_mirror_sources():
    bench = make_benchmark(3, 2, 6, 3, seed=1)
    sources = [d for d in bench.domains if d.role == "source"]
    vals = [d for d in bench.domains if d.role == "validation"]
    assert len(vals) == len(sources)
    for s, v in zip(sources, vals):
        np.testing.assert_array_equal(s.alpha, v.alpha)


def test_make_benchmark_rejects_small_input_dim():
    with pytest.raises(ValueError, match="input_dim"):
        make_benchmark(4, 2, 5, 3, seed=0)


@pytest.mark.parametrize("name, bad", [
    ("n_train", 30.0), ("n_val", np.float64(5.0)), ("n_target", True), ("seed", 1.5),
    ("seed", False), ("n_components", 3.0), ("n_classes", 2.0), ("input_dim", 6.0),
    ("n_sources", np.float32(3.0)),
])
def test_make_benchmark_requires_integer_counts_and_seed(name, bad):
    # A float size used to pass here and fail only in materialize, with
    # numpy's unnamed TypeError; a float seed failed inside SeedSequence.
    good = dict(n_components=3, n_classes=2, input_dim=6, n_sources=3, seed=1,
                n_train=30, n_val=5, n_target=7)
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad}$"):
        make_benchmark(**{**good, name: bad})
    # numpy integers are integers.
    bench = make_benchmark(**{**good, name: np.int32(good[name])})
    assert [len(s.x) for s in materialize(bench)] == [30, 30, 30, 5, 5, 5, 7]


_GOOD_BENCHMARK = dict(n_components=3, n_classes=2, input_dim=6, n_sources=3, seed=1)


_BAD_ARGUMENTS = [
    ("separation", np.nan, "separation must be finite, got nan"),
    ("separation", np.inf, "separation must be finite, got inf"),
    ("separation", None, "separation must be a real number, got None"),
    ("separation", "2", "separation must be a real number, got '2'"),
    ("separation", 0.5j, "separation must be a real number, got 0.5j"),
    ("separation", True, "separation must be a real number, got the bool True"),
    ("k_range", 3, "k_range must be an (lo, hi) pair, got 3"),
    ("k_range", (2, 3, 4), "k_range must be an (lo, hi) pair, got (2, 3, 4)"),
    ("k_range", (2,), "k_range must be an (lo, hi) pair, got (2,)"),
    ("k_range", (2.0, 3), "k_range[0] must be an integer, got 2.0"),
    ("k_range", (2, True), "k_range[1] must be an integer, got True"),
]


@pytest.mark.parametrize(
    "name, bad, message", _BAD_ARGUMENTS, ids=[f"{n}={b!r}" for n, b, _ in _BAD_ARGUMENTS]
)
def test_real_arguments_and_k_range_are_named(name, bad, message):
    # NaN separations used to give NaN rows that only DatasetSplits
    # rejected, and a k_range of the wrong length failed as "too many values
    # to unpack".
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if name == "k_range":
            select_m(np.arange(12.0).reshape(6, 2), bad, seeds=1, seed0=0)
        else:
            make_benchmark(**{**_GOOD_BENCHMARK, name: bad})


def test_benchmark_invariant_validation():
    elem = small_elem()
    domains = [
        DomainSpec(np.array([0.5, 0.5]), 10, "source"),
        DomainSpec(np.array([0.52, 0.48]), 10, "source"),
        DomainSpec(np.array([0.5, 0.5]), 10, "target"),
    ]
    with pytest.raises(ValueError, match="too close"):
        SyntheticBenchmark(elem, domains, seed=0)
    with pytest.raises(ValueError, match="source"):
        SyntheticBenchmark(elem, [domains[0], domains[2]], seed=0)


def test_specs_reject_nan_weights_and_flat_means_by_name():
    # NaN passed the old "any entry < 0" check: sample_domain then failed
    # with numpy's unnamed "Probabilities contain NaN".
    with pytest.raises(ValueError, match=r"^alpha must lie on the probability simplex, got \[nan, 0.5\]$"):
        DomainSpec(np.array([np.nan, 0.5]), 5, "source")
    with pytest.raises(ValueError, match=r"^class_means must be a \(K, C, d\) array, got shape \(2, 3\)$"):
        ElementarySpec(np.zeros((2, 3)))


def test_an_elementary_spec_from_nested_lists_draws_as_one_from_an_array():
    # Its class means are held as a float64 array, so a spec built from
    # lists serves every property and draws the same rows.
    means = small_elem().class_means
    elem = ElementarySpec(means.astype(int).tolist())
    assert isinstance(elem.class_means, np.ndarray) and elem.class_means.dtype == np.float64
    assert (elem.n_components, elem.n_classes, elem.input_dim) == (2, 2, 3)
    spec = DomainSpec(np.array([0.4, 0.6]), 30, "source")
    got, want = sample_domain(spec, elem, seed=3), sample_domain(spec, small_elem(), seed=3)
    for field in ("x", "y", "tags"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
    assert ElementarySpec(means).class_means is means


@pytest.mark.parametrize("bad", [2.5, True, np.float64(3.0)])
def test_domain_spec_requires_an_integer_sample_count(bad):
    # These used to construct and fail in sample_domain with numpy's TypeError.
    with pytest.raises(ValueError, match=f"^n_samples must be an integer, got {bad}$"):
        DomainSpec(np.array([0.5, 0.5]), bad, "source")
    assert len(sample_domain(DomainSpec(np.array([0.5, 0.5]), np.int64(3), "source"),
                             small_elem(), seed=0).x) == 3


def _mmd2_value(xa, xb, sigma):
    cfg = KernelConfig(sigma)
    return float(mmd_sq(EmpiricalKme(xa, cfg), EmpiricalKme(xb, cfg)))


def _permutation_null_95(xa, xb, sigma, rng, n_perm=200):
    pooled = np.concatenate([xa, xb])
    na = len(xa)
    null = []
    for _ in range(n_perm):
        perm = rng.permutation(len(pooled))
        null.append(_mmd2_value(pooled[perm[:na]], pooled[perm[na:]], sigma))
    return float(np.quantile(null, 0.95))


def test_components_invariant_across_domains_by_permutation_mmd():
    # Same-tag subsets from different domains are draws from one
    # distribution: their MMD must sit inside the permutation null.
    bench = make_benchmark(3, 2, 6, 3, seed=11, n_train=500)
    samples = materialize(bench)
    rng = np.random.default_rng(0)
    src = [s for s, d in zip(samples, bench.domains) if d.role == "source"]
    rejected = 0
    checks = 0
    for tag in range(3):
        for a in range(len(src)):
            for b in range(a + 1, len(src)):
                subsets = [s.x[s.tags == tag][:80] for s in (src[a], src[b])]
                if min(len(s) for s in subsets) < 30:
                    continue
                sigma = median_heuristic(np.concatenate(subsets))
                observed = _mmd2_value(subsets[0], subsets[1], sigma)
                threshold = _permutation_null_95(subsets[0], subsets[1], sigma, rng)
                checks += 1
                rejected += observed > threshold
    assert checks >= 3
    # A 95th-percentile test rejects a true null 5% of the time; demand no
    # more than one rejection across the checked tags.
    assert rejected <= 1


def test_target_differs_from_sources_by_permutation_mmd():
    bench = make_benchmark(3, 2, 6, 3, seed=13, n_train=400, separation=8.0)
    samples = materialize(bench)
    rng = np.random.default_rng(1)
    target = next(
        s for s, d in zip(samples, bench.domains) if d.role == "target"
    )
    sources = [s for s, d in zip(samples, bench.domains) if d.role == "source"]
    for src in sources:
        xa, xb = target.x[:150], src.x[:150]
        sigma = median_heuristic(np.concatenate([xa, xb]))
        observed = _mmd2_value(xa, xb, sigma)
        threshold = _permutation_null_95(xa, xb, sigma, rng)
        assert observed > threshold


def test_make_benchmark_and_materialize_repeat_from_their_arguments():
    # The generator's arguments and seed are the only record of a run's data.
    args = dict(separation=3.0, n_train=30, n_val=10, n_target=20)
    first, second = (make_benchmark(3, 2, 6, 3, seed=9, **args) for _ in range(2))
    assert [d.n_samples for d in first.domains] == [30] * 3 + [10] * 3 + [20]
    for a, b in zip(first.domains, second.domains, strict=True):
        assert (a.role, a.n_samples) == (b.role, b.n_samples)
        np.testing.assert_array_equal(a.alpha, b.alpha)
    np.testing.assert_array_equal(first.elementary.class_means, second.elementary.class_means)
    samples = materialize(first)
    assert len(samples) == len(first.domains)
    for sa, sb in zip(samples, materialize(second), strict=True):
        np.testing.assert_array_equal(sa.x, sb.x)
        np.testing.assert_array_equal(sa.y, sb.y)
        np.testing.assert_array_equal(sa.tags, sb.tags)
    other = materialize(make_benchmark(3, 2, 6, 3, seed=10, **args))
    assert not np.array_equal(samples[0].x, other[0].x)


def test_the_claim_benchmark_rebuilds_the_same_bytes_across_commits():
    # A run records only make_benchmark's arguments and seed, so a later
    # commit must redraw the same rows from them. The digest was taken
    # before the generator's unused options were deleted.
    digest = hashlib.sha256()
    for sample in materialize(make_benchmark(4, 3, 10, 3, seed=0, separation=3.0)):
        digest.update(np.ascontiguousarray(sample.x, dtype="<f8").tobytes())
        digest.update(np.ascontiguousarray(sample.y, dtype="<i8").tobytes())
        digest.update(np.ascontiguousarray(sample.tags, dtype="<i8").tobytes())
    assert digest.hexdigest() == (
        "42b1b1967469450f9e5c9b6dd5e356aff3daedf015a6dc91cf2d28dbf9186ad1"
    )


def _target(bench):
    """The target domain's sample and mixing weights."""
    (i,) = [i for i, d in enumerate(bench.domains) if d.role == "target"]
    return materialize(bench)[i], bench.domains[i].alpha


def test_bayes_accuracy_equals_the_row_loop():
    bench = make_benchmark(3, 3, 6, 3, seed=4, separation=3.0, n_target=150)
    sample, alpha = _target(bench)
    sources = np.mean([d.alpha for d in bench.domains if d.role == "source"], axis=0)
    for weights in (alpha, sources, np.array([0.0, 0.25, 0.75])):
        got = bayes_accuracy(bench, sample, weights)
        assert got == bayes_accuracy_loop(bench, sample, weights)
        assert 0.0 < got < 1.0


def test_bayes_accuracy_rejects_bad_weights_and_rows():
    bench = make_benchmark(3, 2, 6, 3, seed=1, n_target=20)
    sample, alpha = _target(bench)
    for bad in ([0.5, 0.5], [0.2, 0.2, 0.2, 0.4], [[0.2, 0.3, 0.5]]):
        with pytest.raises(ValueError, match="^alpha must hold 3 weights, one per component"):
            bayes_accuracy(bench, sample, bad)
    for bad in ([0.5, 0.5, 0.5], [1.2, -0.1, -0.1], [np.nan, 0.5, 0.5]):
        with pytest.raises(ValueError, match="^alpha must lie on the probability simplex"):
            bayes_accuracy(bench, sample, bad)
    short = DomainSample(sample.x[:, :5], sample.y, sample.tags)
    with pytest.raises(ValueError, match=r"^sample rows must form a nonempty \(n, 6\) array"):
        bayes_accuracy(bench, short, alpha)
    for y in (sample.y[:3], sample.y[:, None]):
        mislabelled = DomainSample(sample.x, y, sample.tags)
        message = f"sample has 20 rows but labels of shape {y.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bayes_accuracy(bench, mislabelled, alpha)


def test_bayes_accuracy_is_near_one_when_components_and_classes_separate():
    # At separation 50 the components no longer overlap, but the class
    # offset of 2 still leaves the classes within one component overlapping
    # (the ceiling stays near 0.92); moving each class mean six times as far
    # from its component's center, to offset 12, separates them as well.
    bench = make_benchmark(4, 3, 10, 3, seed=0, separation=50.0)
    sample, alpha = _target(bench)
    assert bayes_accuracy(bench, sample, alpha) < 0.95
    means = bench.elementary.class_means
    centers = means.mean(axis=1, keepdims=True)
    wide = dataclasses.replace(bench.elementary, class_means=centers + 6.0 * (means - centers))
    bench = dataclasses.replace(bench, elementary=wide)
    sample, alpha = _target(bench)
    assert bayes_accuracy(bench, sample, alpha) >= 0.99
