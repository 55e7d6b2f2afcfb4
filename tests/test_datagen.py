"""Synthetic benchmark construction, invariance checks, and reproduction from
the generator's arguments."""

import numpy as np
import pytest

from gdu.datagen import (
    DomainSpec,
    ElementarySpec,
    SyntheticBenchmark,
    make_benchmark,
    materialize,
    sample_domain,
)
from gdu.kernel import KernelConfig, median_heuristic
from gdu.rkhs import EmpiricalKme, mmd_sq


def small_elem():
    means = np.zeros((2, 2, 3))
    means[0, 0, 0] = -1.0
    means[0, 1, 0] = 1.0
    means[1, 0, 1] = -1.0
    means[1, 1, 1] = 1.0
    return ElementarySpec(means, np.ones((2, 3)), np.full((2, 2), 0.5))


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


def test_sample_domain_label_distribution_follows_component():
    means = np.zeros((2, 2, 3))
    elem = ElementarySpec(
        means, np.ones((2, 3)), np.array([[0.9, 0.1], [0.2, 0.8]])
    )
    spec = DomainSpec(np.array([1.0, 0.0]), 5000, "source")
    sample = sample_domain(spec, elem, seed=2)
    assert abs(np.mean(sample.y == 0) - 0.9) < 0.02


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


def test_make_benchmark_single_component_degenerate_allowed():
    bench = make_benchmark(1, 2, 4, 2, seed=0, target_weight=0.0)
    # All domains share the single component; mixtures are trivially equal.
    for d in bench.domains:
        np.testing.assert_allclose(d.alpha, [1.0])


def test_make_benchmark_validation_domains_mirror_sources():
    bench = make_benchmark(3, 2, 6, 3, seed=1)
    sources = [d for d in bench.domains if d.role == "source"]
    vals = [d for d in bench.domains if d.role == "validation"]
    assert len(vals) == len(sources)
    for s, v in zip(sources, vals):
        np.testing.assert_array_equal(s.alpha, v.alpha)


def test_make_benchmark_label_skew_knob():
    bench = make_benchmark(2, 2, 5, 2, seed=3, label_skew=0.5)
    rows = bench.elementary.label_dist
    assert rows[0, 0] > rows[0, 1]
    assert rows[1, 1] > rows[1, 0]
    np.testing.assert_allclose(rows.sum(axis=1), 1.0)


def test_make_benchmark_rejects_small_input_dim():
    with pytest.raises(ValueError, match="input_dim"):
        make_benchmark(4, 2, 5, 3, seed=0)


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
    args = dict(
        separation=3.0, label_skew=0.25, alpha_concentration=0.5, target_weight=0.6,
        n_train=30, n_val=10, n_target=20,
    )
    first, second = (make_benchmark(3, 2, 6, 3, seed=9, **args) for _ in range(2))
    assert [d.n_samples for d in first.domains] == [30] * 3 + [10] * 3 + [20]
    for a, b in zip(first.domains, second.domains, strict=True):
        assert (a.role, a.n_samples) == (b.role, b.n_samples)
        np.testing.assert_array_equal(a.alpha, b.alpha)
    for name in ("class_means", "cov_diag", "label_dist"):
        np.testing.assert_array_equal(
            getattr(first.elementary, name), getattr(second.elementary, name)
        )
    samples = materialize(first)
    assert len(samples) == len(first.domains)
    for sa, sb in zip(samples, materialize(second), strict=True):
        np.testing.assert_array_equal(sa.x, sb.x)
        np.testing.assert_array_equal(sa.y, sb.y)
        np.testing.assert_array_equal(sa.tags, sb.tags)
    other = materialize(make_benchmark(3, 2, 6, 3, seed=10, **args))
    assert not np.array_equal(samples[0].x, other[0].x)
