"""Synthetic benchmarks with invariant mixture components.

Every domain draws from the same K >= 2 components, each with C equally
likely unit-covariance Gaussian classes; only the mixing weights differ
between domains. Within component j the class means sit at distance 2 from
its center on a component-specific direction, so the label rule rotates
across components and no single linear rule fits them all. Sources mix by
Dirichlet(1) draws; the target puts 0.75 on the component the sources use
least, a mixture-component shift while the components stay invariant.

:func:`bayes_accuracy` scores the Bayes classifier, which knows the
components, on drawn rows: the ceiling any model's accuracy on those rows
is measured against.

A benchmark is a function of :func:`make_benchmark`'s arguments and seed,
from which :func:`materialize` redraws every domain bit for bit: they are a
run's only record of its data. Each sample's ``tags`` (its true component)
are for diagnostics only and must never be fed to training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import _check_float, _check_int, _check_seed

__all__ = [
    "ElementarySpec",
    "DomainSpec",
    "DomainSample",
    "SyntheticBenchmark",
    "sample_domain",
    "make_benchmark",
    "materialize",
    "bayes_accuracy",
]

ROLES = ("source", "validation", "target")

_SIMPLEX_TOL = 1e-12
_MIN_TARGET_L1_GAP = 0.1
_CLASS_OFFSET = 2.0  # distance of each class mean from its component's center
_TARGET_WEIGHT = 0.75  # the target's extra weight on its rarest source component


def _check_simplex(name: str, p: np.ndarray):
    """Raise unless every row of ``p`` lies on the probability simplex.

    A NaN entry fails both comparisons, so it is rejected by name here, not
    by numpy's sampler later.
    """
    if not (np.all(p >= 0) and np.all(np.abs(p.sum(axis=-1) - 1.0) <= _SIMPLEX_TOL)):
        raise ValueError(f"{name} must lie on the probability simplex, got {p.tolist()}")


@dataclass
class ElementarySpec:
    """K invariant components, each a unit-covariance Gaussian per class
    with C equally likely classes: only the class means vary. They are held
    as a float64 array, converted once, here."""

    class_means: np.ndarray  # (K, C, d)

    def __post_init__(self):
        self.class_means = np.asarray(self.class_means, dtype=np.float64)
        if self.class_means.ndim != 3:
            raise ValueError(
                f"class_means must be a (K, C, d) array, got shape {self.class_means.shape}"
            )

    @property
    def n_components(self) -> int:
        return self.class_means.shape[0]

    @property
    def n_classes(self) -> int:
        return self.class_means.shape[1]

    @property
    def input_dim(self) -> int:
        return self.class_means.shape[2]


@dataclass
class DomainSpec:
    alpha: np.ndarray  # mixing weights over the K components
    n_samples: int
    role: str

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.role not in ROLES:
            raise ValueError(f"unknown domain role {self.role!r}")
        _check_int("n_samples", self.n_samples)
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        _check_simplex("alpha", self.alpha)


@dataclass
class DomainSample:
    x: np.ndarray  # (n, d)
    y: np.ndarray  # (n,) class labels
    tags: np.ndarray  # (n,) true component per sample; diagnostics only


@dataclass
class SyntheticBenchmark:
    elementary: ElementarySpec
    domains: list
    seed: int

    def __post_init__(self):
        roles = [d.role for d in self.domains]
        if roles.count("source") < 2 or roles.count("target") < 1:
            raise ValueError("need at least two source domains and one target")
        sources = [d.alpha for d in self.domains if d.role == "source"]
        for target in (d.alpha for d in self.domains if d.role == "target"):
            gap = min(float(np.abs(target - s).sum()) for s in sources)
            if gap <= _MIN_TARGET_L1_GAP:
                raise ValueError(
                    f"target alpha too close to a source (L1 gap {gap:.3f})"
                )


def _uniform_classes(u, c: int):
    """The class of each uniform draw in ``u``: the number of entries of the
    CDF ``1/C, 2/C, ...`` below it, at most C - 1.

    For some C (7, 13, 14, 19, ...) the CDF's summed last entry is a few
    ulps below 1, and a draw above it would otherwise count C entries.
    """
    cdf = np.cumsum(np.full(c, 1.0 / c))
    return np.minimum(np.searchsorted(cdf, u, side="left"), c - 1)


def sample_domain(spec: DomainSpec, elem: ElementarySpec, seed: int) -> DomainSample:
    """Draw ``n_samples`` rows in this order from one generator seeded ``seed``:
    components ~ alpha, classes uniform (one uniform per row against the CDF
    ``1/C, 2/C, ...``), then features ~ N(class mean, I)."""
    rng = np.random.default_rng(seed)
    n, c = spec.n_samples, elem.n_classes
    tags = rng.choice(elem.n_components, size=n, p=spec.alpha)
    labels = _uniform_classes(rng.random(n), c)
    noise = rng.standard_normal((n, elem.input_dim))
    x = elem.class_means[tags, labels] + noise
    return DomainSample(x, labels.astype(np.int64), tags.astype(np.int64))


def _component_frame(n_components, n_classes, input_dim, separation):
    """Component centers on scaled axes plus per-component rotated class
    directions in a shared two-dimensional plane."""
    if input_dim < n_components + 2:
        raise ValueError(
            f"input_dim must be >= n_components + 2, got {input_dim} < "
            f"{n_components + 2}"
        )
    centers = np.zeros((n_components, input_dim))
    for j in range(n_components):
        centers[j, j] = separation / math.sqrt(2.0)
    means = np.zeros((n_components, n_classes, input_dim))
    ax_u, ax_v = input_dim - 2, input_dim - 1
    for j in range(n_components):
        # Rotations cover the full circle so that some component pairs
        # carry opposite label rules in the shared class plane; no single
        # linear rule can then serve every component.
        rotation = 2.0 * math.pi * j / n_components
        for y in range(n_classes):
            angle = rotation + 2.0 * math.pi * y / n_classes
            means[j, y] = centers[j]
            means[j, y, ax_u] += _CLASS_OFFSET * math.cos(angle)
            means[j, y, ax_v] += _CLASS_OFFSET * math.sin(angle)
    return means


def make_benchmark(
    n_components: int,
    n_classes: int,
    input_dim: int,
    n_sources: int,
    seed: int,
    separation: float = 10.0,
    n_train: int = 400,
    n_val: int = 150,
    n_target: int = 600,
) -> SyntheticBenchmark:
    """Build a benchmark with invariant components and shifted mixtures.

    The generator is fixed: K = ``n_components`` >= 2 components
    ``separation`` apart, each with C = ``n_classes`` equally likely
    unit-covariance classes at distance 2 from its center. Source mixing
    weights are Dirichlet(1) draws, mirrored by the validation domains; the
    target puts 0.75 on the component the sources use least, spreads 0.25
    evenly, and is redrawn until it clears the distinctness requirement.
    The counts, sizes and ``seed`` must be Python or numpy integers, not
    bools, ``seed`` nonnegative, each size positive and ``separation`` a
    finite real number.
    """
    sizes = dict(n_components=n_components, n_classes=n_classes, input_dim=input_dim,
                 n_sources=n_sources, n_train=n_train, n_val=n_val, n_target=n_target)
    for name, value in sizes.items():
        _check_int(name, value)
    _check_seed("seed", seed)
    _check_float("separation", separation)
    if not math.isfinite(separation):
        raise ValueError(f"separation must be finite, got {separation}")
    for name, least in (("n_components", 2), ("n_classes", 2), ("n_sources", 2),
                        ("n_train", 1), ("n_val", 1), ("n_target", 1)):
        if sizes[name] < least:
            raise ValueError(f"{name} must be at least {least}, got {sizes[name]}")
    rng = np.random.default_rng(seed)
    elem = ElementarySpec(_component_frame(n_components, n_classes, input_dim, separation))

    for _ in range(64):
        alphas = rng.dirichlet(np.ones(n_components), n_sources)
        rare = int(np.argmin(alphas.sum(axis=0)))
        target_alpha = np.full(n_components, (1.0 - _TARGET_WEIGHT) / n_components)
        target_alpha[rare] += _TARGET_WEIGHT
        if np.abs(target_alpha - alphas).sum(axis=1).min() > _MIN_TARGET_L1_GAP:
            break
    else:
        raise RuntimeError("could not draw a sufficiently distinct target mixture")

    domains = [DomainSpec(alpha, n_train, "source") for alpha in alphas]
    domains += [DomainSpec(alpha, n_val, "validation") for alpha in alphas]
    domains.append(DomainSpec(target_alpha, n_target, "target"))
    return SyntheticBenchmark(elem, domains, seed)


def materialize(benchmark: SyntheticBenchmark) -> list:
    """Sample every domain with independent deterministic seed streams."""
    states = np.random.SeedSequence(benchmark.seed).generate_state(
        len(benchmark.domains)
    )
    return [
        sample_domain(spec, benchmark.elementary, int(state))
        for spec, state in zip(benchmark.domains, states)
    ]


def bayes_accuracy(benchmark: SyntheticBenchmark, sample: DomainSample, alpha) -> float:
    """Accuracy on ``sample`` of the Bayes classifier for mixing weights ``alpha``.

    The classifier knows the benchmark's unit-covariance Gaussian components,
    their uniform class prior 1/C and the weights ``alpha`` over the K
    components. It predicts the class ``y`` of largest log joint density,
    ``logsumexp_j [log alpha_j + log(1/C) + log N(x; m_jy, I)]``,
    the log-sum-exp taken over components after subtracting their maximum;
    ties go to the smaller class. ``alpha`` must lie on the probability
    simplex and have one weight per component; a zero weight drops its
    component. With the target's own ``alpha`` this is the target ceiling;
    with the mean source ``alpha`` it is the ceiling of a model that knows
    only the sources' weights.
    """
    elem = benchmark.elementary
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (elem.n_components,):
        raise ValueError(
            f"alpha must hold {elem.n_components} weights, one per component; "
            f"got shape {alpha.shape}"
        )
    _check_simplex("alpha", alpha)
    x = np.asarray(sample.x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != elem.input_dim or len(x) == 0:
        raise ValueError(
            f"sample rows must form a nonempty (n, {elem.input_dim}) array, got {x.shape}"
        )
    y = np.asarray(sample.y)
    if y.shape != (len(x),):
        raise ValueError(f"sample has {len(x)} rows but labels of shape {y.shape}")
    c = elem.n_classes
    with np.errstate(divide="ignore"):
        log_prior = np.log(alpha)[:, None] + np.log(np.full(c, 1.0 / c))  # (K, C)
    log_norm = -0.5 * (elem.input_dim * math.log(2.0 * math.pi))
    # (K, n, C): each component's log joint density of every row and class.
    log_joint = np.empty((elem.n_components, len(x), c))
    for j in range(elem.n_components):
        diff = x[:, None, :] - elem.class_means[j][None, :, :]
        quad = np.sum(diff * diff, axis=-1)
        log_joint[j] = log_prior[j] + log_norm - 0.5 * quad
    top = np.max(log_joint, axis=0)
    scores = top + np.log(np.sum(np.exp(log_joint - top), axis=0))
    predicted = np.argmax(scores, axis=1)
    return float(np.mean(predicted == y))
