"""Synthetic benchmarks with invariant mixture components.

Every domain draws from the same K class-conditional Gaussian components;
only the mixing weights differ between domains. Within component j the
class means sit on a component-specific direction, so the label rule
rotates across components and no single linear rule fits them all. Target
domains get mixing weights concentrated away from the sources, producing a
mixture-component shift at test time while the components themselves stay
literally invariant.

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


def _check_simplex(name: str, p: np.ndarray):
    """Raise unless every row of ``p`` lies on the probability simplex.

    A NaN entry fails both comparisons, so it is rejected by name here, not
    by numpy's sampler later.
    """
    if not (np.all(p >= 0) and np.all(np.abs(p.sum(axis=-1) - 1.0) <= _SIMPLEX_TOL)):
        raise ValueError(f"{name} must lie on the probability simplex, got {p.tolist()}")


@dataclass
class ElementarySpec:
    """K invariant components: per-component class means, diagonal
    covariance, and a label distribution over C classes."""

    class_means: np.ndarray  # (K, C, d)
    cov_diag: np.ndarray  # (K, d)
    label_dist: np.ndarray  # (K, C)

    def __post_init__(self):
        k, c, d = self.class_means.shape
        if self.cov_diag.shape != (k, d) or self.label_dist.shape != (k, c):
            raise ValueError("inconsistent elementary component shapes")
        if not (self.cov_diag > 0).all():
            raise ValueError("covariance entries must be positive")
        _check_simplex("label_dist", self.label_dist)

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
        if self.elementary.n_components == 1:
            # Degenerate single-component benchmarks are allowed for
            # baselines; every mixture is the same point of the simplex.
            return
        sources = [d.alpha for d in self.domains if d.role == "source"]
        for target in (d.alpha for d in self.domains if d.role == "target"):
            gap = min(float(np.abs(target - s).sum()) for s in sources)
            if gap <= _MIN_TARGET_L1_GAP:
                raise ValueError(
                    f"target alpha too close to a source (L1 gap {gap:.3f})"
                )


def sample_domain(spec: DomainSpec, elem: ElementarySpec, seed: int) -> DomainSample:
    """Draw ``n_samples`` rows: component ~ alpha, class ~ component's label
    distribution, features ~ the component/class Gaussian."""
    rng = np.random.default_rng(seed)
    n = spec.n_samples
    tags = rng.choice(elem.n_components, size=n, p=spec.alpha)
    label_cdf = np.cumsum(elem.label_dist, axis=1)
    u = rng.random(n)
    labels = (u[:, None] > label_cdf[tags]).sum(axis=1)
    noise = rng.standard_normal((n, elem.input_dim))
    x = elem.class_means[tags, labels] + noise * np.sqrt(elem.cov_diag[tags])
    return DomainSample(x, labels.astype(np.int64), tags.astype(np.int64))


def _component_frame(n_components, n_classes, input_dim, separation, class_offset):
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
            means[j, y, ax_u] += class_offset * math.cos(angle)
            means[j, y, ax_v] += class_offset * math.sin(angle)
    return means


def make_benchmark(
    n_components: int,
    n_classes: int,
    input_dim: int,
    n_sources: int,
    seed: int,
    separation: float = 10.0,
    class_offset: float = 2.0,
    n_train: int = 400,
    n_val: int = 150,
    n_target: int = 600,
    alpha_concentration: float = 1.0,
    target_weight: float = 0.75,
    label_skew: float = 0.0,
) -> SyntheticBenchmark:
    """Build a benchmark with invariant components and shifted mixtures.

    Source mixing weights are Dirichlet draws; the target concentrates
    ``target_weight`` on the component the sources care about least, and is
    redrawn until it clears the distinctness requirement. ``label_skew``
    tilts each component's label distribution toward one class (the
    conditional-shift knob); zero keeps labels uniform. The counts, sizes
    and ``seed`` must be Python or numpy integers, not bools, and ``seed``
    nonnegative; each real argument must be a real number in its range.
    """
    integers = dict(n_components=n_components, n_classes=n_classes, input_dim=input_dim,
                    n_sources=n_sources, n_train=n_train, n_val=n_val, n_target=n_target)
    for name, value in integers.items():
        _check_int(name, value)
    _check_seed("seed", seed)
    for name, value, holds, need in (
        ("separation", separation, math.isfinite, "finite"),
        ("class_offset", class_offset, math.isfinite, "finite"),
        ("alpha_concentration", alpha_concentration, lambda v: 0 < v < math.inf,
         "finite and positive"),
        ("target_weight", target_weight, lambda v: 0 <= v <= 1, "in [0, 1]"),
        ("label_skew", label_skew, lambda v: 0 <= v < math.inf, "finite and nonnegative"),
    ):
        _check_float(name, value)
        if not holds(value):
            raise ValueError(f"{name} must be {need}, got {value}")
    if n_components < 1 or n_classes < 2 or n_sources < 2:
        raise ValueError("need n_components >= 1, n_classes >= 2, n_sources >= 2")
    rng = np.random.default_rng(seed)
    means = _component_frame(
        n_components, n_classes, input_dim, separation, class_offset
    )
    cov = np.ones((n_components, input_dim))
    label_dist = np.full((n_components, n_classes), 1.0 / n_classes)
    if label_skew != 0.0:
        for j in range(n_components):
            label_dist[j, j % n_classes] += label_skew
        label_dist /= label_dist.sum(axis=1, keepdims=True)
    elem = ElementarySpec(means, cov, label_dist)

    for _ in range(64):
        alphas = rng.dirichlet(np.full(n_components, alpha_concentration), n_sources)
        rare = int(np.argmin(alphas.sum(axis=0)))
        target_alpha = np.full(n_components, (1.0 - target_weight) / n_components)
        target_alpha[rare] += target_weight
        gap = np.abs(target_alpha - alphas).sum(axis=1).min()
        if n_components == 1 or gap > _MIN_TARGET_L1_GAP:
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

    The classifier knows the benchmark's diagonal-Gaussian components, their
    label distributions and the weights ``alpha`` over the K components. It
    predicts the class ``y`` of largest log joint density,
    ``logsumexp_j [log alpha_j + log p_j(y) + log N(x; m_jy, diag(s_j))]``,
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
    with np.errstate(divide="ignore"):
        log_prior = np.log(alpha)[:, None] + np.log(elem.label_dist)  # (K, C)
    # (K, n, C): each component's log joint density of every row and class.
    log_joint = np.empty((elem.n_components, len(x), elem.n_classes))
    for j in range(elem.n_components):
        var = elem.cov_diag[j]
        diff = x[:, None, :] - elem.class_means[j][None, :, :]
        quad = np.sum(diff * diff / var, axis=-1)
        log_norm = -0.5 * (np.sum(np.log(var)) + elem.input_dim * math.log(2.0 * math.pi))
        log_joint[j] = log_prior[j] + log_norm - 0.5 * quad
    top = np.max(log_joint, axis=0)
    scores = top + np.log(np.sum(np.exp(log_joint - top), axis=0))
    predicted = np.argmax(scores, axis=1)
    return float(np.mean(predicted == np.asarray(sample.y)))
