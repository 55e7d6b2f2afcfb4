"""Empirical kernel mean embedding algebra.

An :class:`EmpiricalKme` represents ``mu = (1/n) sum_i k(p_i, .)`` for a set
of points. Inner products, norms, squared MMD, and RKHS cosine similarity
all reduce to means over kernel Gram blocks. A single observation is the
``n = 1`` case, so one code path serves samples, batch embeddings, and
domain bases alike. These functions take and return arrays only; the
training objective reads the same statistics from
:func:`gdu.kernel._kernel_statistics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import DimensionMismatchError, KernelConfig, gram

__all__ = [
    "EmpiricalKme",
    "ConfigMismatchError",
    "kme_inner",
    "kme_norm_sq",
    "mmd_sq",
    "rkhs_cosine",
]

# Squared norms more negative than this indicate a bug, not roundoff.
_MMD_CLAMP_TOL = 1e-12


class ConfigMismatchError(ValueError):
    """Raised when two embeddings disagree on their kernel configuration."""


@dataclass(frozen=True)
class EmpiricalKme:
    """Points (n, e) whose mean feature map defines the embedding."""

    points: np.ndarray  # (n, e)
    cfg: KernelConfig

    def __post_init__(self):
        shape = np.shape(self.points)
        if len(shape) != 2 or shape[0] < 1:
            raise ValueError(f"points must be a nonempty (n, e) matrix, got {shape}")

    @property
    def dim(self) -> int:
        return np.shape(self.points)[1]


def _check_compatible(a: EmpiricalKme, b: EmpiricalKme):
    if a.cfg != b.cfg:
        raise ConfigMismatchError(
            f"kernel configs differ: sigma={a.cfg.sigma} vs sigma={b.cfg.sigma}"
        )
    if a.dim != b.dim:
        raise DimensionMismatchError(
            f"embeddings have dimensions {a.dim} and {b.dim}"
        )


def kme_inner(a: EmpiricalKme, b: EmpiricalKme):
    """RKHS inner product: the mean of the cross Gram block."""
    _check_compatible(a, b)
    return np.mean(gram(a.points, b.points, a.cfg))


def kme_norm_sq(a: EmpiricalKme):
    """Squared RKHS norm ``<mu_a, mu_a>``."""
    return kme_inner(a, a)


def mmd_sq(a: EmpiricalKme, b: EmpiricalKme):
    """Squared maximum mean discrepancy ``<a,a> - 2<a,b> + <b,b>``.

    Tiny negative values from cancellation are clamped to zero; anything
    below ``-1e-12`` raises because a squared norm cannot be negative.
    """
    raw = kme_inner(a, a) - 2.0 * kme_inner(a, b) + kme_inner(b, b)
    if raw < -_MMD_CLAMP_TOL:
        raise ValueError(f"squared MMD evaluated to {raw}, below roundoff tolerance")
    return max(raw, 0.0)


def rkhs_cosine(a: EmpiricalKme, b: EmpiricalKme):
    """Cosine similarity between two embeddings in the RKHS.

    Strictly positive for the Gaussian kernel, and 1 when the embeddings
    coincide.
    """
    inner = kme_inner(a, b)
    return inner / math.sqrt(kme_norm_sq(a) * kme_norm_sq(b))
