"""The gated domain layer.

A layer holds M elementary domain bases (each a set of N vectors whose
empirical kernel mean embedding stands in for one latent elementary
distribution), M learning machines, and a gating rule. Gating compares a
sample's feature map against each basis embedding:

* ``CS``   - RKHS cosine similarity, passed through a kernel softmax,
* ``MMD``  - negative squared RKHS distance, passed through a kernel softmax,
* ``PROJECTION`` - closed-form projection coefficients
  ``beta_j = <phi(x), mu_j> / ||mu_j||^2`` (no normalization, signs free).

Every kernel statistic the gate and the regularizers read is a block mean
of one Gaussian Gram over the stacked basis vectors, and each is one tape
node (:func:`gdu.kernel.gram_block_means`,
:func:`gdu.kernel.gram_diagonal_block_means`). The forward pass is the
gate-weighted ensemble of the machines' outputs, run as one matmul over the
concatenated machine weights. The machines of a layer share one activation.
All computations accept numpy arrays or autodiff tensors, so the same code
serves inference and gradient-based training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .kernel import KernelConfig, gram_block_means, gram_diagonal_block_means

__all__ = [
    "GATING_MODES",
    "GEOMETRY_MODES",
    "ACTIVATIONS",
    "DomainBasis",
    "LearningMachine",
    "GduLayer",
    "GatingWeights",
    "gate",
    "gate_batch",
    "gate_matrix",
    "forward",
    "forward_batch",
    "init_layer",
]

GEOMETRY_MODES = ("CS", "MMD")
GATING_MODES = GEOMETRY_MODES + ("PROJECTION",)
ACTIVATIONS = ("identity", "tanh")

# Basis init targets a mean cross-basis kernel value comfortably below 0.1
# so freshly initialized embeddings start close to mutually orthogonal.
_INIT_KERNEL_TARGET = 0.1
_INIT_SPREAD_MARGIN = 1.25


@dataclass
class DomainBasis:
    """The N x e matrix of vectors defining one elementary domain basis."""

    vectors: object

    def __post_init__(self):
        v = ad.value_of(self.vectors)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError(f"basis vectors must form an (N, e) matrix, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("basis vectors must be finite")


@dataclass
class LearningMachine:
    """Affine head ``act(x @ weights + bias)`` with e inputs and C outputs."""

    weights: object
    bias: object
    activation: str = "identity"

    def __post_init__(self):
        w = ad.value_of(self.weights)
        b = ad.value_of(self.bias)
        if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
            raise ValueError(
                f"inconsistent machine shapes: weights {w.shape}, bias {b.shape}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    def __call__(self, x):
        out = x @ self.weights + self.bias
        if self.activation == "tanh":
            out = ad.tanh(out)
        return out


@dataclass
class GduLayer:
    """M domain bases, M learning machines, and the gating configuration."""

    bases: list
    machines: list
    kernel: KernelConfig
    mode: str
    kappa: float | None = None

    def __post_init__(self):
        if self.mode not in GATING_MODES:
            raise ValueError(f"unknown gating mode {self.mode!r}")
        if len(self.bases) < 1 or len(self.bases) != len(self.machines):
            raise ValueError(
                f"need matching nonempty bases/machines, got "
                f"{len(self.bases)}/{len(self.machines)}"
            )
        dims = {ad.value_of(b.vectors).shape for b in self.bases}
        if len(dims) != 1:
            raise ValueError(f"all bases must share (N, e), got {sorted(dims)}")
        mdims = {
            (ad.value_of(m.weights).shape, ad.value_of(m.bias).shape[0])
            for m in self.machines
        }
        if len(mdims) != 1:
            raise ValueError("all machines must share weight/bias shapes")
        acts = {m.activation for m in self.machines}
        if len(acts) != 1:
            raise ValueError(f"all machines must share one activation, got {sorted(acts)}")
        ((wshape, _),) = mdims
        if wshape[0] != self.feature_dim:
            raise ValueError(
                f"machine input dim {wshape[0]} != basis feature dim {self.feature_dim}"
            )
        if self.mode in GEOMETRY_MODES:
            if self.kappa is None or not self.kappa > 0:
                raise ValueError(f"geometry modes need kappa > 0, got {self.kappa}")

    @property
    def num_bases(self) -> int:
        return len(self.bases)

    @property
    def basis_size(self) -> int:
        return ad.value_of(self.bases[0].vectors).shape[0]

    @property
    def feature_dim(self) -> int:
        return ad.value_of(self.bases[0].vectors).shape[1]

    @property
    def n_outputs(self) -> int:
        return ad.value_of(self.machines[0].bias).shape[0]


@dataclass
class GatingWeights:
    """Per-sample gating rows, shape (b, M)."""

    beta: object

    def __post_init__(self):
        if ad.value_of(self.beta).ndim != 2:
            raise ValueError("beta must be a (b, M) matrix")


def _as_beta_array(beta):
    if isinstance(beta, GatingWeights):
        beta = beta.beta
    return beta


def _stacked_bases(layer: GduLayer):
    """All basis vectors as one (M*N, e) matrix, basis after basis."""
    return ad.concatenate([b.vectors for b in layer.bases], axis=0)


def basis_gram_matrix(layer: GduLayer):
    """Pairwise basis-embedding inner products, shape (M, M).

    ``K[i, j] = <mu_i, mu_j>``, the mean of the (i, j) block of the kernel
    matrix over the stacked basis vectors.
    """
    vectors = _stacked_bases(layer)
    n = layer.basis_size
    return gram_block_means(vectors, vectors, layer.kernel, n, n)


def _basis_inners(X, layer: GduLayer):
    """Per-sample embedding inner products against every basis.

    Returns ``(a, norms)`` with ``a[i, j] = <phi(x_i), mu_j>`` of shape
    (b, M) and ``norms[j] = ||mu_j||^2`` of shape (M,). The norms come from
    the M diagonal (N, N) blocks only, not from the diagonal of
    :func:`basis_gram_matrix`, which would cost (M*N)^2 kernel entries on
    every gate evaluation.
    """
    vectors = _stacked_bases(layer)
    n = layer.basis_size
    a = gram_block_means(X, vectors, layer.kernel, 1, n)
    return a, gram_diagonal_block_means(vectors, layer.kernel, n)


def _gate_from_inners(a, norms, mode, kappa):
    """Gating rows from precomputed embedding inner products."""
    if mode == "PROJECTION":
        return a / ad.reshape(norms, (1, -1))
    h = _similarity(a, norms, 1.0, mode)
    return _kernel_softmax(h, kappa)


def _kernel_softmax(scores, kappa):
    """Row-wise softmax of ``kappa * scores`` with max-subtraction."""
    z = scores * kappa
    z = z - ad.detach(ad.amax(z, axis=1, keepdims=True))
    e = ad.exp(z)
    return e / ad.summation(e, axis=1, keepdims=True)


def _similarity(a, norms, self_norm_sq, mode):
    """Similarity scores H between embeddings and each basis embedding."""
    if mode == "CS":
        return a / ad.sqrt(self_norm_sq * ad.reshape(norms, (1, -1)))
    # MMD: negative squared RKHS distance.
    return -(self_norm_sq - 2.0 * a + ad.reshape(norms, (1, -1)))


def gate_matrix(X, layer: GduLayer):
    """Per-sample gating weights for a feature batch, shape (b, M).

    Geometry modes produce positive rows summing to one; projection mode
    returns raw projection coefficients. ``||phi(x)||^2 = k(x, x) = 1``
    for the Gaussian kernel, so no per-sample norm is needed.
    """
    a, norms = _basis_inners(X, layer)
    return _gate_from_inners(a, norms, layer.mode, layer.kappa)


def gate(x, layer: GduLayer):
    """Gating weights for a single feature vector, shape (M,)."""
    X = ad.reshape(x, (1, -1))
    return ad.reshape(gate_matrix(X, layer), (-1,))


def gate_batch(X, layer: GduLayer):
    """One shared gating row for a whole batch, via the batch mean embedding.

    Replaces the single feature map with ``mu = (1/b) sum_l phi(x_l)`` in the
    similarity (geometry modes) or in the projection numerator.
    """
    if ad.value_of(X).shape[0] < 1:
        raise ValueError("gate_batch needs a nonempty batch")
    a, norms = _basis_inners(X, layer)
    a_batch = ad.mean(a, axis=0, keepdims=True)  # <mu_batch, mu_j>
    if layer.mode == "PROJECTION":
        return ad.reshape(a_batch / ad.reshape(norms, (1, -1)), (-1,))
    self_norm = gram_diagonal_block_means(X, layer.kernel, ad.value_of(X).shape[0])
    h = _similarity(a_batch, norms, self_norm, layer.mode)
    return ad.reshape(_kernel_softmax(h, layer.kappa), (-1,))


def forward_batch(X, layer: GduLayer, beta=None):
    """Ensemble prediction for a feature batch, shape (b, C).

    ``beta`` overrides the gate (e.g. constant 1/M rows reproduce a uniform
    ensemble); by default per-sample gating is used. All M machines run as
    one matmul against their weights concatenated to (e, M*C); the (b, M, C)
    outputs are then summed with weights ``beta``.
    """
    if beta is None:
        beta = gate_matrix(X, layer)
    beta = _as_beta_array(beta)
    machines = layer.machines
    weights = ad.concatenate([m.weights for m in machines], axis=1)
    bias = ad.concatenate([m.bias for m in machines], axis=0)
    out = X @ weights + bias
    if machines[0].activation == "tanh":
        out = ad.tanh(out)
    b = ad.value_of(X).shape[0]
    out = ad.reshape(out, (b, layer.num_bases, layer.n_outputs))
    return ad.summation(ad.reshape(beta, (b, layer.num_bases, 1)) * out, axis=1)


def forward(x, layer: GduLayer, beta=None):
    """Ensemble prediction for a single feature vector, shape (C,)."""
    X = ad.reshape(x, (1, -1))
    if beta is not None:
        beta = ad.reshape(_as_beta_array(beta), (1, -1))
    return ad.reshape(forward_batch(X, layer, beta=beta), (-1,))


def basis_init_scale(feature_dim: int, sigma: float) -> float:
    """Per-coordinate std for basis init.

    For two vectors drawn iid N(0, s^2 I_e), the expected kernel value is
    ``(1 + 2 s^2 / sigma^2)^(-e/2)``; the scale is chosen so that this
    expectation sits below 0.1 with some margin.
    """
    base = (_INIT_KERNEL_TARGET ** (-2.0 / feature_dim) - 1.0) / 2.0
    return sigma * math.sqrt(base * _INIT_SPREAD_MARGIN)


def init_layer(
    num_bases: int,
    basis_size: int,
    feature_dim: int,
    n_outputs: int,
    seed: int,
    mode: str,
    kernel: KernelConfig,
    kappa: float | None = None,
    activation: str = "identity",
) -> GduLayer:
    """Construct a layer with randomly initialized bases and machines.

    Deterministic in ``seed``. Basis vectors are zero-mean Gaussian with the
    spread from :func:`basis_init_scale`; machine weights are symmetric
    uniform with fan-in scaling and zero biases.
    """
    if min(num_bases, basis_size, feature_dim, n_outputs) < 1:
        raise ValueError("all layer dimensions must be positive")
    rng = np.random.default_rng(seed)
    scale = basis_init_scale(feature_dim, kernel.sigma)
    bases = [
        DomainBasis(rng.normal(0.0, scale, size=(basis_size, feature_dim)))
        for _ in range(num_bases)
    ]
    bound = 1.0 / math.sqrt(feature_dim)
    machines = [
        LearningMachine(
            rng.uniform(-bound, bound, size=(feature_dim, n_outputs)),
            np.zeros(n_outputs),
            activation,
        )
        for _ in range(num_bases)
    ]
    return GduLayer(bases, machines, kernel, mode, kappa)
