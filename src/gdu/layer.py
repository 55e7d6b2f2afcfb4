"""The gated domain layer.

A layer holds M elementary domain bases (each a set of N vectors whose
empirical kernel mean embedding stands in for one latent elementary
distribution), M learning machines, and a gating rule. The bases and the
machines are stored as stacked arrays, one per parameter kind (see
:class:`GduLayer`). Gating compares a sample's feature map against each basis
embedding:

* ``CS``   - RKHS cosine similarity, passed through a kernel softmax,
* ``MMD``  - negative squared RKHS distance, passed through a kernel softmax,
* ``PROJECTION`` - closed-form projection coefficients
  ``beta_j = <phi(x), mu_j> / ||mu_j||^2`` (no normalization, signs free).

Every kernel statistic the gate and the regularizers read is a block mean
of one Gaussian Gram over the stacked basis vectors, and each is one tape
node (:func:`gdu.kernel.gram_block_means`,
:func:`gdu.kernel.gram_diagonal_block_means`). The forward pass is the
gate-weighted ensemble of the machines' outputs, run as one matmul over the
stacked machine weights viewed as one (e, M*C) matrix. The machines of a
layer share one activation.
All computations accept numpy arrays or autodiff tensors, so the same code
serves inference and gradient-based training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .kernel import KernelConfig, gram_block_means, gram_diagonal_block_means

__all__ = [
    "GATING_MODES",
    "GEOMETRY_MODES",
    "ACTIVATIONS",
    "LearningMachine",
    "GduLayer",
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
    """M domain bases, M learning machines, and the gating configuration.

    The parameters are three stacked arrays (numpy arrays or autodiff
    tensors):

    * ``bases``, shape (M, N, e): ``bases[j]`` holds the N vectors of basis j;
    * ``weights``, shape (e, M, C): machine j computes
      ``act(x @ weights[:, j] + bias[j])``. With this axis order
      ``reshape(weights, (e, M*C))`` is a view whose column blocks are the
      machines' weight matrices side by side;
    * ``bias``, shape (M, C).

    All machines share ``activation``.
    """

    bases: object
    weights: object
    bias: object
    kernel: KernelConfig
    mode: str
    kappa: float | None = None
    activation: str = "identity"

    def __post_init__(self):
        if self.mode not in GATING_MODES:
            raise ValueError(f"unknown gating mode {self.mode!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        v = ad.value_of(self.bases)
        if v.ndim != 3 or min(v.shape) < 1:
            raise ValueError(f"bases must form a nonempty (M, N, e) array, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("basis vectors must be finite")
        m, _, e = v.shape
        w = ad.value_of(self.weights).shape
        b = ad.value_of(self.bias).shape
        if len(b) != 2 or b[0] != m or w != (e, m, b[1]):
            raise ValueError(
                f"for {m} bases of feature dim {e}, weights must be (e, M, C) = "
                f"({e}, {m}, C) and bias (M, C); got weights {w}, bias {b}"
            )
        if self.mode in GEOMETRY_MODES:
            if self.kappa is None or not self.kappa > 0:
                raise ValueError(f"geometry modes need kappa > 0, got {self.kappa}")

    @property
    def num_bases(self) -> int:
        return ad.value_of(self.bases).shape[0]

    @property
    def basis_size(self) -> int:
        return ad.value_of(self.bases).shape[1]

    @property
    def feature_dim(self) -> int:
        return ad.value_of(self.bases).shape[2]

    @property
    def n_outputs(self) -> int:
        return ad.value_of(self.bias).shape[1]

    @property
    def machines(self) -> tuple:
        """The M machines, whose weights and bias are views into the layer.

        Writing into a machine's arrays in place writes into the layer.
        """
        return tuple(
            LearningMachine(self.weights[:, j], self.bias[j], self.activation)
            for j in range(self.num_bases)
        )


def basis_gram_matrix(layer: GduLayer):
    """Pairwise basis-embedding inner products, shape (M, M).

    ``K[i, j] = <mu_i, mu_j>``, the mean of the (i, j) block of the kernel
    matrix over the stacked basis vectors.
    """
    vectors = ad.reshape(layer.bases, (-1, layer.feature_dim))
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
    vectors = ad.reshape(layer.bases, (-1, layer.feature_dim))
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
    one matmul against their weights viewed as (e, M*C); the (b, M, C)
    outputs are then summed with weights ``beta``.
    """
    if beta is None:
        beta = gate_matrix(X, layer)
    weights = ad.reshape(layer.weights, (layer.feature_dim, -1))
    out = X @ weights + ad.reshape(layer.bias, (-1,))
    if layer.activation == "tanh":
        out = ad.tanh(out)
    b = ad.value_of(X).shape[0]
    out = ad.reshape(out, (b, layer.num_bases, layer.n_outputs))
    return ad.summation(ad.reshape(beta, (b, layer.num_bases, 1)) * out, axis=1)


def forward(x, layer: GduLayer, beta=None):
    """Ensemble prediction for a single feature vector, shape (C,)."""
    X = ad.reshape(x, (1, -1))
    if beta is not None:
        beta = ad.reshape(beta, (1, -1))
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
    bases = rng.normal(0.0, scale, size=(num_bases, basis_size, feature_dim))
    bound = 1.0 / math.sqrt(feature_dim)
    # Drawn machine after machine, then stored with the machine axis second.
    weights = rng.uniform(-bound, bound, size=(num_bases, feature_dim, n_outputs))
    weights = np.ascontiguousarray(weights.transpose(1, 0, 2))
    bias = np.zeros((num_bases, n_outputs))
    return GduLayer(bases, weights, bias, kernel, mode, kappa, activation)
