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
  ``beta_j = <phi(x), mu_j> / ||mu_j||^2`` (no normalization, signs free);
* ``UNIFORM`` - the constant row 1/M, for a layer without bases. This is
  ERM with M heads: the ensemble with its gating ablated.

Every kernel statistic the gate and the regularizers read is a block mean
of one Gaussian Gram over the basis vectors, and each is one tape node
(:func:`gdu.kernel.gram_block_means`,
:func:`gdu.kernel.gram_diagonal_block_means`) that reads the (M, N, e)
bases as they are and hands their gradient back in that shape. The gate,
from those inner products through the similarity and the kernel softmax,
is one more node (``_gate_from_inners``). The forward pass is the gate-weighted ensemble of
the machines' outputs, run as one matmul over the stacked machine weights
viewed as one (e, M*C) matrix, and is one node too (:func:`forward_batch`).
Each of these nodes has a closed-form backward, and its forward runs the
same numpy operations for arrays and tensors. The UNIFORM gate is a constant
array and never a tape node. The machines of a layer share one activation.
These functions accept numpy arrays or autodiff tensors, so the same code
serves inference and gradient-based training; :class:`LearningMachine`
views are for arrays only.

There is one path in: :func:`gate_matrix` gates a (b, e) feature batch
sample by sample, and :func:`forward_batch` runs the ensemble on it. A
single sample is a batch of one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .kernel import KernelConfig, gram_block_means, gram_diagonal_block_means

__all__ = [
    "GATING_MODES",
    "UNIFORM",
    "GEOMETRY_MODES",
    "ACTIVATIONS",
    "LearningMachine",
    "GduLayer",
    "gate_matrix",
    "forward_batch",
    "init_layer",
]

GEOMETRY_MODES = ("CS", "MMD")
GATING_MODES = GEOMETRY_MODES + ("PROJECTION",)
UNIFORM = "UNIFORM"  # the constant 1/M gate; not in GATING_MODES, whose gates read bases
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
        """The head's output for arrays; the tape runs the layer as one node."""
        out = x @ self.weights + self.bias
        if self.activation == "tanh":
            out = np.tanh(out)
        return out


@dataclass
class GduLayer:
    """M domain bases, M learning machines, and the gating configuration.

    The parameters are three stacked arrays (numpy arrays or autodiff
    tensors):

    * ``bases``, shape (M, N, e): ``bases[j]`` holds the N vectors of basis j.
      A ``UNIFORM`` layer has none (``bases=None``) and needs no kernel;
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
    kernel: KernelConfig | None
    mode: str
    kappa: float | None = None
    activation: str = "identity"

    def __post_init__(self):
        if self.mode not in GATING_MODES + (UNIFORM,):
            raise ValueError(f"unknown gating mode {self.mode!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.kappa is not None and self.mode not in GEOMETRY_MODES:
            raise ValueError(f"a {self.mode} layer takes no kappa, got kappa={self.kappa}")
        w, b = ad.value_of(self.weights).shape, ad.value_of(self.bias).shape
        if len(w) != 3 or min(w) < 1 or b != w[1:]:
            raise ValueError(
                f"weights must be a nonempty (e, M, C) array and bias (M, C); "
                f"got weights {w}, bias {b}"
            )
        e, m, _ = w
        if self.mode == UNIFORM:
            if self.bases is not None or self.kernel is not None:
                raise ValueError(
                    "a UNIFORM layer has no bases and no kernel; pass bases=None, kernel=None"
                )
            return
        if self.kernel is None:
            raise ValueError(f"a {self.mode} layer needs a kernel, got kernel=None")
        v = ad.value_of(self.bases)
        if v.ndim != 3 or min(v.shape) < 1:
            raise ValueError(f"bases must form a nonempty (M, N, e) array, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("basis vectors must be finite")
        if (v.shape[0], v.shape[2]) != (m, e):
            raise ValueError(
                f"for weights {w}, bases must be (M, N, e) = ({m}, N, {e}); got {v.shape}"
            )
        if self.mode in GEOMETRY_MODES:
            if self.kappa is None or not (math.isfinite(self.kappa) and self.kappa > 0):
                raise ValueError(f"geometry modes need a finite kappa > 0, got {self.kappa}")

    @property
    def num_bases(self) -> int:
        return ad.value_of(self.weights).shape[1]

    @property
    def basis_size(self) -> int:
        return ad.value_of(self.bases).shape[1]

    @property
    def feature_dim(self) -> int:
        return ad.value_of(self.weights).shape[0]

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


def _stacked_bases(layer: GduLayer):
    """The (M, N, e) bases, read by the kernel as M*N rows, and N.

    A UNIFORM layer raises.
    """
    if layer.bases is None:
        raise ValueError(f"a {layer.mode} layer has no bases to embed")
    return layer.bases, layer.basis_size


def basis_gram_matrix(layer: GduLayer):
    """Pairwise basis-embedding inner products, shape (M, M).

    ``K[i, j] = <mu_i, mu_j>``, the mean of the (i, j) block of the kernel
    matrix over the stacked basis vectors.
    """
    vectors, n = _stacked_bases(layer)
    return gram_block_means(vectors, vectors, layer.kernel, n, n)


def _basis_inners(X, layer: GduLayer):
    """Per-sample embedding inner products against every basis.

    Returns ``(a, norms)`` with ``a[i, j] = <phi(x_i), mu_j>`` of shape
    (b, M) and ``norms[j] = ||mu_j||^2`` of shape (M,). The norms come from
    the M diagonal (N, N) blocks only, not from the diagonal of
    :func:`basis_gram_matrix`, which would cost (M*N)^2 kernel entries on
    every gate evaluation.
    """
    vectors, n = _stacked_bases(layer)
    a = gram_block_means(X, vectors, layer.kernel, 1, n)
    return a, gram_diagonal_block_means(vectors, layer.kernel, n)


def _gate_from_inners(a, norms, mode, kappa):
    """Gating rows from embedding inner products, as one tape node.

    ``a[i, j] = <phi(x_i), mu_j>`` (b, M) and ``norms[j] = ||mu_j||^2`` (M,);
    ``||phi(x_i)||^2 = k(x_i, x_i) = 1`` under the Gaussian kernel. The rows are

    * ``PROJECTION``: ``a / norms``;
    * ``CS``: the kappa-softmax of ``H = a / sqrt(norms)``;
    * ``MMD``: the kappa-softmax of ``H = -(1 - 2 a + norms)``;

    where the row-wise softmax subtracts each row's maximum first. The
    forward runs these numpy operations in this order for arrays and tensors
    alike. Arrays in give an array out; a tensor operand gives one node. Its
    backward takes the output gradient ``g`` to ``gH = kappa * beta * (g -
    <beta, g>)`` per row, then to the operands: for CS ``ga = gH /
    sqrt(norms)`` and ``gn = -sum_i(gH * H) / (2 norms)``; for MMD ``ga =
    2 gH`` and ``gn = -sum_i(gH)``.
    """
    av, nv = ad.value_of(a), ad.value_of(norms)
    n_row = nv.reshape(1, -1)
    if mode == "PROJECTION":
        out = av / n_row
    else:
        if mode == "CS":
            denom = np.sqrt(n_row)
            h = av / denom
        else:
            h = -(1.0 - 2.0 * av + n_row)
        z = h * kappa
        z = z - np.max(z, axis=1, keepdims=True)
        e = np.exp(z)
        out = e / np.sum(e, axis=1, keepdims=True)
    parents = tuple(t for t in (a, norms) if ad.is_tensor(t))
    if not parents:
        return out

    def bw(g):
        if mode == "PROJECTION":
            ga = g / n_row
            gn = -np.sum(ga * out, axis=0)
        else:
            gh = kappa * out * (g - np.sum(out * g, axis=1, keepdims=True))
            if mode == "CS":
                ga = gh / denom
                gn = -np.sum(gh * h, axis=0) / (2.0 * nv)
            else:
                ga = 2.0 * gh
                gn = -np.sum(gh, axis=0)
        if ad.is_tensor(a):
            a._accumulate(ga)
        if ad.is_tensor(norms):
            norms._accumulate(gn)

    return ad.Tensor(out, parents, bw)


def _inners_and_gate(X, layer: GduLayer):
    """``(a, beta)``: the inner products of :func:`_basis_inners` and the gate.

    For a UNIFORM layer ``a`` is None and ``beta`` the constant array of 1/M rows.
    """
    if layer.mode == UNIFORM:
        m = layer.num_bases
        return None, np.full((ad.value_of(X).shape[0], m), 1.0 / m)
    a, norms = _basis_inners(X, layer)
    return a, _gate_from_inners(a, norms, layer.mode, layer.kappa)


def gate_matrix(X, layer: GduLayer):
    """Per-sample gating weights for a feature batch, shape (b, M).

    Geometry and UNIFORM modes produce positive rows summing to one;
    projection mode returns raw projection coefficients. ``||phi(x)||^2 =
    k(x, x) = 1`` for the Gaussian kernel, so no per-sample norm is needed.
    """
    return _inners_and_gate(X, layer)[1]


def forward_batch(X, layer: GduLayer, beta=None):
    """Ensemble prediction for a feature batch, shape (b, C).

    ``beta`` overrides the gate (e.g. constant 1/M rows give the UNIFORM
    ensemble); by default per-sample gating is used. All M machines run as
    one matmul against their weights viewed as (e, M*C), plus the bias and
    the activation; the (b, M, C) outputs ``O`` are then summed with weights
    ``beta`` by one ``einsum`` over the machine axis.

    Arrays in give an array out; a tensor among ``X``, the layer's weights
    and bias, and ``beta`` gives one tape node. Its backward, for the output
    gradient ``g``: ``g_beta[i, j] = <O[i, j], g[i]>``, and the
    pre-activation gradient ``P = beta[i, j] * g[i]`` (times ``1 - O^2``
    under tanh) gives ``X^T P``, ``sum_i P`` and ``P W^T`` for the weights,
    the bias and ``X``.
    """
    if beta is None:
        beta = gate_matrix(X, layer)
    weights, bias = layer.weights, layer.bias
    Xv, Wv, bv, beta_v = (ad.value_of(t) for t in (X, weights, bias, beta))
    W = Wv.reshape(layer.feature_dim, -1)
    out = Xv @ W + bv.reshape(-1)
    tanh = layer.activation == "tanh"
    if tanh:
        out = np.tanh(out)
    b, m = Xv.shape[0], layer.num_bases
    out = out.reshape(b, m, layer.n_outputs)
    y = np.einsum("bm,bmc->bc", beta_v.reshape(b, m), out)
    parents = tuple(t for t in (X, weights, bias, beta) if ad.is_tensor(t))
    if not parents:
        return y

    def bw(g):
        g_row = g[:, None, :]
        if ad.is_tensor(beta):
            beta._accumulate(np.sum(out * g_row, axis=2).reshape(beta_v.shape))
        P = beta_v.reshape(b, m, 1) * g_row
        if tanh:
            P = P * (1.0 - out * out)
        P = P.reshape(b, -1)
        if ad.is_tensor(weights):
            weights._accumulate((Xv.T @ P).reshape(Wv.shape))
        if ad.is_tensor(bias):
            bias._accumulate(np.sum(P, axis=0).reshape(bv.shape))
        if ad.is_tensor(X):
            X._accumulate(P @ W.T)

    return ad.Tensor(y, parents, bw)


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
    weights, bias = _init_machines(rng, num_bases, feature_dim, n_outputs)
    return GduLayer(bases, weights, bias, kernel, mode, kappa, activation)


def _init_machines(rng, m: int, e: int, c: int) -> tuple:
    """Fan-in uniform weights (e, M, C), drawn machine by machine, and zero biases (M, C)."""
    bound = 1.0 / math.sqrt(e)
    weights = rng.uniform(-bound, bound, size=(m, e, c))
    return np.ascontiguousarray(weights.transpose(1, 0, 2)), np.zeros((m, c))
