"""The gated domain layer.

A layer holds M elementary domain bases (each a set of N vectors whose
empirical kernel mean embedding stands in for one latent elementary
distribution), M affine learning machines, and a gating rule. The bases and the
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
of a Gaussian Gram against the basis vectors. One tape node,
:func:`gdu.kernel._kernel_statistics`, gives a step all of them
(:func:`_basis_inners`): the inner products, the basis norms and, when its
regularizers read it, the basis Gram. Without the basis Gram it evaluates
only the M diagonal (N, N) blocks of the bases' Gram; with it, all three
come from one Gram, and :func:`basis_gram_matrix` shares its reduction.
It reads the (M, N, e) bases as they are and hands their gradient back in
that shape. The gate, from those inner products through the similarity
and the kernel softmax, is one more node (``_gate_from_inners``). The
forward pass is the gate-weighted ensemble of the machines' outputs, run
as one matmul over the stacked machine weights viewed as one (e, M*C)
matrix, and is one node too (:func:`forward_batch`).
Each of these nodes has a closed-form backward, and its forward runs the
same numpy operations for arrays and tensors. Reductions over a row of M
gates or C classes run column by column (:func:`_row_max`,
:func:`_row_sum`), bit for bit numpy's own and many times faster on rows
this short. The UNIFORM gate is a constant array and never a tape node.
These functions accept numpy arrays or autodiff tensors, so the same code
serves inference and gradient-based training; :func:`basis_gram_matrix`
and :class:`LearningMachine` views are for arrays only.

There is one path in: :func:`gate_matrix` gates a (b, e) feature batch
sample by sample, and :func:`forward_batch` runs the ensemble on it. A
single sample is a batch of one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .kernel import (
    KernelConfig,
    _array_rows,
    _block_means,
    _check_feature_dims,
    _check_float,
    _check_int,
    _check_rows,
    _check_seed,
    _gaussian_gram,
    _kernel_statistics,
)

__all__ = [
    "GATING_MODES",
    "UNIFORM",
    "GEOMETRY_MODES",
    "LearningMachine",
    "GduLayer",
    "gate_matrix",
    "forward_batch",
    "init_layer",
]

GEOMETRY_MODES = ("CS", "MMD")
GATING_MODES = GEOMETRY_MODES + ("PROJECTION",)
UNIFORM = "UNIFORM"  # the constant 1/M gate; not in GATING_MODES, whose gates read bases

# Basis init targets a mean cross-basis kernel value comfortably below 0.1
# so freshly initialized embeddings start close to mutually orthogonal.
_INIT_KERNEL_TARGET = 0.1
_INIT_SPREAD_MARGIN = 1.25

# numpy's pairwise summation adds fewer than 8 terms left to right from +0.0
# and from 8 on splits them over 8 accumulators. This is numpy's boundary,
# not a tuning knob: below it a column-by-column sum is bit-identical.
_NUMPY_PAIRWISE_BLOCK = 8


def _row_max(a):
    """``np.max(a, axis=-1, keepdims=True)``, bit for bit, as a fold over columns.

    ``np.max`` over a short last axis costs many times a pass per column.
    ``np.maximum`` is exact at any width and gives NaN where ``np.max`` does.
    Where +0.0 and -0.0 tie for a row's maximum, ``np.max`` on a row wider
    than one SIMD register may return the other zero; subtracting either
    leaves every exp, and so the softmax and the loss, unchanged.
    """
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(out, a[..., j], out=out)
    return out[..., None]


def _row_sum(a):
    """``np.sum(a, axis=-1, keepdims=True)``, bit for bit, column by column.

    Below ``_NUMPY_PAIRWISE_BLOCK`` terms numpy sums left to right from +0.0;
    starting from ``a[..., 0] + 0.0`` keeps the sign of a zero sum as numpy
    has it. Wider rows go to ``np.sum``. Neither fixes which NaN a row with
    several sums to.
    """
    if a.shape[-1] >= _NUMPY_PAIRWISE_BLOCK:
        return np.sum(a, axis=-1, keepdims=True)
    out = a[..., 0] + 0.0
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out[..., None]


@dataclass
class LearningMachine:
    """Affine head ``x @ weights + bias`` with e inputs and C outputs."""

    weights: object
    bias: object

    def __post_init__(self):
        w = ad.value_of(self.weights)
        b = ad.value_of(self.bias)
        if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
            raise ValueError(
                f"inconsistent machine shapes: weights {w.shape}, bias {b.shape}"
            )

    def __call__(self, x):
        """The head's output for arrays; the tape runs the layer as one node."""
        return x @ self.weights + self.bias


@dataclass
class GduLayer:
    """M domain bases, M learning machines, and the gating configuration.

    The parameters are three stacked arrays (numpy arrays or autodiff
    tensors):

    * ``bases``, shape (M, N, e): ``bases[j]`` holds the N vectors of basis j.
      A ``UNIFORM`` layer has none (``bases=None``) and needs no kernel;
    * ``weights``, shape (e, M, C): machine j computes
      ``x @ weights[:, j] + bias[j]``. With this axis order
      ``reshape(weights, (e, M*C))`` is a view whose column blocks are the
      machines' weight matrices side by side;
    * ``bias``, shape (M, C).
    """

    bases: object
    weights: object
    bias: object
    kernel: KernelConfig | None
    mode: str
    kappa: float | None = None

    def __post_init__(self):
        if self.mode not in GATING_MODES + (UNIFORM,):
            raise ValueError(f"unknown gating mode {self.mode!r}")
        if self.kappa is not None:
            _check_float("kappa", self.kappa)
            if self.mode not in GEOMETRY_MODES:
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
        if (v.shape[0], v.shape[2]) != (m, e):
            raise ValueError(
                f"for weights {w}, bases must be (M, N, e) = ({m}, N, {e}); got {v.shape}"
            )
        _check_rows(v.reshape(-1, e), "GduLayer bases")
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
        return tuple(LearningMachine(self.weights[:, j], self.bias[j]) for j in range(self.num_bases))


def _check_width(X, layer: GduLayer):
    """Raise :class:`gdu.kernel.DimensionMismatchError` unless X's rows have e features."""
    _check_feature_dims("X", ad.value_of(X).shape[-1], "the layer's input", layer.feature_dim)


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
    matrix over the stacked basis vectors, reduced as a training step's
    :func:`_basis_inners` reduces it. Arrays only.
    """
    vectors, n = _stacked_bases(layer)
    rows = _array_rows(vectors)
    return _block_means(_gaussian_gram(rows, rows, layer.kernel.sigma), n)


def _basis_inners(X, layer: GduLayer, gram: bool = False):
    """Per-sample embedding inner products against every basis, and the norms.

    Returns ``(a, norms, k_bases)`` with ``a[i, j] = <phi(x_i), mu_j>`` of
    shape (b, M) and ``norms[j] = ||mu_j||^2`` of shape (M,), from one
    :func:`gdu.kernel._kernel_statistics` node on tensors. Without ``gram``
    the norms come from the M diagonal (N, N) blocks only, not from the
    diagonal of :func:`basis_gram_matrix`, which would cost (M*N)^2 kernel
    entries on every gate evaluation, and ``k_bases`` is None. With
    ``gram`` a step that reads the basis Gram gets all three, ``k_bases``
    as :func:`basis_gram_matrix`, from one Gaussian Gram.
    """
    vectors, n = _stacked_bases(layer)
    return _kernel_statistics(X, vectors, layer.kernel, n, gram)


def _gate_from_inners(a, norms, mode, kappa):
    """Gating rows from embedding inner products, as one tape node.

    ``a[i, j] = <phi(x_i), mu_j>`` (b, M) and ``norms[j] = ||mu_j||^2`` (M,);
    ``||phi(x_i)||^2 = k(x_i, x_i) = 1`` under the Gaussian kernel. The rows are

    * ``PROJECTION``: ``a / norms``;
    * ``CS``: the kappa-softmax of ``H = a / sqrt(norms)``;
    * ``MMD``: the kappa-softmax of ``H = -(1 - 2 a + norms)``;

    where the row-wise softmax subtracts each row's maximum first. The
    forward runs these numpy operations in this order for arrays and tensors
    alike; the softmax's row maximum and row sum run column by column,
    bit-identical to numpy's. Arrays in give an array out; a tensor operand
    gives one node. Its backward takes the output gradient ``g`` to ``gH =
    kappa * beta * (g - <beta, g>)`` per row, then to the operands: for CS
    ``ga = gH / sqrt(norms)`` and ``gn = -sum_i(gH * H) / (2 norms)``; for
    MMD ``ga = 2 gH`` and ``gn = -sum_i(gH)``.
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
        z = z - _row_max(z)
        e = np.exp(z)
        out = e / _row_sum(e)
    parents = tuple(t for t in (a, norms) if ad.is_tensor(t))
    if not parents:
        return out

    def bw(g):
        if mode == "PROJECTION":
            ga = g / n_row
            gn = -np.sum(ga * out, axis=0)
        else:
            gh = kappa * out * (g - _row_sum(out * g))
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


def _inners_and_gate(X, layer: GduLayer, gram: bool = False):
    """``(a, beta, k_bases)``: the statistics of :func:`_basis_inners` and the gate.

    ``k_bases`` is the basis Gram with ``gram`` and None otherwise. For a
    UNIFORM layer ``a`` and ``k_bases`` are None and ``beta`` the constant
    array of 1/M rows.
    """
    _check_width(X, layer)
    if layer.mode == UNIFORM:
        m = layer.num_bases
        return None, np.full((ad.value_of(X).shape[0], m), 1.0 / m), None
    a, norms, k_bases = _basis_inners(X, layer, gram)
    return a, _gate_from_inners(a, norms, layer.mode, layer.kappa), k_bases


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
    ensemble); by default per-sample gating is used. X of another width than
    the layer's raises :class:`gdu.kernel.DimensionMismatchError`, and a
    ``beta`` that is not (b, M) a ValueError that names its shape, before
    anything is computed. All M machines run as one matmul against their
    weights viewed as (e, M*C), plus the bias; the (b, M, C) outputs ``O``
    are then summed with weights ``beta`` by one ``einsum`` over the machine
    axis. The backward's sums over the C outputs run column by column,
    bit-identical to numpy's.

    Arrays in give an array out; a tensor among ``X``, the layer's weights
    and bias, and ``beta`` gives one tape node. Its backward, for the output
    gradient ``g``: ``g_beta[i, j] = <O[i, j], g[i]>``, and the machines'
    output gradient ``P = beta[i, j] * g[i]`` gives ``X^T P``, ``sum_i P``
    and ``P W^T`` for the weights, the bias and ``X``.
    """
    _check_width(X, layer)
    if beta is None:
        beta = gate_matrix(X, layer)
    weights, bias = layer.weights, layer.bias
    Xv, Wv, bv, beta_v = (ad.value_of(t) for t in (X, weights, bias, beta))
    b, m = Xv.shape[0], layer.num_bases
    if beta_v.shape != (b, m):
        raise ValueError(f"beta shape {beta_v.shape} does not match batch {b} x {m} bases")
    W = Wv.reshape(layer.feature_dim, -1)
    out = (Xv @ W + bv.reshape(-1)).reshape(b, m, layer.n_outputs)
    y = np.einsum("bm,bmc->bc", beta_v, out)
    parents = tuple(t for t in (X, weights, bias, beta) if ad.is_tensor(t))
    if not parents:
        return y

    def bw(g):
        g_row = g[:, None, :]
        if ad.is_tensor(beta):
            beta._accumulate(_row_sum(out * g_row).reshape(b, m))
        P = (beta_v[:, :, None] * g_row).reshape(b, -1)
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
) -> GduLayer:
    """Construct a layer with randomly initialized bases and machines.

    Deterministic in ``seed``. Basis vectors are zero-mean Gaussian with the
    spread from :func:`basis_init_scale`; machine weights are symmetric
    uniform with fan-in scaling and zero biases.
    """
    sizes = dict(num_bases=num_bases, basis_size=basis_size, feature_dim=feature_dim,
                 n_outputs=n_outputs)
    for name, value in sizes.items():
        _check_int(name, value)
    _check_seed("seed", seed)
    if min(num_bases, basis_size, feature_dim, n_outputs) < 1:
        raise ValueError("all layer dimensions must be positive")
    if mode == UNIFORM:
        raise ValueError(
            "init_layer draws bases, and a UNIFORM layer has none; "
            "make an ERM model with training.init_erm_model"
        )
    if kernel is None:
        raise ValueError("init_layer scales the bases to the kernel, got kernel=None")
    rng = np.random.default_rng(seed)
    scale = basis_init_scale(feature_dim, kernel.sigma)
    bases = rng.normal(0.0, scale, size=(num_bases, basis_size, feature_dim))
    weights, bias = _init_machines(rng, num_bases, feature_dim, n_outputs)
    return GduLayer(bases, weights, bias, kernel, mode, kappa)


def _init_machines(rng, m: int, e: int, c: int) -> tuple:
    """Fan-in uniform weights (e, M, C), drawn machine by machine, and zero biases (M, C)."""
    bound = 1.0 / math.sqrt(e)
    weights = rng.uniform(-bound, bound, size=(m, e, c))
    return np.ascontiguousarray(weights.transpose(1, 0, 2)), np.zeros((m, c))
