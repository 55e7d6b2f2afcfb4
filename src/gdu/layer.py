"""The gated domain layer.

A layer holds M elementary domain bases (each a set of N vectors whose
empirical kernel mean embedding stands in for one latent elementary
distribution), M affine learning machines, and a gating rule. The bases and the
machines are stored as stacked float64 arrays, one per parameter kind, from
construction on (see :class:`GduLayer`): machine j is the column
``weights[:, j]`` with ``bias[j]``. Gating compares a sample's feature map
against each basis embedding:

* ``CS``   - RKHS cosine similarity, passed through a kernel softmax,
* ``MMD``  - negative squared RKHS distance, passed through a kernel softmax,
* ``PROJECTION`` - closed-form projection coefficients
  ``beta_j = <phi(x), mu_j> / ||mu_j||^2`` (no normalization, signs free);
* ``UNIFORM`` - the constant row 1/M, for a layer without bases. This is
  ERM with M heads: the ensemble with its gating ablated.

Every kernel statistic the gate and the regularizers read is a block mean
of a Gaussian Gram against the basis vectors. One function,
:func:`gdu.kernel._kernel_statistics`, gives a step all of them
(:func:`_basis_inners`): the inner products, the basis norms and, when its
regularizers read it, the basis Gram. Its Gram is basis-major: the M*N
basis vectors against the (b, e) batch, (M*N, b), and without the basis
Gram only the M diagonal (N, N) blocks of the bases' Gram besides, both
from one augmented form of the basis vectors; with it, all three come
from one (M*N, b + M*N) Gram of the basis vectors against the batch and
the basis vectors, and :func:`basis_gram_matrix` shares its reduction of
the basis Gram. It augments the batch and the basis vectors once
each, and its backward reads those augmented rows as views. Each inner
product adds a basis's N contiguous rows, and the (b, M) inner products
come out C-ordered.
It reads the (M, N, e) bases as they are and hands their gradient back in
that shape. The gate, from those inner products through the similarity
and the kernel softmax, is one more node (``_gate_from_inners``). The
forward pass is the gate-weighted ensemble of the machines' outputs, run
as one matmul over the stacked machine weights viewed as one (e, M*C)
matrix (``_ensemble``, whose value is :func:`forward_batch`).
Each node is one array forward that also returns its closed-form
backward, a closure over what the forward computed, so inference and a
training step run the same arithmetic; inference drops the closures.
Reductions over a row of M gates or C classes run column by column
(:func:`_row_max`, :func:`_row_sum`), bit for bit numpy's own and many
times faster on rows this short. The UNIFORM gate is a constant: a
training step builds no gate for it, and a one-head UNIFORM layer (one-head
ERM) is its head alone.

There is one path in: :func:`gate_matrix` gates a (b, e) feature batch
sample by sample, and :func:`forward_batch` runs the ensemble on it. A
single sample is a batch of one row. These two are the layer's entry
points, and each checks its input once per call (:func:`_check_width`;
:func:`forward_batch` checks a ``beta`` it is given as well). The nodes
(:func:`_inners_and_gate`, :func:`_ensemble` and the unchecked gate
:func:`_gate`) check nothing: they take X as a float64 (b, e) batch of
the layer's width, as an entry point here or in :mod:`gdu.training`
checked it. :func:`gdu.kernel._kernel_statistics` keeps its own cheap
checks of shape and tiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .kernel import (
    KernelConfig,
    _block_means,
    _check_feature_dims,
    _check_float,
    _check_int,
    _check_rows,
    _check_seed,
    _kernel_statistics,
    gram,
)

__all__ = [
    "GATING_MODES",
    "UNIFORM",
    "GEOMETRY_MODES",
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
    has it. Wider rows go to ``np.add.reduce``, the reduction ``np.sum``
    wraps. Neither fixes which NaN a row with several sums to.
    """
    if a.shape[-1] >= _NUMPY_PAIRWISE_BLOCK:
        return np.add.reduce(a, axis=-1, keepdims=True)
    out = a[..., 0] + 0.0
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out[..., None]


@dataclass
class GduLayer:
    """M domain bases, M learning machines, and the gating configuration.

    The parameters are three stacked float64 arrays, converted once, here,
    with ``np.asarray``, so a float64 array given keeps its identity:

    * ``bases``, shape (M, N, e): ``bases[j]`` holds the N vectors of basis j.
      A ``UNIFORM`` layer has none (``bases=None``) and needs no kernel;
    * ``weights``, shape (e, M, C): machine j computes
      ``x @ weights[:, j] + bias[j]``. With this axis order
      ``reshape(weights, (e, M*C))`` is a view whose column blocks are the
      machines' weight matrices side by side;
    * ``bias``, shape (M, C).
    """

    bases: np.ndarray | None
    weights: np.ndarray
    bias: np.ndarray
    kernel: KernelConfig | None
    mode: str
    kappa: float | None = None

    def __post_init__(self):
        if self.mode not in GATING_MODES + (UNIFORM,):
            raise ValueError(f"unknown gating mode {self.mode!r}")
        if self.kappa is not None:
            self.kappa = _check_float("kappa", self.kappa)
            if self.mode not in GEOMETRY_MODES:
                raise ValueError(f"a {self.mode} layer takes no kappa, got kappa={self.kappa}")
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        w, b = self.weights.shape, self.bias.shape
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
        v = self.bases = np.asarray(self.bases, dtype=np.float64)
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
        return self.weights.shape[1]

    @property
    def basis_size(self) -> int:
        """N, the vectors per basis; a UNIFORM layer has no bases and raises."""
        if self.bases is None:
            raise ValueError(f"a {self.mode} layer has no bases, so no basis size")
        return self.bases.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.bias.shape[1]

    @property
    def machines(self) -> tuple:
        """Machine j as the writable views ``weights[:, j]`` and ``bias[j]``.

        Writing into a machine's arrays in place writes into the layer. Only
        the benchmark's gradient probe reads this; it goes when the probe
        writes ``layer.bias`` itself, with the bench re-declaration that
        deletes the tape and ``rkhs.py``.
        """
        return tuple(SimpleNamespace(weights=self.weights[:, j], bias=self.bias[j])
                     for j in range(self.num_bases))


def _check_width(X, layer: GduLayer):
    """X as a float64 (b, e) batch: a ValueError names the shape of an X that
    is not 2-D, :class:`gdu.kernel.DimensionMismatchError` another e.

    The entry points :func:`gate_matrix` and :func:`forward_batch` call it
    once per call; the nodes below them take X as checked.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be a (b, e) feature batch, got shape {X.shape}")
    _check_feature_dims("X", X.shape[-1], "the layer's input", layer.feature_dim)
    return X


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
    return _block_means(gram(vectors, vectors, layer.kernel), n)


def _basis_inners(X, layer: GduLayer, gram: bool = False):
    """Per-sample embedding inner products against every basis, and the norms.

    Returns ``(a, norms, k_bases, back)`` of
    :func:`gdu.kernel._kernel_statistics`: ``a[i, j] = <phi(x_i), mu_j>`` of
    shape (b, M), ``norms[j] = ||mu_j||^2`` of shape (M,), and the backward
    to X and the bases. Without ``gram`` the norms come from the M diagonal
    (N, N) blocks only, not from the diagonal of :func:`basis_gram_matrix`,
    which would cost (M*N)^2 kernel entries on every gate evaluation, and
    ``k_bases`` is None. With ``gram`` a step that reads the basis Gram gets
    all three, ``k_bases`` as :func:`basis_gram_matrix`, from one Gaussian
    Gram.
    """
    vectors, n = _stacked_bases(layer)
    return _kernel_statistics(X, vectors, layer.kernel, n, gram)


def _gate_from_inners(a, norms, mode, kappa):
    """Gating rows from embedding inner products, and their backward.

    ``a[i, j] = <phi(x_i), mu_j>`` (b, M) and ``norms[j] = ||mu_j||^2`` (M,);
    ``||phi(x_i)||^2 = k(x_i, x_i) = 1`` under the Gaussian kernel. The rows are

    * ``PROJECTION``: ``a / norms``;
    * ``CS``: the kappa-softmax of ``H = a / sqrt(norms)``;
    * ``MMD``: the kappa-softmax of ``H = -(1 - 2 a + norms)``;

    where the row-wise softmax subtracts each row's maximum first; its row
    maximum and row sum run column by column, bit-identical to numpy's.
    Returns ``(beta, back)``. ``back(g)`` takes the gradient of beta to
    ``gH = kappa * beta * (g - <beta, g>)`` per row, then returns ``(g_a,
    g_norms)``: for CS ``g_a = gH / sqrt(norms)`` and ``g_norms =
    -sum_i(gH * H) / (2 norms)``; for MMD ``g_a = 2 gH`` and ``g_norms =
    -sum_i(gH)``.
    """
    n_row = norms.reshape(1, -1)
    if mode == "PROJECTION":
        out = a / n_row
    else:
        if mode == "CS":
            denom = np.sqrt(n_row)
            h = a / denom
        else:
            h = -(1.0 - 2.0 * a + n_row)
        z = h * kappa
        z = z - _row_max(z)
        e = np.exp(z)
        out = e / _row_sum(e)

    def back(g):
        if mode == "PROJECTION":
            ga = g / n_row
            return ga, -np.add.reduce(ga * out, axis=0)
        gh = kappa * out * (g - _row_sum(out * g))
        if mode == "CS":
            return gh / denom, -np.add.reduce(gh * h, axis=0) / (2.0 * norms)
        return 2.0 * gh, -np.add.reduce(gh, axis=0)

    return out, back


def _inners_and_gate(X, layer: GduLayer, gram: bool = False):
    """``(a, beta, k_bases, back)``: the statistics of :func:`_basis_inners`,
    the gate and their backward.

    ``k_bases`` is the basis Gram with ``gram`` and None otherwise.
    ``back(g_beta, g_a, g_k, grad_x)`` takes the gradients of beta and,
    from terms that read them (None otherwise), of a and k_bases, and
    returns ``(g_X, g_bases)``, g_X None unless ``grad_x``. The gradient of
    a is the terms' plus the gate's, in that order. A UNIFORM layer's gate
    is a constant that a training step never materialises: all four are
    None, and :func:`forward_batch` given ``beta=None`` weights the heads by
    1/M itself. X must be a float64 (b, e) batch that an entry point
    checked (:func:`_check_width`).
    """
    if layer.mode == UNIFORM:
        return None, None, None, None
    a, norms, k_bases, stats_back = _basis_inners(X, layer, gram)
    beta, gate_back = _gate_from_inners(a, norms, layer.mode, layer.kappa)

    def back(g_beta, g_a, g_k, grad_x):
        ga, g_norms = gate_back(g_beta)
        if g_a is not None:
            ga = g_a + ga
        return stats_back(ga, g_norms, g_k, grad_x)

    return a, beta, k_bases, back


def gate_matrix(X, layer: GduLayer):
    """Per-sample gating weights for a feature batch, shape (b, M).

    Geometry and UNIFORM modes produce positive rows summing to one (for
    UNIFORM the constant rows 1/M, built here); projection mode returns raw
    projection coefficients. ``||phi(x)||^2 = k(x, x) = 1`` for the Gaussian
    kernel, so no per-sample norm is needed.
    """
    return _gate(_check_width(X, layer), layer)


def _gate(X, layer: GduLayer):
    """:func:`gate_matrix` on a batch that :func:`_check_width` returned."""
    beta = _inners_and_gate(X, layer)[1]
    if beta is None:
        m = layer.num_bases
        return np.full((len(X), m), 1.0 / m)
    return beta


def _ensemble(X, layer: GduLayer, beta=None):
    """:func:`forward_batch` and its backward: ``(y, back)``.

    ``back(g, grad_x)`` takes the gradient of y and returns ``(g_X,
    g_weights, g_bias, g_beta)``. With ``P = beta[i, j] * g[i]``, the
    machines' output gradient (``P = g`` for the lone head), they are ``P
    W^T``, ``X^T P`` and ``sum_i P``, and ``g_beta[i, j] = <O[i, j], g[i]>``
    for the (b, M, C) machine outputs O; the sums over the C outputs run
    column by column, bit-identical to numpy's. g_X is None unless
    ``grad_x``, and g_beta None unless the caller passed ``beta``. X must
    be a float64 (b, e) batch and ``beta`` a float64 (b, M) array, as an
    entry point checked them.
    """
    head = beta is None and layer.mode == UNIFORM and layer.num_bases == 1
    gated = beta is not None
    if beta is None and not head:
        beta = _gate(X, layer)
    b, m = X.shape[0], layer.num_bases
    W = layer.weights.reshape(layer.feature_dim, -1)
    out = X @ W + layer.bias.reshape(-1)
    if head:
        y = out
    else:
        out = out.reshape(b, m, layer.n_outputs)
        y = np.einsum("bm,bmc->bc", beta, out)

    def back(g, grad_x):
        g_beta = None
        if head:
            P = g
        else:
            g_row = g[:, None, :]
            if gated:
                g_beta = _row_sum(out * g_row).reshape(b, m)
            P = (beta[:, :, None] * g_row).reshape(b, -1)
        g_x = P @ W.T if grad_x else None
        g_bias = np.add.reduce(P, axis=0).reshape(m, -1)
        return g_x, (X.T @ P).reshape(W.shape[0], m, -1), g_bias, g_beta

    return y, back


def forward_batch(X, layer: GduLayer, beta=None):
    """Ensemble prediction for a feature batch, shape (b, C).

    ``beta`` overrides the gate (e.g. constant 1/M rows give the UNIFORM
    ensemble); by default per-sample gating is used. X of another width than
    the layer's raises :class:`gdu.kernel.DimensionMismatchError`, and a
    ``beta`` that is not (b, M) a ValueError that names its shape, before
    anything is computed. All M machines run as one matmul against their
    weights viewed as (e, M*C), plus the bias; the (b, M, C) outputs ``O``
    are then summed with weights ``beta`` by one ``einsum`` over the machine
    axis. A one-head UNIFORM layer without ``beta`` (one-head ERM) has the
    constant gate 1: its output is the head ``X @ W + b`` itself, and no
    gate is built or multiplied in. X and ``beta`` are checked here, once.
    """
    X = _check_width(X, layer)
    if beta is not None:
        beta = np.asarray(beta, dtype=np.float64)
        b, m = X.shape[0], layer.num_bases
        if beta.shape != (b, m):
            raise ValueError(f"beta shape {beta.shape} does not match batch {b} x {m} bases")
    return _ensemble(X, layer, beta)[0]


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
