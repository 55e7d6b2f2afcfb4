"""Model training: feature extractor, loss, gradients, and the train loop.

Every model is a :class:`GduModel`: a feature extractor (or none) followed
by a gated domain layer. ERM with K heads is the layer in ``UNIFORM`` mode,
whose gate is the constant row 1/K and which has no bases
(:func:`init_erm_model`); the single-head case is plain ERM. One objective,
one prediction path and one loop serve every gating mode: the loss is the
batch cross-entropy node :func:`cross_entropy_mean`, prediction is
:func:`predict_logits` on a (b, d) batch (a single input x is ``x[None]``),
and the optimizer is Adam.

Gradients come from the in-repo reverse-mode tape (:mod:`gdu.autodiff`);
their binding contract is agreement with central finite differences. Every
term of the objective is one tape node with a closed-form backward: the
extractor (:func:`fe_forward`, however many layers), the kernel statistics,
the gate and the ensemble (:mod:`gdu.layer`), the loss
(:func:`cross_entropy_mean`), and each regularizer plus their weighted sum
(:mod:`gdu.regularization`). The kernel statistics are one node
(:func:`gdu.kernel._kernel_statistics`) whose outputs are parts of it
(:meth:`gdu.autodiff.Tensor.split`), one node each, so without
regularizers a GDU step's tape has seven nodes (the extractor, the kernel
node and its two parts, the gate, the ensemble and the loss) and an ERM
step's three. A step whose regularizers read the basis Gram (OLS or ORTH
on) takes the gate's inner products, the basis norms and the basis Gram,
a third part, from one Gaussian Gram; every other step, and inference,
evaluate only the inner products and the norms, with the arithmetic of
:func:`gdu.layer.gate_matrix`.
Training modes: ``E2E`` updates every parameter; ``FT`` freezes the feature
extractor. :func:`_trained_part` alone tells them apart: FT trains the
model without its extractor on features extracted once.

:func:`train` keeps the trained blocks in one contiguous float64 vector: it
rebinds each trained parameter attribute of the model (``fe.weights[i]``,
``fe.biases[i]``, and ``layer.bases`` when present, ``layer.weights`` and
``layer.bias``) to a view of that vector, so the optimizer step, the
best-epoch snapshot and its restore are single vector operations. An array
taken from the model before ``train`` is no longer the model's parameter
afterwards. What does not depend on the batch is made once per call: the
tape leaves (:func:`_graph_model`), whose ``data`` are those views, so
Adam's in-place update shows in them; one gradient vector in the same
layout, whose views are the leaves' ``grad``, so that each backward adds
the leaves' gradients straight into it after :func:`_backprop` zeroes it;
and Adam's moments and work vectors, which each step updates in place.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .kernel import _check_feature_dims, _check_float, _check_int, _check_seed
from .layer import (
    UNIFORM,
    GduLayer,
    _init_machines,
    _inners_and_gate,
    _row_max,
    _row_sum,
    basis_gram_matrix,
    forward_batch,
)
from .regularization import (
    RegConfig,
    _add_regularizers,
    _reads_basis_gram,
    omega_l1,
    omega_ols,
    omega_orth,
)

__all__ = [
    "FeatureExtractor",
    "GduModel",
    "DatasetSplits",
    "TrainConfig",
    "TraceRow",
    "TrainTrace",
    "TrainingDivergedError",
    "NonFiniteGradientError",
    "init_feature_extractor",
    "init_erm_model",
    "fe_forward",
    "objective",
    "gradients",
    "predict_logits",
    "accuracy",
    "train",
]

FE_NONLINEARITIES = ("relu", "tanh")
TRAIN_MODES = ("FT", "E2E")


class TrainingDivergedError(RuntimeError):
    """Raised when the training objective becomes non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite training loss at epoch {epoch}")
        self.epoch = epoch


class NonFiniteGradientError(RuntimeError):
    """Raised when a gradient block contains non-finite entries."""


@dataclass
class FeatureExtractor:
    """Multi-layer perceptron mapping raw inputs to e-dim features.

    The nonlinearity applies between layers only; the final layer is
    affine, so a single identity-weight layer is the identity map.
    """

    weights: list
    biases: list
    nonlinearity: str = "relu"

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("need one bias per weight matrix")
        if self.nonlinearity not in FE_NONLINEARITIES:
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            wv, bv = ad.value_of(w), ad.value_of(b)
            if wv.ndim != 2 or bv.shape != (wv.shape[1],):
                raise ValueError("inconsistent extractor layer shapes")
            if i and wv.shape[0] != d_out:
                raise ValueError(
                    f"extractor layer {i} takes {wv.shape[0]} inputs, "
                    f"but layer {i - 1} gives {d_out}"
                )
            d_out = wv.shape[1]

    @property
    def layer_sizes(self) -> list:
        sizes = [ad.value_of(self.weights[0]).shape[0]]
        sizes += [ad.value_of(w).shape[1] for w in self.weights]
        return sizes


@dataclass
class GduModel:
    """Feature extractor parameters plus the gated domain layer."""

    fe: FeatureExtractor | None
    layer: GduLayer

    def __post_init__(self):
        if self.fe is not None and self.fe.layer_sizes[-1] != self.layer.feature_dim:
            raise ValueError(
                f"extractor output size {self.fe.layer_sizes[-1]} does not match "
                f"layer feature_dim {self.layer.feature_dim}"
            )


@dataclass
class DatasetSplits:
    """Training and validation splits (raw inputs, integer labels)."""

    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray

    def __post_init__(self):
        if len(self.train_x) == 0 or len(self.val_x) == 0:
            raise ValueError("train and validation splits must be nonempty")
        if len(self.train_x) != len(self.train_y) or len(self.val_x) != len(self.val_y):
            raise ValueError("features and labels must have matching lengths")
        widths = []
        for name in ("train_x", "val_x"):
            x = np.asarray(getattr(self, name), dtype=np.float64)
            if x.ndim != 2 or not np.all(np.isfinite(x)):
                raise ValueError(f"{name} must be a finite 2-D array, got shape {x.shape}")
            widths.append(x.shape[1])
        if widths[0] != widths[1]:
            raise ValueError(f"train_x has {widths[0]} columns but val_x has {widths[1]}")
        for name in ("train_y", "val_y"):
            labels = np.asarray(getattr(self, name))
            if (labels.ndim != 1 or not np.all(np.isfinite(labels))
                    or np.any(labels < 0) or np.any(labels != np.floor(labels))):
                raise ValueError(f"{name} must be a 1-D array of nonnegative integer labels")


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "E2E"
    learning_rate: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 50
    patience: int = 50
    seed: int = 0
    reg: RegConfig = field(default_factory=RegConfig)

    def __post_init__(self):
        if self.mode not in TRAIN_MODES:
            raise ValueError(f"unknown training mode {self.mode!r}")
        for name in ("batch_size", "max_epochs", "patience"):
            _check_int(name, getattr(self, name))
        _check_seed("seed", self.seed)
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be positive")
        lr = self.learning_rate
        _check_float("learning_rate", lr)
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {lr}")
        if not (1 <= self.patience <= self.max_epochs):
            raise ValueError("patience must satisfy 1 <= patience <= max_epochs")
        if not isinstance(self.reg, RegConfig):
            raise ValueError(f"reg must be a RegConfig, got {self.reg!r}")


@dataclass(frozen=True)
class TraceRow:
    epoch: int
    loss: float
    val_acc: float
    srip: float | None
    omega_ols: float
    omega_orth: float
    omega_l1: float


@dataclass
class TrainTrace:
    rows: list = field(default_factory=list)

    CSV_HEADER = "epoch,loss,val_acc,srip,omega_ols,omega_orth,omega_l1"

    def append(self, row: TraceRow):
        self.rows.append(row)

    def best_val_acc(self) -> float:
        return max(r.val_acc for r in self.rows)

    def to_csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            srip = "" if r.srip is None else repr(r.srip)
            lines.append(
                f"{r.epoch},{r.loss!r},{r.val_acc!r},{srip},"
                f"{r.omega_ols!r},{r.omega_orth!r},{r.omega_l1!r}"
            )
        return "\n".join(lines) + "\n"


# -- initialization --------------------------------------------------------


def init_feature_extractor(layer_sizes, seed, nonlinearity="relu") -> FeatureExtractor:
    """Symmetric-uniform fan-in initialization, deterministic in ``seed``."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output sizes")
    for i, size in enumerate(layer_sizes):
        _check_int(f"layer_sizes[{i}]", size)
        if size < 1:
            raise ValueError(f"layer_sizes[{i}] must be positive, got {size}")
    _check_seed("seed", seed)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for d_in, d_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / math.sqrt(d_in)
        weights.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    return FeatureExtractor(weights, biases, nonlinearity)


def init_erm_model(
    layer_sizes,
    n_outputs: int,
    n_heads: int,
    seed: int,
    nonlinearity: str = "relu",
) -> GduModel:
    """ERM with ``n_heads`` heads: an extractor plus a UNIFORM layer.

    The heads are drawn as :func:`gdu.layer.init_layer` draws machines, from seed + 1.
    """
    _check_int("n_outputs", n_outputs)
    _check_int("n_heads", n_heads)
    fe = init_feature_extractor(layer_sizes, seed, nonlinearity)
    rng = np.random.default_rng(seed + 1)
    weights, bias = _init_machines(rng, n_heads, layer_sizes[-1], n_outputs)
    return GduModel(fe, GduLayer(None, weights, bias, None, UNIFORM))


# -- forward passes ----------------------------------------------------------


def fe_forward(x, fe: FeatureExtractor | None):
    """Extractor forward pass for a batch (or, on arrays, a single vector).

    Each layer computes ``out @ w + b``, then the nonlinearity between
    layers, with the same numpy operations for arrays and tensors. X of
    another width than the extractor's input raises
    :class:`gdu.kernel.DimensionMismatchError`. Arrays in give an array
    out. A tensor among the weights, the biases and ``x`` gives one node for
    the whole extractor; from the output gradient it runs the layers
    backwards: through the nonlinearity, ``* (out > 0)`` or ``* (1 -
    out^2)``, then ``a^T g`` for the weight, ``sum_i g`` for the bias and
    ``g w^T`` for the layer's input ``a``.
    """
    if fe is None:
        return x
    weights, biases = fe.weights, fe.biases
    last = len(weights) - 1
    relu = fe.nonlinearity == "relu"
    acts = [ad.value_of(x)]
    d_in = ad.value_of(weights[0]).shape[0]
    _check_feature_dims("X", acts[0].shape[-1], "the extractor's input", d_in)
    for i, (w, b) in enumerate(zip(weights, biases)):
        out = acts[-1] @ ad.value_of(w) + ad.value_of(b)
        if i < last:
            out = np.maximum(out, 0.0) if relu else np.tanh(out)
        acts.append(out)
    parents = tuple(t for t in (x, *weights, *biases) if ad.is_tensor(t))
    if not parents:
        return out
    if acts[0].ndim != 2:
        raise ValueError(f"the tape needs a (b, d) batch, got shape {acts[0].shape}")

    def bw(g):
        for i in range(last, -1, -1):
            if i < last:
                out = acts[i + 1]
                g = g * (out > 0.0) if relu else g * (1.0 - out * out)
            if ad.is_tensor(biases[i]):
                biases[i]._accumulate(g.sum(axis=0))
            if ad.is_tensor(weights[i]):
                weights[i]._accumulate(acts[i].T @ g)
            if i or ad.is_tensor(x):
                g = g @ ad.value_of(weights[i]).T
        if ad.is_tensor(x):
            x._accumulate(g)

    return ad.Tensor(out, parents, bw)


def _checked_labels(labels, b: int, c: int) -> np.ndarray:
    """``labels`` as b >= 1 int64 class indices in ``[0, c)``, or a ValueError.

    Float labels must be finite and integer-valued; the first that is not
    is named.
    """
    labels = np.asarray(labels)
    if labels.shape != (b,):
        raise ValueError(f"expected {b} labels, got shape {labels.shape}")
    if labels.dtype.kind == "f":
        bad = ~np.isfinite(labels) | (labels != np.floor(labels))
        if bad.any():
            raise ValueError(f"label {labels[bad][0]} is not a finite integer")
    if labels.min() < 0 or labels.max() >= c:
        bad = labels[(labels < 0) | (labels >= c)][0]
        raise ValueError(f"label {int(bad)} out of range for C={c}")
    return labels.astype(np.int64)


def cross_entropy_mean(logits, labels):
    """Mean categorical cross-entropy over a (b, C) batch of logits rows.

    ``labels`` must be b >= 1 integers in ``[0, C)``. The forward subtracts each
    row's maximum and takes ``log sum exp`` minus the picked entry, with the
    same numpy operations for arrays and tensors; the row maximum and row
    sum run column by column, bit-identical to numpy's. Arrays in give a
    float out; tensor logits give one tape node whose backward is
    ``(softmax(logits) - onehot(labels)) * g / b``.
    """
    vals = ad.value_of(logits)
    if vals.ndim != 2 or vals.shape[1] < 2:
        raise ValueError(f"expected (b, C) logits with C >= 2, got shape {vals.shape}")
    b, c = vals.shape
    if b == 0:
        raise ValueError("cross_entropy_mean needs at least one row, got 0")
    labels = _checked_labels(labels, b, c)
    rows = np.arange(b)
    z = vals - _row_max(vals)
    e = np.exp(z)
    total = _row_sum(e)[:, 0]
    loss = np.sum(np.log(total) - z[rows, labels]) / float(b)
    if not ad.is_tensor(logits):
        return loss

    def bw(g):
        d = e / total[:, None]
        d[rows, labels] -= 1.0
        logits._accumulate(d * (g / b))

    return ad.Tensor(loss, (logits,), bw)


# -- objective graph ---------------------------------------------------------


def _trained_part(model, train_mode: str, *inputs) -> tuple:
    """The part of ``model`` that ``train_mode`` trains, then the inputs it reads.

    E2E trains the whole model on the raw inputs, which come back as they
    are. FT freezes the extractor: the part is the model without it (the
    layer is shared, not copied), and each input is replaced by its
    extractor features, computed here once.
    """
    if train_mode not in TRAIN_MODES:
        raise ValueError(f"unknown training mode {train_mode!r}")
    if train_mode == "E2E":
        return (model, *inputs)
    return (replace(model, fe=None), *(np.asarray(fe_forward(x, model.fe)) for x in inputs))


def _parameter_slots(model) -> list:
    """``(name, owner, key)`` for every block of ``model``, in order.

    The block is ``owner[key]`` for an integer key (the extractor's lists)
    and the attribute ``key`` of ``owner`` otherwise.
    """
    slots = []
    if model.fe is not None:
        for i in range(len(model.fe.weights)):
            slots += [(f"fe.w{i}", model.fe.weights, i), (f"fe.b{i}", model.fe.biases, i)]
    for key in ("bases", "weights", "bias"):
        if getattr(model.layer, key) is not None:
            slots.append((f"layer.{key}", model.layer, key))
    return slots


def _get_slot(owner, key):
    return owner[key] if isinstance(key, int) else getattr(owner, key)


def _set_slot(owner, key, value):
    if isinstance(key, int):
        owner[key] = value
    else:
        setattr(owner, key, value)


def trainable_arrays(model, train_mode: str) -> dict:
    """Name -> live parameter array for every tensor trained in this mode."""
    (part,) = _trained_part(model, train_mode)
    return {name: _get_slot(owner, key) for name, owner, key in _parameter_slots(part)}


def _block_views(flat, shapes) -> list:
    """Consecutive views of the vector ``flat``, one per shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


def _pack_parameters(model):
    """Move the blocks of ``model`` into one float64 vector.

    Copies the blocks, in :func:`trainable_arrays` order, into a new
    contiguous vector and rebinds each parameter attribute of ``model`` to
    its view of it; returns the vector.
    """
    slots = _parameter_slots(model)
    arrays = [_get_slot(owner, key) for _, owner, key in slots]
    flat = np.concatenate([np.ravel(arr) for arr in arrays], dtype=np.float64)
    for (_, owner, key), view in zip(slots, _block_views(flat, [np.shape(a) for a in arrays])):
        _set_slot(owner, key, view)
    return flat


def _graph_model(model):
    """A copy of ``model`` whose blocks are tape leaves on the model's arrays.

    Only the objects that hold a trained block are copied, shallowly; their
    other fields, already validated on ``model``, are shared. Each leaf's
    ``data`` is the model's block itself, not a copy, so an in-place update
    of the block shows in the leaf. Returns the copy and its leaves by name.
    """
    graph = copy.copy(model)
    if graph.fe is not None:
        graph.fe = copy.copy(graph.fe)
        graph.fe.weights, graph.fe.biases = list(graph.fe.weights), list(graph.fe.biases)
    graph.layer = copy.copy(graph.layer)
    leaves = {}
    for name, owner, key in _parameter_slots(graph):
        leaves[name] = ad.tensor(_get_slot(owner, key))
        _set_slot(owner, key, leaves[name])
    return graph, leaves


def _build_objective(graph, X, y, reg: RegConfig):
    """The objective on the batch ``(X, y)``: a tape node for a :func:`_graph_model`
    copy and, by the same operations, a float for the model itself."""
    layer = graph.layer
    feats = fe_forward(X, graph.fe)
    # The gate's statistics, and the basis Gram when a term reads it, come
    # from one kernel node and are shared with the regularizers.
    a, beta, k_bases = _inners_and_gate(feats, layer, _reads_basis_gram(layer.mode, reg))
    logits = forward_batch(feats, layer, beta=beta)
    return _add_regularizers(cross_entropy_mean(logits, y), a, beta, k_bases, reg)


def objective(batch, model, reg: RegConfig) -> float:
    """Value of the training objective on ``batch = (X, y)``."""
    X, y = batch
    return float(_build_objective(model, np.asarray(X, dtype=np.float64), y, reg))


def gradients(batch, model, reg: RegConfig, train_mode: str = "E2E") -> dict:
    """Gradient of the objective for every trainable tensor.

    In FT mode the extractor is frozen and its blocks are absent from the
    result. Non-finite entries raise, naming the offending block.
    """
    X, y = batch
    part, X = _trained_part(model, train_mode, np.asarray(X, dtype=np.float64))
    graph, leaves = _graph_model(part)
    grad, blocks = _gradient_vector(leaves)
    _backprop(_build_objective(graph, X, y, reg), leaves, grad, blocks)
    return dict(zip(leaves, blocks))


def _gradient_vector(leaves: dict) -> tuple:
    """A vector for the leaves' gradients, and its view per leaf.

    The views lie in the order of ``leaves``, as :func:`_pack_parameters`
    lays out the blocks. Each leaf's ``grad`` is its view, so a backward
    adds every leaf's gradient straight into the vector.
    """
    grad = np.empty(sum(t.data.size for t in leaves.values()))
    blocks = _block_views(grad, [t.shape for t in leaves.values()])
    for t, block in zip(leaves.values(), blocks):
        t.grad = block
    return grad, blocks


def _backprop(obj, leaves: dict, grad: np.ndarray, blocks: list, where: str = ""):
    """Backpropagate ``obj`` into ``grad``, the leaves' gradient vector.

    ``blocks`` are the views of ``grad`` from :func:`_gradient_vector`,
    which are the leaves' ``grad``. The vector is zeroed first, so leaves
    reused across steps start each backward from zero. A non-finite entry
    raises, naming the first block that holds one, with ``where`` appended
    to the message.
    """
    grad[...] = 0.0
    obj.backward()
    if not np.all(np.isfinite(grad)):
        name = next(n for n, g in zip(leaves, blocks) if not np.all(np.isfinite(g)))
        raise NonFiniteGradientError(f"non-finite gradient in block {name!r}{where}")


# -- prediction ---------------------------------------------------------------


def predict_logits(model, X) -> np.ndarray:
    """Model logits for a (b, d) batch of finite raw inputs (value path, per-sample gating)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(
            f"predict_logits expects a (b, d) batch, got shape {X.shape}; "
            "pass a single input x as x[None]"
        )
    if not np.isfinite(X).all():
        row = int(np.argmin(np.isfinite(X).all(axis=1)))
        raise ValueError(f"predict_logits needs finite rows, but row {row} is not")
    return np.asarray(forward_batch(fe_forward(X, model.fe), model.layer))


def accuracy(model, X, y) -> float:
    logits = predict_logits(model, X)
    if len(logits) == 0:
        raise ValueError("accuracy needs at least one row, got 0")
    y = _checked_labels(y, *logits.shape)
    return float(np.mean(np.argmax(logits, axis=1) == y))


# -- the optimizer ------------------------------------------------------------

# Adam's moment decay rates and denominator offset (Kingma & Ba, arXiv:1412.6980).
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class _Adam:
    """Adam on one parameter vector, updated in place.

    The moments and two work vectors are allocated once. Each step runs the
    textbook update's operations in its order, ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + ((1 - b2) g) g``, ``m_hat = m / (1 - b1^t)``, ``v_hat = v
    / (1 - b2^t)`` and ``params -= (lr m_hat) / (sqrt(v_hat) + eps)``, each
    into one of these vectors, so every entry rounds as the out-of-place
    expressions round it.
    """

    def __init__(self, params: np.ndarray, learning_rate: float):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._work = (np.empty_like(params), np.empty_like(params))
        self.t = 0
        self.learning_rate = learning_rate

    def step(self, params: np.ndarray, grad: np.ndarray):
        self.t += 1
        m, v = self.m, self.v
        step, denom = self._work
        m *= _ADAM_BETA1
        np.multiply(grad, 1 - _ADAM_BETA1, out=step)
        m += step
        v *= _ADAM_BETA2
        np.multiply(grad, 1 - _ADAM_BETA2, out=step)
        step *= grad
        v += step
        np.divide(m, 1 - _ADAM_BETA1**self.t, out=step)
        np.divide(v, 1 - _ADAM_BETA2**self.t, out=denom)
        step *= self.learning_rate
        np.sqrt(denom, out=denom)
        denom += _ADAM_EPS
        step /= denom
        params -= step


# -- the training loop ---------------------------------------------------------


def _epoch_metrics(model, feats_train, y_train):
    """Task loss and raw regularizer values on the (extracted) training set.

    SRIP is the ORTH term, reported in both columns. A UNIFORM layer has no
    bases: it reports 0 for each term and no SRIP.
    """
    layer = model.layer
    # One pass of kernel statistics feeds the gate and every regularizer.
    a, beta, _ = _inners_and_gate(feats_train, layer)
    logits = np.asarray(forward_batch(feats_train, layer, beta=beta))
    ce = float(cross_entropy_mean(logits, y_train))
    if layer.mode == UNIFORM:
        return ce, 0.0, 0.0, 0.0, None
    k_bases = basis_gram_matrix(layer)
    ols = omega_ols(a, k_bases, beta)
    orth = omega_orth(k_bases)
    return ce, ols, orth, omega_l1(beta), orth


def train(data: DatasetSplits, config: TrainConfig, model):
    """Train ``model`` in place; return it with the best-validation snapshot.

    Deterministic given the config seed. Early stopping keeps the first
    parameter snapshot attaining the highest validation accuracy and stops
    after ``patience`` epochs without improvement.

    The trained parameter attributes of ``model`` are rebound to views of
    one new vector (see the module docstring), so arrays taken from the
    model before the call no longer follow it. In FT mode the extractor is
    left as it is.
    """
    part, train_x, val_x = _trained_part(
        model, config.mode, np.asarray(data.train_x, dtype=np.float64), data.val_x
    )
    params = _pack_parameters(part)
    graph, leaves = _graph_model(part)
    grad, grad_blocks = _gradient_vector(leaves)
    opt = _Adam(params, config.learning_rate)
    rng = np.random.default_rng(config.seed)
    n = len(train_x)
    train_y = np.asarray(data.train_y, dtype=np.int64)

    trace = TrainTrace()
    best_val = -math.inf
    best_snapshot = None
    stale_epochs = 0
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            obj = _build_objective(graph, train_x[idx], train_y[idx], config.reg)
            if not np.isfinite(float(obj.data)):
                raise TrainingDivergedError(epoch)
            _backprop(obj, leaves, grad, grad_blocks, f" at epoch {epoch}")
            opt.step(params, grad)

        feats_train = np.asarray(fe_forward(train_x, part.fe))
        ce, ols, orth, l1, srip = _epoch_metrics(part, feats_train, train_y)
        if not np.isfinite(ce):
            raise TrainingDivergedError(epoch)
        val_acc = accuracy(part, val_x, data.val_y)
        trace.append(TraceRow(epoch, ce, val_acc, srip, ols, orth, l1))

        if val_acc > best_val:
            best_val = val_acc
            best_snapshot = params.copy()
            stale_epochs = 0
        else:
            stale_epochs += 1
            if stale_epochs >= config.patience:
                break

    if best_snapshot is not None:
        params[...] = best_snapshot
    return model, trace
