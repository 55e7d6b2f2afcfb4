"""Model training: feature extractor, loss, gradients, and the train loop.

Every model is a :class:`GduModel`: a feature extractor (or none) followed
by a gated domain layer. ERM with K heads is the layer in ``UNIFORM`` mode,
whose gate is the constant row 1/K and which has no bases
(:func:`init_erm_model`); the single-head case is plain ERM. One objective,
one prediction path and one loop serve every gating mode: the loss is the
batch cross-entropy :func:`cross_entropy_mean`, prediction is
:func:`predict_logits` on a (b, d) batch (a single input x is ``x[None]``),
and the optimizer is Adam.

Gradients are hand-written; their binding contract is agreement with
central finite differences. The objective is a fixed chain: the extractor
(``_extract``, however many layers), the kernel statistics and the gate
(:mod:`gdu.layer`), the gated ensemble, the loss (``_cross_entropy``), and
the weighted regularizers (:mod:`gdu.regularization`). Each of these is one
array forward that returns its closed-form backward as a closure.
``_objective`` runs the forwards, and its backward runs the chain in
reverse: the loss and the ensemble, then OLS and L1 into the gate, the gate
and the kernel statistics, then the extractor. The step wraps it in one
:class:`gdu.autodiff.Tensor` with no parents (``_build_objective``), whose
backward adds each block's gradient into that block's view of one gradient
vector. ERM's constant gate is never built in a step, and a one-head ERM's
ensemble is its head. A step whose regularizers read the basis Gram (OLS
or ORTH on) takes the gate's inner products, the basis norms and the basis
Gram from one Gaussian Gram; every other step, and inference, evaluate
only the inner products and the norms, with the arithmetic of
:func:`gdu.layer.gate_matrix`.
Labels are checked once per call, by the entry points: :func:`train`
(both splits, before the first step), :func:`objective`,
:func:`gradients`, :func:`cross_entropy_mean` and :func:`accuracy` each
name float, bool, out-of-range and mis-shaped labels and an empty batch.
A step's loss (``_cross_entropy``) and :func:`train`'s per-epoch
metrics and validation scoring take the checked int64 labels as they are.
Training modes: ``E2E`` updates every parameter; ``FT`` freezes the feature
extractor. :func:`_trained_part` alone tells them apart: FT trains the
model without its extractor on features extracted once.

:func:`_lay_out` sets up a training call in one place. It copies the
trained blocks into one contiguous float64 vector and rebinds each trained
parameter attribute (``fe.weights[i]``, ``fe.biases[i]``, and
``layer.bases`` when present, ``layer.weights`` and ``layer.bias``) to a
view of it, and it allocates a gradient vector in the same layout
(:func:`_gradient_layout`), into which each backward adds after
:func:`_backprop` zeroes it. :func:`train` calls it once per call, so the
optimizer step, the best-epoch snapshot and its restore are single vector
operations, and an array taken from the model before ``train`` is no
longer the model's parameter afterwards. :func:`gradients` lays out only a
gradient vector, so it returns blocks in ``train``'s layout and leaves the
caller's model as it is.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from .kernel import _check_feature_dims, _check_float, _check_int, _check_seed
from .layer import (
    UNIFORM,
    GduLayer,
    _init_machines,
    _ensemble,
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
    affine, so a single identity-weight layer is the identity map. The
    blocks are held as two lists of float64 arrays, converted once, here,
    with ``np.asarray``, so a float64 array given keeps its identity.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    nonlinearity: str = "relu"

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("need one bias per weight matrix")
        if self.nonlinearity not in FE_NONLINEARITIES:
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError("inconsistent extractor layer shapes")
            if i and w.shape[0] != d_out:
                raise ValueError(
                    f"extractor layer {i} takes {w.shape[0]} inputs, "
                    f"but layer {i - 1} gives {d_out}"
                )
            d_out = w.shape[1]

    @property
    def layer_sizes(self) -> list:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]


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
            labels = _integer_labels(getattr(self, name), f"{name}: ")
            if labels.ndim != 1 or np.any(labels < 0):
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
        lr = _check_float("learning_rate", self.learning_rate)
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {lr}")
        object.__setattr__(self, "learning_rate", lr)
        if not (1 <= self.patience <= self.max_epochs):
            raise ValueError("patience must satisfy 1 <= patience <= max_epochs")
        if not isinstance(self.reg, RegConfig):
            raise ValueError(f"reg must be a RegConfig, got {self.reg!r}")


@dataclass(frozen=True)
class TraceRow:
    epoch: int
    loss: float
    val_acc: float
    omega_ols: float
    omega_orth: float
    omega_l1: float


@dataclass
class TrainTrace:
    rows: list = field(default_factory=list)

    def to_csv_text(self) -> str:
        """One header line of :class:`TraceRow`'s field names, then the ``repr``
        of each row's values, comma-separated, one line per row."""
        lines = [",".join(f.name for f in fields(TraceRow))]
        lines += [",".join(map(repr, astuple(r))) for r in self.rows]
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


def init_erm_model(layer_sizes, n_outputs: int, n_heads: int, seed: int) -> GduModel:
    """ERM with ``n_heads`` heads: a ReLU extractor plus a UNIFORM layer.

    The heads are drawn as :func:`gdu.layer.init_layer` draws machines, from seed + 1.
    """
    for name, value in (("n_outputs", n_outputs), ("n_heads", n_heads)):
        _check_int(name, value)
        if value < 1:
            raise ValueError(f"{name} must be positive, got {value}")
    fe = init_feature_extractor(layer_sizes, seed)
    rng = np.random.default_rng(seed + 1)
    weights, bias = _init_machines(rng, n_heads, layer_sizes[-1], n_outputs)
    return GduModel(fe, GduLayer(None, weights, bias, None, UNIFORM))


# -- forward passes ----------------------------------------------------------


def fe_forward(x, fe: FeatureExtractor | None):
    """Extractor forward pass for a batch (or a single vector).

    Each layer computes ``out @ w + b``, then the nonlinearity between
    layers. X of another width than the extractor's input raises
    :class:`gdu.kernel.DimensionMismatchError`. Without an extractor X
    comes back as it is.
    """
    return x if fe is None else _extract(x, fe)[0]


def _extract(x, fe: FeatureExtractor):
    """:func:`fe_forward` through an extractor, and its backward: ``(F, back)``.

    ``back(g)`` takes the gradient of F (b, e) through the layers backwards:
    through the nonlinearity, ``* (out > 0)`` or ``* (1 - out^2)``, then
    ``a^T g`` for the weight, ``sum_i g`` for the bias and ``g w^T`` for the
    layer's input ``a``. It returns the blocks' gradients in
    :func:`trainable_arrays` order, ``[w0, b0, w1, b1, ...]``.
    """
    weights, biases = fe.weights, fe.biases
    last = len(weights) - 1
    relu = fe.nonlinearity == "relu"
    acts = [np.asarray(x, dtype=np.float64)]
    _check_feature_dims("X", acts[0].shape[-1], "the extractor's input", weights[0].shape[0])
    for i, (w, b) in enumerate(zip(weights, biases)):
        out = acts[-1] @ w + b
        if i < last:
            out = np.maximum(out, 0.0) if relu else np.tanh(out)
        acts.append(out)

    def back(g):
        blocks = [None] * (2 * len(weights))
        for i in range(last, -1, -1):
            if i < last:
                out = acts[i + 1]
                g = g * (out > 0.0) if relu else g * (1.0 - out * out)
            blocks[2 * i + 1] = g.sum(axis=0)
            blocks[2 * i] = acts[i].T @ g
            if i:
                g = g @ weights[i].T
        return blocks

    return out, back


def _integer_labels(labels, where: str = "") -> np.ndarray:
    """``labels`` as an array of integers or integer-valued finite floats.

    Otherwise a ValueError, prefixed by ``where``, names the first bad float
    or the dtype: a bool is refused, as numpy reads True as class 1.
    """
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iuf":
        raise ValueError(f"{where}labels must be integers, got dtype {labels.dtype}")
    if labels.dtype.kind == "f":
        bad = ~np.isfinite(labels) | (labels != np.floor(labels))
        if bad.any():
            raise ValueError(f"{where}label {labels[bad][0]} is not a finite integer")
    return labels


def _checked_labels(labels, b: int, c: int, where: str = "") -> np.ndarray:
    """``labels`` as b >= 1 int64 class indices in ``[0, c)``, or a ValueError
    prefixed by ``where``.

    They must pass :func:`_integer_labels`.
    """
    labels = np.asarray(labels)
    if labels.shape != (b,):
        raise ValueError(f"{where}expected {b} labels, got shape {labels.shape}")
    labels = _integer_labels(labels, where)
    if labels.min() < 0 or labels.max() >= c:
        bad = labels[(labels < 0) | (labels >= c)][0]
        raise ValueError(f"{where}label {int(bad)} out of range for C={c}")
    return labels.astype(np.int64)


def _loss_labels(labels, b: int, c: int, where: str = "") -> np.ndarray:
    """The labels of a loss over (b, c) logits, as :func:`_checked_labels` returns them.

    A ValueError names c < 2 classes or b = 0 rows first, as
    :func:`cross_entropy_mean` names them. An entry point checks its labels
    here once, and its steps hand them to the loss as they are.
    """
    if c < 2:
        raise ValueError(f"expected (b, C) logits with C >= 2, got shape {(b, c)}")
    if b == 0:
        raise ValueError("cross_entropy_mean needs at least one row, got 0")
    return _checked_labels(labels, b, c, where)


def cross_entropy_mean(logits, labels):
    """Mean categorical cross-entropy over a (b, C) batch of logits rows.

    ``labels`` must be b >= 1 integers in ``[0, C)``; this wrapper checks
    them and the logits' shape, then runs the loss (:func:`_cross_entropy`),
    which training steps call with labels checked once per call. The
    forward subtracts each row's maximum and takes ``log sum exp`` minus the
    picked entry; the row maximum and row sum run column by column,
    bit-identical to numpy's. The value is a float.
    """
    vals = np.asarray(logits, dtype=np.float64)
    if vals.ndim != 2:
        raise ValueError(f"expected (b, C) logits with C >= 2, got shape {vals.shape}")
    return _cross_entropy(vals, _loss_labels(labels, *vals.shape))[0]


def _cross_entropy(logits, labels):
    """:func:`cross_entropy_mean` on labels that :func:`_loss_labels` returned,
    and its backward: ``(loss, back)``, with ``back(g) = (softmax(logits) -
    onehot(labels)) * g / b``."""
    b = logits.shape[0]
    rows = np.arange(b)
    z = logits - _row_max(logits)
    e = np.exp(z)
    total = _row_sum(e)[:, 0]
    loss = np.sum(np.log(total) - z[rows, labels]) / float(b)

    def back(g):
        d = e / total[:, None]
        d[rows, labels] -= 1.0
        return d * (g / b)

    return loss, back


# -- the objective -----------------------------------------------------------


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
    return (replace(model, fe=None), *(fe_forward(x, model.fe) for x in inputs))


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
    """Name -> live parameter array for every block trained in this mode."""
    (part,) = _trained_part(model, train_mode)
    return {name: _get_slot(owner, key) for name, owner, key in _parameter_slots(part)}


def _gradient_layout(part) -> tuple:
    """``(grad, views)``: a zeroed gradient vector for the blocks of ``part``
    and each block's view of it, by name, in :func:`trainable_arrays` order."""
    shapes = {name: _get_slot(owner, key).shape for name, owner, key in _parameter_slots(part)}
    grad = np.zeros(sum(math.prod(shape) for shape in shapes.values()))
    views, start = {}, 0
    for name, shape in shapes.items():
        stop = start + math.prod(shape)
        views[name] = grad[start:stop].reshape(shape)
        start = stop
    return grad, views


def _lay_out(part) -> tuple:
    """Lay the blocks of ``part`` out in one parameter and one gradient vector.

    Copies the blocks, in :func:`trainable_arrays` order, into a new
    contiguous float64 vector and rebinds each parameter attribute of
    ``part`` to its view of it, so an in-place update of the vector is an
    update of the model. Returns ``(params, grad, views)``: the parameter
    vector and :func:`_gradient_layout` of ``part``.
    """
    slots = _parameter_slots(part)
    arrays = [_get_slot(owner, key) for _, owner, key in slots]
    params = np.concatenate([arr.ravel() for arr in arrays])
    start = 0
    for (_, owner, key), arr in zip(slots, arrays):
        stop = start + arr.size
        _set_slot(owner, key, params[start:stop].reshape(arr.shape))
        start = stop
    return (params, *_gradient_layout(part))


def _objective(part, X, y, reg: RegConfig) -> tuple:
    """The objective of ``part`` on the batch ``(X, y)`` and its backward.

    ``y`` holds labels that :func:`_loss_labels` checked for this model.
    Returns ``(value, back)``; ``back(g)`` runs the chain in reverse and
    returns the gradient of every block, in :func:`trainable_arrays` order.
    """
    layer, fe = part.layer, part.fe
    feats, fe_back = (X, None) if fe is None else _extract(X, fe)
    # The gate's statistics, and the basis Gram when a term reads it, come
    # from one kernel call and are shared with the regularizers. A UNIFORM
    # layer's gate is None: the ensemble weights its heads itself.
    a, beta, k_bases, gate_back = _inners_and_gate(
        feats, layer, _reads_basis_gram(layer.mode, reg))
    logits, ensemble_back = _ensemble(feats, layer, beta)
    loss, loss_back = _cross_entropy(logits, y)
    value, reg_back = _add_regularizers(loss, a, beta, k_bases, reg)

    def back(g):
        # The features are a block's input only through an extractor.
        grad_x = fe is not None
        g_feats, g_weights, g_bias, g_beta = ensemble_back(loss_back(g), grad_x)
        blocks = [g_weights, g_bias]
        if gate_back is not None:
            g_a, g_beta, g_k = reg_back(g, g_beta)
            g_gate, g_bases = gate_back(g_beta, g_a, g_k, grad_x)
            blocks.insert(0, g_bases)
            if grad_x:
                g_feats = g_feats + g_gate
        return fe_back(g_feats) + blocks if grad_x else blocks

    return value, back


def _build_objective(part, X, y, reg: RegConfig, grads: dict):
    """The step's objective on ``(X, y)``: one tape node with no parents.

    Its value is :func:`_objective`'s, and its backward adds the gradient
    of each block of ``part`` into that block's view in ``grads``, the
    views of :func:`_gradient_layout`.
    """
    value, back = _objective(part, X, y, reg)

    def backward(g):
        for view, block in zip(grads.values(), back(g), strict=True):
            view += block

    return ad.Tensor(value, (), backward)


def _checked_batch(batch, model):
    """``batch = (X, y)`` as a float64 (b, d) X and the labels of its loss."""
    X, y = batch
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"a batch needs (b, d) inputs, got shape {X.shape}")
    return X, _loss_labels(y, len(X), model.layer.n_outputs)


def objective(batch, model, reg: RegConfig) -> float:
    """Value of the training objective on ``batch = (X, y)``.

    The labels are checked on entry, as :func:`cross_entropy_mean` checks them.
    """
    X, y = _checked_batch(batch, model)
    return float(_objective(model, X, y, reg)[0])


def gradients(batch, model, reg: RegConfig, train_mode: str = "E2E") -> dict:
    """Gradient of the objective for every trainable block, by name.

    The labels are checked on entry, as :func:`cross_entropy_mean` checks
    them. The blocks are laid out as :func:`train` lays their gradients
    out, and ``model`` and its arrays stay as they are; the result holds
    the views of one new gradient vector, in :func:`trainable_arrays`
    order. In FT mode the extractor is frozen and
    its blocks are absent. Non-finite entries raise, naming the offending
    block.
    """
    X, y = _checked_batch(batch, model)
    part, X = _trained_part(model, train_mode, X)
    grad, views = _gradient_layout(part)
    _backprop(_build_objective(part, X, y, reg, views), views, grad)
    return views


def _backprop(obj, views: dict, grad: np.ndarray, where: str = ""):
    """Backpropagate ``obj`` into ``grad``, whose blocks ``views`` holds by name.

    The vector is zeroed first, so a vector reused across steps starts each
    backward from zero. A non-finite entry raises, naming the first block
    that holds one, with ``where`` appended to the message.
    """
    grad[...] = 0.0
    obj.backward()
    if not np.all(np.isfinite(grad)):
        name = next(n for n, view in views.items() if not np.all(np.isfinite(view)))
        raise NonFiniteGradientError(f"non-finite gradient in block {name!r}{where}")


# -- prediction ---------------------------------------------------------------


def _finite_batch(X, where: str) -> np.ndarray:
    """``X`` as a finite float64 (b, d) batch, or a ValueError naming ``where``."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(
            f"{where} expects a (b, d) batch, got shape {X.shape}; "
            "pass a single input x as x[None]"
        )
    if not np.isfinite(X).all():
        row = int(np.argmin(np.isfinite(X).all(axis=1)))
        raise ValueError(f"{where} needs finite rows, but row {row} is not")
    return X


def _logits(model, X) -> np.ndarray:
    """:func:`predict_logits` on a batch that :func:`_finite_batch` returned."""
    return forward_batch(fe_forward(X, model.fe), model.layer)


def _hit_rate(logits, y) -> float:
    return float(np.mean(np.argmax(logits, axis=1) == y))


def predict_logits(model, X) -> np.ndarray:
    """Model logits for a (b, d) batch of finite raw inputs (value path, per-sample gating)."""
    return _logits(model, _finite_batch(X, "predict_logits"))


def accuracy(model, X, y) -> float:
    logits = predict_logits(model, X)
    if len(logits) == 0:
        raise ValueError("accuracy needs at least one row, got 0")
    return _hit_rate(logits, _checked_labels(y, *logits.shape))


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

    ``y_train`` holds the labels that :func:`_loss_labels` checked. A
    UNIFORM layer has no bases: it reports 0 for each term.
    """
    layer = model.layer
    # One pass of kernel statistics feeds the gate and every regularizer.
    a, beta = _inners_and_gate(feats_train, layer)[:2]
    logits = forward_batch(feats_train, layer, beta=beta)
    ce = float(_cross_entropy(logits, y_train)[0])
    if layer.mode == UNIFORM:
        return ce, 0.0, 0.0, 0.0
    k_bases = basis_gram_matrix(layer)
    return ce, omega_ols(a, k_bases, beta), omega_orth(k_bases), omega_l1(beta)


def train(data: DatasetSplits, config: TrainConfig, model):
    """Train ``model`` in place; return it with the best-validation snapshot.

    Deterministic given the config seed. Early stopping keeps the first
    parameter snapshot attaining the highest validation accuracy and stops
    after ``patience`` epochs without improvement. A label of either split
    outside the model's classes, and a validation row that is not finite
    (in FT, whose frozen features are not), raise a ValueError naming the
    split before the first step; the epochs score validation on what was
    checked there.

    The trained parameter attributes of ``model`` are rebound to views of
    one new vector (see the module docstring), so arrays taken from the
    model before the call no longer follow it. In FT mode the extractor is
    left as it is.
    """
    c = model.layer.n_outputs
    train_y = _loss_labels(data.train_y, len(data.train_x), c, "train_y: ")
    val_y = _checked_labels(data.val_y, len(data.val_x), c, "val_y: ")
    part, train_x, val_x = _trained_part(
        model, config.mode, np.asarray(data.train_x, dtype=np.float64), data.val_x
    )
    # Validation is scored every epoch on rows and labels checked once,
    # here; in FT the rows are the frozen extractor's fixed features.
    val_x = _finite_batch(val_x, "val_x")
    params, grad, views = _lay_out(part)
    opt = _Adam(params, config.learning_rate)
    rng = np.random.default_rng(config.seed)
    n = len(train_x)

    trace = TrainTrace()
    best_val = -math.inf
    best_snapshot = None
    stale_epochs = 0
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            obj = _build_objective(part, train_x[idx], train_y[idx], config.reg, views)
            if not np.isfinite(float(obj.data)):
                raise TrainingDivergedError(epoch)
            _backprop(obj, views, grad, f" at epoch {epoch}")
            opt.step(params, grad)

        feats_train = fe_forward(train_x, part.fe)
        ce, ols, orth, l1 = _epoch_metrics(part, feats_train, train_y)
        if not np.isfinite(ce):
            raise TrainingDivergedError(epoch)
        val_acc = _hit_rate(_logits(part, val_x), val_y)
        trace.rows.append(TraceRow(epoch, ce, val_acc, ols, orth, l1))

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
