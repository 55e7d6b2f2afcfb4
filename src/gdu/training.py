"""Model training: feature extractor, losses, gradients, and the train loop.

Two trainable model shapes share one loop:

* :class:`GduModel` - feature extractor followed by a gated domain layer;
* :class:`ErmModel` - feature extractor followed by one or more affine
  heads whose outputs are averaged (the single-head case is plain ERM).

Gradients come from the in-repo reverse-mode tape (:mod:`gdu.autodiff`);
their binding contract is agreement with central finite differences.
Training modes: ``E2E`` updates every parameter; ``FT`` freezes the feature
extractor, so features are extracted once and only layer parameters move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .layer import (
    ACTIVATIONS,
    GduLayer,
    LearningMachine,
    _basis_inners,
    _gate_from_inners,
    basis_gram_matrix,
    forward_batch,
)
from .regularization import (
    RegConfig,
    _add_regularizers,
    _omega_ols_from_stats,
    omega_l1,
    omega_orth,
)

__all__ = [
    "FeatureExtractor",
    "GduModel",
    "ErmModel",
    "DatasetSplits",
    "TrainConfig",
    "TraceRow",
    "TrainTrace",
    "TrainingDivergedError",
    "NonFiniteGradientError",
    "init_feature_extractor",
    "init_erm_model",
    "fe_forward",
    "loss_ce",
    "objective",
    "gradients",
    "predict_logits",
    "accuracy",
    "train",
]

FE_NONLINEARITIES = ("relu", "tanh")
TRAIN_MODES = ("FT", "E2E")
OPTIMIZERS = ("SGD", "ADAM")


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
        for w, b in zip(self.weights, self.biases):
            wv, bv = ad.value_of(w), ad.value_of(b)
            if wv.ndim != 2 or bv.shape != (wv.shape[1],):
                raise ValueError("inconsistent extractor layer shapes")

    @property
    def layer_sizes(self) -> list:
        sizes = [ad.value_of(self.weights[0]).shape[0]]
        sizes += [ad.value_of(w).shape[1] for w in self.weights]
        return sizes

    @property
    def output_dim(self) -> int:
        return ad.value_of(self.weights[-1]).shape[1]


@dataclass
class GduModel:
    """Feature extractor parameters plus the gated domain layer."""

    fe: FeatureExtractor | None
    layer: GduLayer


@dataclass
class ErmModel:
    """Feature extractor plus uniformly averaged affine heads."""

    fe: FeatureExtractor | None
    heads: list

    def __post_init__(self):
        if not self.heads:
            raise ValueError("ErmModel needs at least one head")
        acts = {h.activation for h in self.heads}
        if len(acts) != 1:
            raise ValueError(f"all heads must share one activation, got {sorted(acts)}")


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


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "E2E"
    learning_rate: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 50
    patience: int = 50
    seed: int = 0
    optimizer: str = "ADAM"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    reg: RegConfig = field(default_factory=RegConfig)
    track_srip: bool = False

    def __post_init__(self):
        if self.mode not in TRAIN_MODES:
            raise ValueError(f"unknown training mode {self.mode!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("learning_rate, batch_size, max_epochs must be positive")
        if not (1 <= self.patience <= self.max_epochs):
            raise ValueError("patience must satisfy 1 <= patience <= max_epochs")


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

    def to_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv_text())


# -- initialization --------------------------------------------------------


def init_feature_extractor(layer_sizes, seed, nonlinearity="relu") -> FeatureExtractor:
    """Symmetric-uniform fan-in initialization, deterministic in ``seed``."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output sizes")
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
    activation: str = "identity",
) -> ErmModel:
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    fe = init_feature_extractor(layer_sizes, seed, nonlinearity)
    rng = np.random.default_rng(seed + 1)
    e = layer_sizes[-1]
    bound = 1.0 / math.sqrt(e)
    heads = [
        LearningMachine(
            rng.uniform(-bound, bound, size=(e, n_outputs)),
            np.zeros(n_outputs),
            activation,
        )
        for _ in range(n_heads)
    ]
    return ErmModel(fe, heads)


# -- forward passes ----------------------------------------------------------


def fe_forward(x, fe: FeatureExtractor | None):
    """Extractor forward pass for a single vector or a batch."""
    if fe is None:
        return x
    out = x
    last = len(fe.weights) - 1
    for i, (w, b) in enumerate(zip(fe.weights, fe.biases)):
        out = out @ w + b
        if i < last:
            out = ad.relu(out) if fe.nonlinearity == "relu" else ad.tanh(out)
    return out


def _heads_mean(heads, feats):
    out = None
    for head in heads:
        term = head(feats)
        out = term if out is None else out + term
    return out / float(len(heads))


def loss_ce(logits, label: int):
    """Categorical cross-entropy ``-log softmax(logits)[label]``."""
    vals = ad.value_of(logits)
    if vals.ndim != 1 or vals.shape[0] < 2:
        raise ValueError("loss_ce expects a logits vector with C >= 2")
    if not 0 <= label < vals.shape[0]:
        raise ValueError(f"label {label} out of range for C={vals.shape[0]}")
    z = logits - ad.detach(ad.amax(logits))
    return ad.log(ad.summation(ad.exp(z))) - z[label]


def cross_entropy_mean(logits, labels):
    """Mean categorical cross-entropy over a batch of logits rows."""
    labels = np.asarray(labels, dtype=np.int64)
    b = ad.value_of(logits).shape[0]
    z = logits - ad.detach(ad.amax(logits, axis=1, keepdims=True))
    lse = ad.log(ad.summation(ad.exp(z), axis=1))
    picked = z[np.arange(b), labels]
    return ad.mean(lse - picked)


# -- objective graph ---------------------------------------------------------


def trainable_arrays(model, train_mode: str) -> dict:
    """Name -> live parameter array for every tensor trained in this mode."""
    params: dict = {}
    if model.fe is not None and train_mode == "E2E":
        for i in range(len(model.fe.weights)):
            params[f"fe.w{i}"] = model.fe.weights[i]
            params[f"fe.b{i}"] = model.fe.biases[i]
    if isinstance(model, GduModel):
        params["layer.bases"] = model.layer.bases
        params["layer.weights"] = model.layer.weights
        params["layer.bias"] = model.layer.bias
    else:
        for j, head in enumerate(model.heads):
            params[f"head.w{j}"] = head.weights
            params[f"head.b{j}"] = head.bias
    return params


def _graph_fe(model, params_t, X, train_mode):
    if model.fe is None:
        return X
    if train_mode == "E2E":
        fe_t = FeatureExtractor(
            [params_t[f"fe.w{i}"] for i in range(len(model.fe.weights))],
            [params_t[f"fe.b{i}"] for i in range(len(model.fe.biases))],
            model.fe.nonlinearity,
        )
        return fe_forward(X, fe_t)
    return fe_forward(X, model.fe)


def _graph_layer(model: GduModel, params_t) -> GduLayer:
    return replace(
        model.layer,
        bases=params_t["layer.bases"],
        weights=params_t["layer.weights"],
        bias=params_t["layer.bias"],
    )


def _build_objective(model, X, y, reg: RegConfig, train_mode: str):
    """Build the objective graph; returns (objective node, param tensors)."""
    params_t = {
        name: ad.tensor(arr) for name, arr in trainable_arrays(model, train_mode).items()
    }
    feats = _graph_fe(model, params_t, X, train_mode)
    if isinstance(model, GduModel):
        layer_t = _graph_layer(model, params_t)
        # The gate's inner products are shared with the reconstruction term.
        a, norms = _basis_inners(feats, layer_t)
        beta = _gate_from_inners(a, norms, layer_t.mode, layer_t.kappa)
        logits = forward_batch(feats, layer_t, beta=beta)
        obj = _add_regularizers(cross_entropy_mean(logits, y), a, beta, layer_t, reg)
    else:
        heads_t = [
            LearningMachine(
                params_t[f"head.w{j}"], params_t[f"head.b{j}"], head.activation
            )
            for j, head in enumerate(model.heads)
        ]
        logits = _heads_mean(heads_t, feats)
        obj = cross_entropy_mean(logits, y)
    return obj, params_t


def objective(batch, model, reg: RegConfig) -> float:
    """Value of the training objective on ``batch = (X, y)``."""
    X, y = batch
    obj, _ = _build_objective(model, np.asarray(X, dtype=np.float64), y, reg, "E2E")
    return float(ad.value_of(obj))


def gradients(batch, model, reg: RegConfig, train_mode: str = "E2E") -> dict:
    """Gradient of the objective for every trainable tensor.

    In FT mode the extractor is frozen and its blocks are absent from the
    result. Non-finite entries raise, naming the offending block.
    """
    X, y = batch
    obj, params_t = _build_objective(
        model, np.asarray(X, dtype=np.float64), y, reg, train_mode
    )
    return _backprop(obj, params_t)


def _backprop(obj, params_t: dict, where: str = "") -> dict:
    """Backpropagate ``obj`` and return each block's gradient, checked finite.

    Blocks the objective does not reach get zeros; ``where`` is appended to
    the error message that names a non-finite block.
    """
    if isinstance(obj, ad.Tensor):
        obj.backward()
    grads = {}
    for name, t in params_t.items():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient in block {name!r}{where}")
        grads[name] = g
    return grads


# -- prediction ---------------------------------------------------------------


def predict_logits(model, X) -> np.ndarray:
    """Model logits for raw inputs (value path, per-sample gating)."""
    X = np.asarray(X, dtype=np.float64)
    feats = fe_forward(X, model.fe)
    if isinstance(model, GduModel):
        return np.asarray(forward_batch(feats, model.layer))
    return np.asarray(_heads_mean(model.heads, feats))


def accuracy(model, X, y) -> float:
    preds = np.argmax(predict_logits(model, X), axis=1)
    return float(np.mean(preds == np.asarray(y)))


# -- optimizers ---------------------------------------------------------------


class _Adam:
    def __init__(self, params: dict, cfg: TrainConfig):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0
        self.cfg = cfg

    def step(self, params: dict, grads: dict):
        c = self.cfg
        self.t += 1
        for name, g in grads.items():
            self.m[name] = c.adam_beta1 * self.m[name] + (1 - c.adam_beta1) * g
            self.v[name] = c.adam_beta2 * self.v[name] + (1 - c.adam_beta2) * g * g
            m_hat = self.m[name] / (1 - c.adam_beta1**self.t)
            v_hat = self.v[name] / (1 - c.adam_beta2**self.t)
            params[name] -= c.learning_rate * m_hat / (np.sqrt(v_hat) + c.adam_eps)


class _Sgd:
    def __init__(self, params: dict, cfg: TrainConfig):
        self.cfg = cfg

    def step(self, params: dict, grads: dict):
        for name, g in grads.items():
            params[name] -= self.cfg.learning_rate * g


# -- the training loop ---------------------------------------------------------


def _epoch_metrics(model, feats_train, y_train, reg: RegConfig, track_srip: bool):
    """Task loss and raw regularizer values on the (extracted) training set."""
    if isinstance(model, GduModel):
        # One pass of kernel statistics feeds the gate and every regularizer.
        layer = model.layer
        a, norms = _basis_inners(feats_train, layer)
        beta = _gate_from_inners(a, norms, layer.mode, layer.kappa)
        logits = np.asarray(forward_batch(feats_train, layer, beta=beta))
        ce = float(ad.value_of(cross_entropy_mean(logits, y_train)))
        k_bases = np.asarray(basis_gram_matrix(layer))
        ols = float(ad.value_of(_omega_ols_from_stats(a, k_bases, beta)))
        orth = float(omega_orth(k_bases, reg.orth_variant))
        l1 = float(omega_l1(beta))
        srip = float(omega_orth(k_bases, "SRIP")) if track_srip else None
    else:
        logits = np.asarray(_heads_mean(model.heads, feats_train))
        ce = float(ad.value_of(cross_entropy_mean(logits, y_train)))
        ols = orth = l1 = 0.0
        srip = None
    return ce, ols, orth, l1, srip


def train(data: DatasetSplits, config: TrainConfig, model):
    """Train ``model`` in place; return it with the best-validation snapshot.

    Deterministic given the config seed. Early stopping keeps the first
    parameter snapshot attaining the highest validation accuracy and stops
    after ``patience`` epochs without improvement.
    """
    params = trainable_arrays(model, config.mode)
    opt = _Adam(params, config) if config.optimizer == "ADAM" else _Sgd(params, config)
    rng = np.random.default_rng(config.seed)
    n = len(data.train_x)
    train_x = np.asarray(data.train_x, dtype=np.float64)
    train_y = np.asarray(data.train_y, dtype=np.int64)

    frozen_fe = config.mode == "FT" and model.fe is not None
    if frozen_fe:
        # The extractor never changes in FT mode: extract features once.
        feats_train_const = np.asarray(fe_forward(train_x, model.fe))
        feats_val_const = np.asarray(fe_forward(data.val_x, model.fe))
        batch_model = replace(model, fe=None)
    else:
        feats_train_const = feats_val_const = None
        batch_model = model

    trace = TrainTrace()
    best_val = -math.inf
    best_snapshot = None
    stale_epochs = 0
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            bx = feats_train_const[idx] if frozen_fe else train_x[idx]
            by = train_y[idx]
            obj, params_t = _build_objective(
                batch_model, bx, by, config.reg, "E2E" if frozen_fe else config.mode
            )
            if not np.isfinite(float(ad.value_of(obj))):
                raise TrainingDivergedError(epoch)
            if isinstance(obj, ad.Tensor):
                opt.step(params, _backprop(obj, params_t, f" at epoch {epoch}"))

        feats_train = (
            feats_train_const if frozen_fe else np.asarray(fe_forward(train_x, model.fe))
        )
        ce, ols, orth, l1, srip = _epoch_metrics(
            model, feats_train, train_y, config.reg, config.track_srip
        )
        if not np.isfinite(ce):
            raise TrainingDivergedError(epoch)
        if frozen_fe:
            val_acc = accuracy(batch_model, feats_val_const, data.val_y)
        else:
            val_acc = accuracy(model, data.val_x, data.val_y)
        trace.append(TraceRow(epoch, ce, val_acc, srip, ols, orth, l1))

        if val_acc > best_val:
            best_val = val_acc
            best_snapshot = {name: arr.copy() for name, arr in params.items()}
            stale_epochs = 0
        else:
            stale_epochs += 1
            if stale_epochs >= config.patience:
                break

    if best_snapshot is not None:
        for name, arr in params.items():
            arr[...] = best_snapshot[name]
    return model, trace
