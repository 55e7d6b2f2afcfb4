"""Versioned text checkpoints for models.

Format: a header line ``gdu-checkpoint <version>``, then a sequence of
key-length-value blocks, then ``end``.

* ``field <key> <token>`` - one scalar or string field (floats are hex
  encoded so round-trips are bit-exact; ``-`` encodes None).
* ``block <key> <ndim> <dim...> <count>`` - a matrix block, followed by
  ``count`` whitespace-separated hex floats (wrapped across lines).

A model is written as kind ``gdu-model``, or as kind ``erm-model`` when its
layer is UNIFORM: an ERM model stores no bases and no kernel, only its
heads' activation and one weight and one bias block per head. Both kinds
start with the extractor (``field fe_layers 0`` when there is none), so a
layer on its own is saved as the model ``GduModel(None, layer)``.

Readers reject unknown versions and truncated or malformed blocks.
"""

from __future__ import annotations

import numpy as np

from .kernel import KernelConfig
from .layer import UNIFORM, GduLayer
from .training import FeatureExtractor, GduModel

__all__ = [
    "CheckpointError",
    "save_model",
    "load_model",
    "model_to_text",
    "model_from_text",
]

FORMAT_VERSION = 1
_VALUES_PER_LINE = 8


class CheckpointError(ValueError):
    """Raised for malformed or incompatible checkpoint contents."""


def _field_token(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    return float(value).hex()


def _emit_block(lines: list, key: str, array: np.ndarray):
    array = np.asarray(array, dtype=np.float64)
    dims = " ".join(str(d) for d in array.shape)
    lines.append(f"block {key} {array.ndim} {dims} {array.size}".rstrip())
    flat = array.ravel().tolist()
    for start in range(0, len(flat), _VALUES_PER_LINE):
        lines.append(" ".join(map(float.hex, flat[start : start + _VALUES_PER_LINE])))


class _Reader:
    def __init__(self, text: str):
        self.tokens = text.split()
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.tokens):
            raise CheckpointError("unexpected end of checkpoint")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, token: str):
        got = self.next()
        if got != token:
            raise CheckpointError(f"expected {token!r}, found {got!r}")

    def read_field(self, key: str) -> str:
        self.expect("field")
        got = self.next()
        if got != key:
            raise CheckpointError(f"expected field {key!r}, found {got!r}")
        return self.next()

    def read_float_field(self, key: str):
        tok = self.read_field(key)
        if tok == "-":
            return None
        return float.fromhex(tok)

    def read_block(self, key: str) -> np.ndarray:
        self.expect("block")
        got = self.next()
        if got != key:
            raise CheckpointError(f"expected block {key!r}, found {got!r}")
        ndim = int(self.next())
        shape = tuple(int(self.next()) for _ in range(ndim))
        count = int(self.next())
        expected = int(np.prod(shape)) if shape else 1
        if count != expected:
            raise CheckpointError(
                f"block {key!r} declares {count} values for shape {shape}"
            )
        end = self.pos + count
        if end > len(self.tokens):
            raise CheckpointError("unexpected end of checkpoint")
        values = list(map(float.fromhex, self.tokens[self.pos : end]))
        self.pos = end
        return np.array(values, dtype=np.float64).reshape(shape)


def _stack_blocks(blocks: list, kind: str, axis: int = 0) -> np.ndarray:
    """Stack the per-basis or per-head blocks of one kind; they must exist and share a shape."""
    shapes = sorted({b.shape for b in blocks})
    if len(shapes) != 1:
        raise CheckpointError(f"{kind} blocks must share one shape, found {shapes}")
    return np.stack(blocks, axis=axis)


def _emit_layer(lines: list, layer: GduLayer):
    lines.append(f"field mode {layer.mode}")
    lines.append(f"field sigma {_field_token(layer.kernel.sigma)}")
    lines.append(f"field kappa {_field_token(layer.kappa)}")
    lines.append(f"field activation {layer.activation}")
    lines.append(f"field num_bases {layer.num_bases}")
    # Format v1 stores one block per basis and per machine.
    for j in range(layer.num_bases):
        _emit_block(lines, f"basis{j}", layer.bases[j])
    _emit_machines(lines, layer, "mach")


def _emit_machines(lines: list, layer: GduLayer, prefix: str):
    for j in range(layer.num_bases):
        _emit_block(lines, f"{prefix}_w{j}", layer.weights[:, j])
        _emit_block(lines, f"{prefix}_b{j}", layer.bias[j])


def _read_machines(reader: _Reader, prefix: str, count: int) -> tuple:
    """The stacked weights (e, M, C) and bias (M, C) of ``count`` machines."""
    weights, bias = [], []
    for j in range(count):
        weights.append(reader.read_block(f"{prefix}_w{j}"))
        bias.append(reader.read_block(f"{prefix}_b{j}"))
    return _stack_blocks(weights, f"{prefix}_w", axis=1), _stack_blocks(bias, f"{prefix}_b")


def _read_layer(reader: _Reader) -> GduLayer:
    mode = reader.read_field("mode")
    sigma = reader.read_float_field("sigma")
    kappa = reader.read_float_field("kappa")
    activation = reader.read_field("activation")
    num_bases = int(reader.read_field("num_bases"))
    bases = _stack_blocks([reader.read_block(f"basis{j}") for j in range(num_bases)], "basis")
    weights, bias = _read_machines(reader, "mach", num_bases)
    return GduLayer(bases, weights, bias, KernelConfig(sigma), mode, kappa, activation)


def _emit_fe(lines: list, fe: FeatureExtractor | None):
    if fe is None:
        lines.append("field fe_layers 0")
        return
    lines.append(f"field fe_layers {len(fe.weights)}")
    lines.append(f"field fe_nonlinearity {fe.nonlinearity}")
    for i, (w, b) in enumerate(zip(fe.weights, fe.biases)):
        _emit_block(lines, f"fe_w{i}", w)
        _emit_block(lines, f"fe_b{i}", b)


def _read_fe(reader: _Reader) -> FeatureExtractor | None:
    n_layers = int(reader.read_field("fe_layers"))
    if n_layers == 0:
        return None
    nonlinearity = reader.read_field("fe_nonlinearity")
    weights, biases = [], []
    for i in range(n_layers):
        weights.append(reader.read_block(f"fe_w{i}"))
        biases.append(reader.read_block(f"fe_b{i}"))
    return FeatureExtractor(weights, biases, nonlinearity)


def model_to_text(model: GduModel) -> str:
    layer = model.layer
    erm = layer.mode == UNIFORM
    kind = "erm-model" if erm else "gdu-model"
    lines = [f"gdu-checkpoint {FORMAT_VERSION}", f"field kind {kind}"]
    _emit_fe(lines, model.fe)
    if erm:
        lines.append(f"field activation {layer.activation}")
        lines.append(f"field num_heads {layer.num_bases}")
        _emit_machines(lines, layer, "head")
    else:
        _emit_layer(lines, layer)
    lines.append("end")
    return "\n".join(lines) + "\n"


def _open_reader(text: str) -> tuple:
    reader = _Reader(text)
    reader.expect("gdu-checkpoint")
    version = int(reader.next())
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    kind = reader.read_field("kind")
    return reader, kind


def _read_erm_layer(reader: _Reader) -> GduLayer:
    activation = reader.read_field("activation")
    weights, bias = _read_machines(reader, "head", int(reader.read_field("num_heads")))
    return GduLayer(None, weights, bias, None, UNIFORM, activation=activation)


def model_from_text(text: str) -> GduModel:
    reader, kind = _open_reader(text)
    read_layer = {"gdu-model": _read_layer, "erm-model": _read_erm_layer}.get(kind)
    if read_layer is None:
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    fe = _read_fe(reader)
    layer = read_layer(reader)
    reader.expect("end")
    return GduModel(fe, layer)


def save_model(path, model):
    with open(path, "w", newline="\n") as fh:
        fh.write(model_to_text(model))


def load_model(path):
    with open(path) as fh:
        return model_from_text(fh.read())
