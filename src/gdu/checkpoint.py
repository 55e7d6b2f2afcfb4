"""Versioned text checkpoints for models.

Format: a header line ``gdu-checkpoint <version>``, then a sequence of
key-length-value blocks, then ``end``, which nothing may follow.

* ``field <key> <token>`` - one scalar or string field (floats are
  written as ``float.hex`` tokens, so round-trips are bit-exact; ``-``
  encodes None).
* ``block <key> <ndim> <dim...> <count>`` - a matrix block. Unless
  ``count`` is 0, the next line holds its values as one token: the
  standard padded base64 of their little-endian float64 bytes in C order,
  with no line breaks. Every bit pattern comes back as it was written,
  signed zeros and the sign and payload of a NaN included.

Every model is written as it sits in memory. First the extractor:
``field fe_layers`` (0 when there is none), then its nonlinearity and one
weight and one bias block per layer. Then the layer: the fields ``mode``,
``sigma`` (``-`` for a UNIFORM layer, which has no kernel) and ``kappa``,
and its three stacked arrays as the blocks ``bases`` (M, N, e), absent
exactly when the mode is UNIFORM, ``weights`` (e, M, C) and ``bias``
(M, C). An ERM model with K heads is the UNIFORM layer with M = K; a
layer on its own is saved as the model ``GduModel(None, layer)``.

Files are ASCII, and ``model_from_text`` reads a ``str``: bytes or
any other type raise a :class:`CheckpointError` that names the type.
Readers reject a file that is not ASCII, unknown versions,
truncated or malformed blocks and any token after ``end``, each with a
:class:`CheckpointError`. Parsing is strict: a float field takes ``-``
or a token that ``float.hex`` writes, and a count, the version's
included, only ASCII digits. Any other field token names its field, and
the version's names the version; a block whose token is not base64, or
decodes to other than 8 bytes per declared value, names its block. Model
parts that do not fit together (shapes, sizes, a kernel the mode does
not take) carry the constructor's ``ValueError`` as the cause.
"""

from __future__ import annotations

import base64
import math

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

FORMAT_VERSION = 4


class CheckpointError(ValueError):
    """Raised for malformed or incompatible checkpoint contents."""


def _field_token(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    return float(value).hex()


def _emit_block(lines: list, key: str, array: np.ndarray):
    array = np.asarray(array, dtype="<f8")
    dims = " ".join(str(d) for d in array.shape)
    lines.append(f"block {key} {array.ndim} {dims} {array.size}".rstrip())
    if array.size:
        lines.append(base64.b64encode(array.tobytes()).decode("ascii"))


def _count(token: str, what: str) -> int:
    """A count of ASCII digits; ``int`` alone would take ``+4``, ``0_0`` or non-ASCII digits."""
    if not (token.isascii() and token.isdigit()):
        raise CheckpointError(f"{what}: expected a non-negative integer, found {token!r}")
    return int(token)


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
        """A float field; ``-`` reads as None.

        Only a token that ``float.hex`` writes is a float: ``float.fromhex``
        alone reads a decimal ``1.5`` as the hex 0x1.5 = 1.3125, and raises
        OverflowError past the largest float.
        """
        tok = self.read_field(key)
        if tok == "-":
            return None
        try:
            value = float.fromhex(tok)
        except (ValueError, OverflowError):
            value = None
        if value is None or value.hex() != tok:
            raise CheckpointError(f"field {key!r}: expected a float.hex token, found {tok!r}")
        return value

    def read_count_field(self, key: str) -> int:
        return _count(self.read_field(key), f"field {key!r}")

    def read_block(self, key: str) -> np.ndarray:
        self.expect("block")
        got = self.next()
        if got != key:
            raise CheckpointError(f"expected block {key!r}, found {got!r}")
        what = f"block {key!r}"
        ndim = _count(self.next(), what)
        shape = tuple(_count(self.next(), what) for _ in range(ndim))
        count = _count(self.next(), what)
        if count != math.prod(shape):
            raise CheckpointError(f"{what} declares {count} values for shape {shape}")
        if count == 0:
            return np.empty(shape)
        token = self.next()
        try:
            raw = base64.b64decode(token, validate=True)
        except ValueError as err:
            raise CheckpointError(f"{what}: {err}") from err
        if len(raw) != 8 * count:
            raise CheckpointError(f"{what}: {len(raw)} bytes for {count} float64 values")
        return np.frombuffer(raw, "<f8").astype(np.float64).reshape(shape)


def _emit_layer(lines: list, layer: GduLayer):
    sigma = None if layer.kernel is None else layer.kernel.sigma
    lines.append(f"field mode {layer.mode}")
    lines.append(f"field sigma {_field_token(sigma)}")
    lines.append(f"field kappa {_field_token(layer.kappa)}")
    if layer.bases is not None:
        _emit_block(lines, "bases", layer.bases)
    _emit_block(lines, "weights", layer.weights)
    _emit_block(lines, "bias", layer.bias)


def _read_layer(reader: _Reader) -> GduLayer:
    mode = reader.read_field("mode")
    sigma = reader.read_float_field("sigma")
    kappa = reader.read_float_field("kappa")
    bases = None if mode == UNIFORM else reader.read_block("bases")
    weights, bias = reader.read_block("weights"), reader.read_block("bias")
    kernel = None if sigma is None else KernelConfig(sigma)
    return GduLayer(bases, weights, bias, kernel, mode, kappa)


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
    n_layers = reader.read_count_field("fe_layers")
    if n_layers == 0:
        return None
    nonlinearity = reader.read_field("fe_nonlinearity")
    weights, biases = [], []
    for i in range(n_layers):
        weights.append(reader.read_block(f"fe_w{i}"))
        biases.append(reader.read_block(f"fe_b{i}"))
    return FeatureExtractor(weights, biases, nonlinearity)


def model_to_text(model: GduModel) -> str:
    lines = [f"gdu-checkpoint {FORMAT_VERSION}"]
    _emit_fe(lines, model.fe)
    _emit_layer(lines, model.layer)
    lines.append("end")
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> GduModel:
    if not isinstance(text, str):
        raise CheckpointError(f"checkpoint text must be str, got {type(text).__name__}")
    reader = _Reader(text)
    reader.expect("gdu-checkpoint")
    version = _count(reader.next(), "version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    try:
        fe = _read_fe(reader)
        layer = _read_layer(reader)
        reader.expect("end")
        if reader.pos < len(reader.tokens):
            raise CheckpointError(f"unexpected {reader.tokens[reader.pos]!r} after 'end'")
        return GduModel(fe, layer)
    except CheckpointError:
        raise
    except ValueError as err:
        raise CheckpointError(f"invalid checkpoint: {err}") from err


def save_model(path, model):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(model_to_text(model))


def load_model(path):
    try:
        with open(path, encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        raise CheckpointError(f"checkpoint file is not ASCII: {err}") from err
    return model_from_text(text)
