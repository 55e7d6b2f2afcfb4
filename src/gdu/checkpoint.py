"""Versioned text checkpoints for models.

Format: a header line ``gdu-checkpoint <version>``, then a sequence of
key-length-value blocks, then ``end``.

* ``field <key> <token>`` - one scalar or string field (floats are hex
  encoded so round-trips are bit-exact; ``-`` encodes None).
* ``block <key> <ndim> <dim...> <count>`` - a matrix block, followed by
  ``count`` hex floats, eight to a line and separated by single spaces.

Every float is written as ``float.hex`` writes it, byte for byte, and all
of a block's values are encoded at once: a few numpy passes over their
bits fill one fixed-width ASCII row per value (sign, ``0x1.`` or
``0x0.``, 13 hex fraction digits, exponent, separator), and one mask
drops the rows' NUL padding. Nothing may follow ``end``.

A model is written as kind ``gdu-model``, or as kind ``erm-model`` when its
layer is UNIFORM: an ERM model stores no bases and no kernel, only its
heads' activation and one weight and one bias block per head. Both kinds
start with the extractor (``field fe_layers 0`` when there is none), so a
layer on its own is saved as the model ``GduModel(None, layer)``.

Readers reject unknown versions, truncated or malformed blocks and any
token after ``end``, each with a :class:`CheckpointError`. A token that
is not a hex float or a count names its field or block; model parts that
do not fit together (shapes, sizes) carry the constructor's
``ValueError`` as the cause.
"""

from __future__ import annotations

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

FORMAT_VERSION = 1
_VALUES_PER_LINE = 8


class CheckpointError(ValueError):
    """Raised for malformed or incompatible checkpoint contents."""


def _field_token(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    return _hex_text(value)


def _ascii(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


# ``_hex_text`` writes each value into one row of ``_ROW_BYTES`` bytes, NUL
# wherever its token is shorter than the row:
#   0      the sign, '-' or NUL
#   1:5    '0x1.', or '0x0.' below the normal range
#   5:18   the 52-bit fraction as 13 hex digits
#   18:24  'p', the exponent's sign and its 1-4 decimal digits
#   24     ' ' or '\n' after the value, NUL after the last one
#   25     NUL, so that a row holds whole 2-byte hex pairs
_ROW_BYTES = 26
_HEX_DIGITS = _ascii("0123456789abcdef")
# The two hex digits of each byte value, read as one uint16.
_HEX_PAIRS = np.frombuffer(b"".join(b"%02x" % v for v in range(256)), dtype=np.uint16)
# Bytes 18:24 for each biased exponent: 'p-1022' for subnormals (0) and
# 'p+<e - 1023>' above; zeros, infinities and NaNs are patched after.
_EXPONENTS = np.frombuffer(
    b"".join(b"%-6s" % (b"p%+d" % (max(e, 1) - 1023)) for e in range(2048)).replace(b" ", b"\0"),
    dtype=np.uint8,
).reshape(2048, 6)


def _hex_text(array) -> str:
    """The values of ``array`` in C order as ``float.hex`` tokens, byte for byte.

    ``_VALUES_PER_LINE`` tokens per line, separated by ``' '``, with no
    newline after the last. Each value's bits (little-endian) fill one row
    of fixed layout (see ``_ROW_BYTES``) in a few vectorized passes, and
    one mask drops the NUL padding of all rows at once.
    """
    raw = np.ascontiguousarray(array, dtype="<f8").reshape(-1).view(np.uint8).reshape(-1, 8)
    biased = ((raw[:, 7] & 0x7F).astype(np.uint16) << 4) | (raw[:, 6] >> 4)
    rows = np.zeros((len(raw), _ROW_BYTES), dtype=np.uint8)
    rows[:, 0] = (raw[:, 7] >> 7) * ord("-")
    rows[:, 1:5] = _ascii("0x1.")
    rows[:, 5] = _HEX_DIGITS[raw[:, 6] & 0xF]
    rows.view(np.uint16)[:, 3:9] = _HEX_PAIRS.take(raw[:, 5::-1])
    rows[:, 18:24] = _EXPONENTS.take(biased, axis=0)
    rows[:, 24] = ord(" ")
    rows[_VALUES_PER_LINE - 1 :: _VALUES_PER_LINE, 24] = ord("\n")
    rows[-1:, 24] = 0
    low, high = biased == 0, biased == 0x7FF
    if low.any() or high.any():
        fraction = raw[:, :6].any(axis=1) | (raw[:, 6] & 0xF).astype(bool)
        rows[low, 3] = ord("0")
        zero = low & ~fraction
        rows[zero, 6:24] = 0
        rows[zero, 18:21] = _ascii("p+0")
        rows[high, 1:24] = 0
        rows[high & ~fraction, 1:4] = _ascii("inf")
        nan = high & fraction
        rows[nan, 0] = 0
        rows[nan, 1:4] = _ascii("nan")
    return rows[rows != 0].tobytes().decode("ascii")


def _emit_block(lines: list, key: str, array: np.ndarray):
    array = np.asarray(array, dtype=np.float64)
    dims = " ".join(str(d) for d in array.shape)
    lines.append(f"block {key} {array.ndim} {dims} {array.size}".rstrip())
    if array.size:
        lines.append(_hex_text(array))


def _count(token: str, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        value = -1
    if value < 0:
        raise CheckpointError(f"{what}: expected a non-negative integer, found {token!r}")
    return value


def _hex_floats(tokens: list, what: str) -> np.ndarray:
    try:
        return np.fromiter(map(float.fromhex, tokens), np.float64, len(tokens))
    except ValueError as err:
        raise CheckpointError(f"{what}: {err}") from err


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

    def read_float_field(self, key: str, optional: bool = False):
        tok = self.read_field(key)
        if optional and tok == "-":
            return None
        return float(_hex_floats([tok], f"field {key!r}")[0])

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
            raise CheckpointError(
                f"block {key!r} declares {count} values for shape {shape}"
            )
        end = self.pos + count
        if end > len(self.tokens):
            raise CheckpointError("unexpected end of checkpoint")
        values = _hex_floats(self.tokens[self.pos : end], what)
        self.pos = end
        return values.reshape(shape)


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
    kappa = reader.read_float_field("kappa", optional=True)
    activation = reader.read_field("activation")
    num_bases = reader.read_count_field("num_bases")
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
    version = _count(reader.next(), "version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    kind = reader.read_field("kind")
    return reader, kind


def _read_erm_layer(reader: _Reader) -> GduLayer:
    activation = reader.read_field("activation")
    weights, bias = _read_machines(reader, "head", reader.read_count_field("num_heads"))
    return GduLayer(None, weights, bias, None, UNIFORM, activation=activation)


def model_from_text(text: str) -> GduModel:
    reader, kind = _open_reader(text)
    read_layer = {"gdu-model": _read_layer, "erm-model": _read_erm_layer}.get(kind)
    if read_layer is None:
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    try:
        fe = _read_fe(reader)
        layer = read_layer(reader)
        reader.expect("end")
        if reader.pos < len(reader.tokens):
            raise CheckpointError(f"unexpected {reader.tokens[reader.pos]!r} after 'end'")
        return GduModel(fe, layer)
    except CheckpointError:
        raise
    except ValueError as err:
        raise CheckpointError(f"invalid {kind} checkpoint: {err}") from err


def save_model(path, model):
    with open(path, "w", newline="\n") as fh:
        fh.write(model_to_text(model))


def load_model(path):
    with open(path) as fh:
        return model_from_text(fh.read())
