"""Reverse-mode automatic differentiation on numpy arrays.

A small tape-based engine: every operation on a :class:`Tensor` records a
closure that propagates the output gradient to its parents. Calling
``backward()`` on a scalar output walks the tape in reverse topological
order and accumulates ``grad`` on every reachable tensor.

All module-level functions (``exp``, ``summation``, ``matmul_`` via ``@``,
...) also accept plain numpy arrays or Python scalars, in which case they
evaluate eagerly and return numpy results. This lets the same numerical
code serve both inference (arrays in, arrays out) and training (tensors
in, gradients out).

Only tensors are differentiated. A numpy array or scalar operand of a
tensor operation is a constant: it is not recorded on the tape, and no
gradient is computed for it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "tensor",
    "value_of",
    "is_tensor",
    "exp",
    "log",
    "sqrt",
    "tanh",
    "relu",
    "absolute",
    "maximum",
    "summation",
    "mean",
    "amax",
    "stack",
    "concatenate",
    "reshape",
    "transpose",
    "detach",
    "spectral_norm_sym",
]


class Tensor:
    """A numpy array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    # Make numpy defer binary operations to our reflected operators.
    __array_ufunc__ = None

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backward = backward

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def T(self):
        return transpose(self)

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        return f"Tensor({self.data!r})"

    def item(self):
        return float(self.data)

    # -- graph plumbing ------------------------------------------------

    def _accumulate(self, g):
        if self.grad is None:
            # An owned copy: ``g`` may be a view shared with other nodes.
            self.grad = np.empty(self.data.shape)
            self.grad[...] = g
        else:
            self.grad += g

    def detach(self):
        return Tensor(self.data)

    def backward(self):
        """Backpropagate from this (scalar) tensor through the tape."""
        if self.data.ndim != 0:
            raise ValueError(
                f"backward() requires a scalar output, got shape {self.data.shape}"
            )
        order = []
        seen = set()
        stack_ = [(self, False)]
        while stack_:
            node, expanded = stack_.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack_.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack_.append((p, False))
        self._accumulate(np.asarray(1.0))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operators -----------------------------------------------------

    def __add__(self, other):
        return _binary(
            self, other, lambda a, b: a + b, lambda g, a, b: g, lambda g, a, b: g
        )

    __radd__ = __add__

    def __sub__(self, other):
        return _binary(
            self, other, lambda a, b: a - b, lambda g, a, b: g, lambda g, a, b: -g
        )

    def __rsub__(self, other):
        return _binary(
            other, self, lambda a, b: a - b, lambda g, a, b: g, lambda g, a, b: -g
        )

    def __mul__(self, other):
        return _binary(
            self,
            other,
            lambda a, b: a * b,
            lambda g, a, b: g * b,
            lambda g, a, b: g * a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _binary(
            self,
            other,
            lambda a, b: a / b,
            lambda g, a, b: g / b,
            lambda g, a, b: -g * a / (b * b),
        )

    def __rtruediv__(self, other):
        return _binary(
            other,
            self,
            lambda a, b: a / b,
            lambda g, a, b: g / b,
            lambda g, a, b: -g * a / (b * b),
        )

    def __neg__(self):
        return _unary(self, lambda a: -a, lambda g, a, out: -g)

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("Tensor ** exponent supports numeric exponents only")
        return _unary(self, lambda a: a**p, lambda g, a, out: g * p * a ** (p - 1))

    def __matmul__(self, other):
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)

    def __getitem__(self, idx):
        parent = self

        def bw(g, a=parent, index=idx):
            buf = np.zeros_like(a.data)
            np.add.at(buf, index, g)
            a._accumulate(buf)

        return Tensor(self.data[idx], (parent,), bw)


def tensor(data):
    """Wrap ``data`` in a fresh leaf :class:`Tensor`."""
    return Tensor(data)


def is_tensor(x):
    return isinstance(x, Tensor)


def value_of(x):
    """Return the underlying numpy value of ``x`` (tensor or array-like)."""
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def detach(x):
    return x.detach() if isinstance(x, Tensor) else x


def _tensors(parts):
    """The tape parents among ``parts``: its tensors, in order."""
    return tuple(p for p in parts if isinstance(p, Tensor))


def _unbroadcast(g, shape):
    """Reduce gradient ``g`` to ``shape`` by summing broadcast axes."""
    g = np.asarray(g)
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(a, b, fwd, da, db):
    a_t, b_t = isinstance(a, Tensor), isinstance(b, Tensor)
    if not a_t and not b_t:
        return fwd(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    av, bv = value_of(a), value_of(b)
    out = Tensor(fwd(av, bv), _tensors((a, b)))

    def bw(g):
        if a_t:
            a._accumulate(_unbroadcast(da(g, av, bv), av.shape))
        if b_t:
            b._accumulate(_unbroadcast(db(g, av, bv), bv.shape))

    out._backward = bw
    return out


def _unary(a, fwd, da):
    if not isinstance(a, Tensor):
        return fwd(np.asarray(a, dtype=np.float64))
    out = Tensor(fwd(a.data), (a,))
    # The closure must not reference ``out`` itself: out -> _backward -> bw
    # -> out would be a reference cycle that keeps every graph alive until
    # the cyclic garbage collector runs.
    out_data = out.data

    def bw(g):
        a._accumulate(da(g, a.data, out_data))

    out._backward = bw
    return out


def _matmul(a, b):
    a_t, b_t = isinstance(a, Tensor), isinstance(b, Tensor)
    av, bv = value_of(a), value_of(b)
    if not a_t and not b_t:
        return av @ bv
    if av.ndim > 2 or bv.ndim > 2:
        raise ValueError("matmul supports 1-D and 2-D operands only")
    out = Tensor(av @ bv, _tensors((a, b)))

    # A 1-D operand contributes an outer product; for a dot product ``g`` is
    # 0-d and the outer product reduces to ``g * v``.
    def bw(g):
        if a_t:
            a._accumulate(g @ bv.T if bv.ndim == 2 else np.multiply.outer(g, bv))
        if b_t:
            b._accumulate(av.T @ g if av.ndim == 2 else np.multiply.outer(av, g))

    out._backward = bw
    return out


# -- elementwise functions ----------------------------------------------


def exp(x):
    return _unary(x, np.exp, lambda g, a, out: g * out)


def log(x):
    return _unary(x, np.log, lambda g, a, out: g / a)


def sqrt(x):
    return _unary(x, np.sqrt, lambda g, a, out: g * 0.5 / out)


def tanh(x):
    return _unary(x, np.tanh, lambda g, a, out: g * (1.0 - out * out))


def relu(x):
    return _unary(
        x, lambda a: np.maximum(a, 0.0), lambda g, a, out: g * (a > 0.0)
    )


def absolute(x):
    return _unary(x, np.abs, lambda g, a, out: g * np.sign(a))


def maximum(a, b):
    """Elementwise maximum; gradient splits evenly on exact ties."""

    def da(g, av, bv):
        return g * np.where(av > bv, 1.0, np.where(av == bv, 0.5, 0.0))

    def db(g, av, bv):
        return g * np.where(bv > av, 1.0, np.where(av == bv, 0.5, 0.0))

    return _binary(a, b, np.maximum, da, db)


# -- reductions -----------------------------------------------------------


def _expand_reduced(g, in_shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, in_shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, in_shape)


def summation(x, axis=None, keepdims=False):
    if not isinstance(x, Tensor):
        return np.sum(np.asarray(x, dtype=np.float64), axis=axis, keepdims=keepdims)
    out = Tensor(np.sum(x.data, axis=axis, keepdims=keepdims), (x,))

    def bw(g):
        x._accumulate(_expand_reduced(g, x.data.shape, axis, keepdims))

    out._backward = bw
    return out


def mean(x, axis=None, keepdims=False):
    shape = value_of(x).shape
    if axis is None:
        count = int(np.prod(shape)) if shape else 1
    else:
        count = shape[axis]
    return summation(x, axis=axis, keepdims=keepdims) / float(count)


def amax(x, axis=None, keepdims=False):
    """Maximum reduction; gradient splits evenly across tied maxima."""
    if not isinstance(x, Tensor):
        return np.max(np.asarray(x, dtype=np.float64), axis=axis, keepdims=keepdims)
    out_data = np.max(x.data, axis=axis, keepdims=keepdims)
    out = Tensor(out_data, (x,))

    def bw(g):
        full_max = _expand_reduced(out_data, x.data.shape, axis, keepdims)
        mask = (x.data == full_max).astype(np.float64)
        counts = _expand_reduced(
            np.sum(mask, axis=axis, keepdims=keepdims), x.data.shape, axis, keepdims
        )
        x._accumulate(_expand_reduced(g, x.data.shape, axis, keepdims) * mask / counts)

    out._backward = bw
    return out


# -- shape manipulation ---------------------------------------------------


def reshape(x, shape):
    if not isinstance(x, Tensor):
        return np.reshape(np.asarray(x, dtype=np.float64), shape)
    out = Tensor(x.data.reshape(shape), (x,))

    def bw(g):
        x._accumulate(g.reshape(x.data.shape))

    out._backward = bw
    return out


def transpose(x):
    if not isinstance(x, Tensor):
        return np.asarray(x, dtype=np.float64).T
    out = Tensor(x.data.T, (x,))

    def bw(g):
        x._accumulate(g.T)

    out._backward = bw
    return out


def stack(parts, axis=0):
    data = np.stack([value_of(p) for p in parts], axis=axis)
    parents = _tensors(parts)
    if not parents:
        return data
    out = Tensor(data, parents)

    def bw(g):
        for i, p in enumerate(parts):
            if isinstance(p, Tensor):
                p._accumulate(np.take(g, i, axis=axis))

    out._backward = bw
    return out


def concatenate(parts, axis=0):
    values = [value_of(p) for p in parts]
    data = np.concatenate(values, axis=axis)
    parents = _tensors(parts)
    if not parents:
        return data
    out = Tensor(data, parents)
    sizes = [v.shape[axis] for v in values]

    def bw(g):
        offset = 0
        for p, size in zip(parts, sizes):
            if isinstance(p, Tensor):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offset, offset + size)
                p._accumulate(g[tuple(sl)])
            offset += size

    out._backward = bw
    return out


# -- linear algebra --------------------------------------------------------


def spectral_norm_sym(x):
    """Largest absolute eigenvalue of a symmetric matrix.

    The value comes from a dense symmetric eigendecomposition, for plain
    arrays (returned as a float) and tensors alike. The gradient is
    ``sign(lambda*) u u^T`` for the dominant eigenpair, which is exact
    whenever the dominant eigenvalue is simple.
    """
    data = value_of(x)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {data.shape}")
    eigvals, eigvecs = np.linalg.eigh(data)
    i = int(np.argmax(np.abs(eigvals)))
    val = abs(float(eigvals[i]))
    if not isinstance(x, Tensor):
        return val
    u = eigvecs[:, i]
    sign = 1.0 if eigvals[i] >= 0 else -1.0
    out = Tensor(val, (x,))

    def bw(g):
        x._accumulate(g * sign * np.outer(u, u))

    out._backward = bw
    return out
