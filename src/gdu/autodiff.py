"""Reverse-mode automatic differentiation on numpy arrays: the tape.

A :class:`Tensor` is a numpy array plus the closure that propagates an
output gradient to its parents. Calling ``backward()`` on a scalar output
walks the tape in reverse topological order and accumulates ``grad`` on
every reachable tensor.

There is no library of ops here, and a tensor has no arithmetic
operators. Each term of the training objective (the extractor, the kernel
statistics, the gate, the ensemble, the loss, each regularizer and their
weighted sum) is one node that its own module builds with a closed-form
backward, and whose forward runs the same numpy operations for arrays and
tensors. ``tests/oracles.py`` keeps the generic per-op functions that
reference chains and tests still use.

Only tensors are differentiated. A node records only its tensor operands
as parents; a numpy array or scalar operand is a constant, and no gradient
is computed for it. A closure must not reference the node it is the
backward of: that reference cycle would keep every graph alive until the
cyclic garbage collector runs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "tensor", "value_of", "is_tensor"]


class Tensor:
    """A numpy array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    # Numpy defers a binary operation with a tensor to the tensor, which
    # has no operators, so mixing the two raises TypeError.
    __array_ufunc__ = None

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor({self.data!r})"

    def _accumulate(self, g):
        if self.grad is None:
            # An owned copy: ``g`` may be a view shared with other nodes.
            self.grad = np.empty(self.data.shape)
            self.grad[...] = g
        else:
            self.grad += g

    def backward(self):
        """Backpropagate from this (scalar) tensor through the tape."""
        if self.data.ndim != 0:
            raise ValueError(
                f"backward() requires a scalar output, got shape {self.data.shape}"
            )
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.asarray(1.0))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


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
