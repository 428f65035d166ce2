"""Reverse-mode automatic differentiation on top of numpy.

A :class:`Node` wraps an ndarray value together with an optional gradient
buffer and a closure that scatters an upstream gradient to the node's
parents.  Calling :meth:`Node.backward` on a scalar node walks the graph
once in reverse topological order, accumulating gradients additively, so
values reused in several places (diamond graphs) receive the sum of all
path contributions.  The walk consumes the graph: each node drops its
closure and parents once they have run, so activations are freed as the
walk goes and there is one backward per forward.

Only the arithmetic needed by the segmentation stack lives here; the
convolution / pooling / normalisation primitives are in ``nnops``.
"""

from __future__ import annotations

import contextlib
from typing import Iterable

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor extents are incompatible with an operation."""


_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that suspends graph recording (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _consumed(g):
    """Closure left on a node whose graph a backward walk consumed; the walk
    rejects such nodes in ``_toposort``, before any closure runs."""


class Node:
    """An ndarray value participating in a differentiable computation."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad: bool = False,
                 parents: tuple = (), backward=None):
        self.value = np.asarray(value)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = (
            np.zeros_like(self.value) if requires_grad and backward is None else None
        )
        self._parents = parents
        self._backward = backward

    # -- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def ndim(self) -> int:
        return self.value.ndim

    @property
    def dtype(self):
        return self.value.dtype

    @property
    def size(self) -> int:
        return self.value.size

    def item(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    # -- gradient plumbing ---------------------------------------------
    def zero_grad(self) -> None:
        """Reset the gradient buffer to exact zeros."""
        if self.requires_grad:
            self.grad = np.zeros_like(self.value)

    def detach(self) -> "Node":
        return Node(self.value)

    def backward(self) -> None:
        """Backpropagate from a scalar node through the recorded graph.

        The graph is consumed as the walk goes: once a node's closure has
        run, the node drops it and its parents, so whatever only the graph
        held is freed.  Nodes keep their ``.grad``, and leaf parameters are
        never consumed.  There is one backward per forward: a walk that
        reaches a consumed node raises before it changes any gradient.
        """
        if self.value.size != 1:
            raise ShapeError(
                f"backward() requires a scalar loss, got shape {self.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.value)
        while order:
            node = order.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node._backward, node._parents = _consumed, ()

    # -- operator sugar --------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(as_node(other), -1.0))

    def __rsub__(self, other):
        return add(as_node(other), mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_node(other), self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def sum(self, axis=None, keepdims: bool = False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        total = reduce_sum(self, axis=axis, keepdims=keepdims)
        # the exact quotient (size/n)/size = 1/n, correctly rounded
        return mul(total, total.size / self.size)


def _toposort(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._backward is _consumed:
            raise RuntimeError(
                "backward() reached a graph node that an earlier backward() "
                "consumed; run the forward pass again (one backward per forward)")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def parameter(value, dtype=None) -> Node:
    """Create a trainable leaf node with a zero-initialised gradient."""
    return Node(np.array(value, dtype=dtype), requires_grad=True)


def as_node(x) -> Node:
    return x if isinstance(x, Node) else Node(np.asarray(x))


def accumulate(node: Node, grad: np.ndarray) -> None:
    """Add a gradient contribution to ``node`` (no-op for constants)."""
    if node.requires_grad:
        node.grad = grad if node.grad is None else node.grad + grad


def make_node(value: np.ndarray, parents: Iterable[Node], backward) -> Node:
    """Wrap an op result, recording the graph only when gradients flow."""
    parents = tuple(parents)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        return Node(value, requires_grad=True, parents=parents, backward=backward)
    return Node(value)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` reversing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- arithmetic primitives ------------------------------------------------

def add(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    out = a.value + b.value

    def backward(g):
        if a.requires_grad:
            accumulate(a, _unbroadcast(g, a.value.shape))
        if b.requires_grad:
            accumulate(b, _unbroadcast(g, b.value.shape))

    return make_node(out, (a, b), backward)


def mul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    out = a.value * b.value

    def backward(g):
        if a.requires_grad:
            accumulate(a, _unbroadcast(g * b.value, a.value.shape))
        if b.requires_grad:
            accumulate(b, _unbroadcast(g * a.value, b.value.shape))

    return make_node(out, (a, b), backward)


def div(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    out = a.value / b.value

    def backward(g):
        if a.requires_grad:
            accumulate(a, _unbroadcast(g / b.value, a.value.shape))
        if b.requires_grad:
            accumulate(b, _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))

    return make_node(out, (a, b), backward)


def power(a, exponent: float) -> Node:
    a = as_node(a)
    exponent = float(exponent)
    out = a.value ** exponent

    def backward(g):
        accumulate(a, g * exponent * a.value ** (exponent - 1.0))

    return make_node(out, (a,), backward)


def reduce_sum(a, axis=None, keepdims: bool = False) -> Node:
    a = as_node(a)
    out = a.value.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        accumulate(a, np.broadcast_to(g, a.value.shape).copy())

    return make_node(np.asarray(out), (a,), backward)
