"""Reverse-mode automatic differentiation on top of numpy.

A :class:`Node` is an ndarray value.  One that requires grad also has a
:class:`Record`, which is all that the graph keeps of it: the gradient and,
for an op result, the parents' records, a closure that scatters an upstream
gradient to them, and the arrays that closure saves.  A record never holds
its node, so an op result's value lives as long as its node unless some
backward saves it, and a forward frees each other value once its last
Python reference goes (the design of Paszke et al. 2019, arXiv:1912.01703).
Calling :meth:`Node.backward` on a scalar node walks the records once in
reverse topological order, accumulating gradients additively, so values
reused in several places (diamond graphs) receive the sum of all path
contributions.  The walk consumes the graph: each record drops its closure,
parents and saved arrays once they have run, so activations are freed as
the walk goes and there is one backward per forward.

Each op declares, through :func:`make_node`, which parent values its
backward reads and whether it reads its own output; its record saves those
that are op results, and ``owned_bytes`` counts what they hold.

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
    """Closure left on a record that a backward walk consumed; the walk
    rejects such records in ``_toposort``, before any closure runs."""


class Record:
    """What the graph keeps of a value that requires grad: its gradient and,
    for an op result, its parents' records, the one-argument ``backward(g)``
    closure and the op values that closure saves.  A leaf's record has no
    parents, closure or saved arrays."""

    __slots__ = ("grad", "parents", "backward", "saved")

    def __init__(self, grad=None, parents: tuple = (), backward=None, saved: tuple = ()):
        self.grad: np.ndarray | None = grad
        self.parents = parents
        self.backward = backward
        self.saved = saved


class Node:
    """An ndarray value participating in a differentiable computation.  A
    node that requires grad has a :class:`Record`; a constant, or an op
    result made while no gradient flows, has none."""

    __slots__ = ("value", "_record", "_read")

    def __init__(self, value, requires_grad: bool = False):
        self.value = np.asarray(value)
        self._record = Record(np.zeros_like(self.value)) if requires_grad else None
        self._read = False  # some recorded backward reads the value

    @property
    def requires_grad(self) -> bool:
        return self._record is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._record is None else self._record.grad

    @grad.setter
    def grad(self, grad) -> None:
        self._record.grad = grad

    @property
    def _backward(self):
        """The record's closure: None for a leaf or a node without a record.
        A recorded op result's closure may be replaced by a wrapper that
        calls it (a tracer's timing wrapper, say)."""
        return None if self._record is None else self._record.backward

    @_backward.setter
    def _backward(self, backward) -> None:
        self._record.backward = backward

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
        """Reset the gradient to exact zeros.  A leaf whose gradient has its
        value's shape and dtype is zeroed in place, so a packed parameter
        keeps its view into the arena; any other gradient is replaced."""
        rec = self._record
        if rec is not None:
            if rec.backward is None and _fits(rec.grad, self.value):
                rec.grad.fill(0)
            else:
                rec.grad = np.zeros_like(self.value)

    def backward(self) -> None:
        """Backpropagate from a scalar node through the recorded graph.

        The graph is consumed as the walk goes: once a record's closure has
        run, the record drops it, its parents and its saved arrays, so
        whatever only the graph held is freed.  Records keep their ``grad``,
        and leaf records are never consumed.  There is one backward per
        forward: a walk that reaches a consumed record raises before it
        changes any gradient.
        """
        if self.value.size != 1:
            raise ShapeError(
                f"backward() requires a scalar loss, got shape {self.shape}")
        if self._record is None:
            raise RuntimeError("backward() needs a node that requires grad")
        order = _toposort(self._record)
        self.grad = np.ones_like(self.value)
        while order:
            rec = order.pop()
            if rec.backward is not None:
                if rec.grad is not None:
                    rec.backward(rec.grad)
                rec.backward, rec.parents, rec.saved = _consumed, (), ()

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


def _toposort(root: Record) -> list[Record]:
    order: list[Record] = []
    seen: set[int] = set()
    stack: list[tuple[Record, bool]] = [(root, False)]
    while stack:
        rec, expanded = stack.pop()
        if expanded:
            order.append(rec)
            continue
        if id(rec) in seen:
            continue
        if rec.backward is _consumed:
            raise RuntimeError(
                "backward() reached a graph node that an earlier backward() "
                "consumed; run the forward pass again (one backward per forward)")
        seen.add(id(rec))
        stack.append((rec, True))
        for parent in rec.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def parameter(value, dtype=None) -> Node:
    """Create a trainable leaf node with a zero-initialised gradient."""
    return Node(np.array(value, dtype=dtype), requires_grad=True)


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def view_like(flat: np.ndarray, view: np.ndarray, base: np.ndarray) -> np.ndarray:
    """The view of ``flat`` that lies in it as ``view`` lies in ``base``."""
    return np.ndarray(view.shape, flat.dtype, flat, _address(view) - _address(base),
                      view.strides)


def _packed(group: list[Node]) -> bool:
    """Whether ``group`` fills one earlier pack's value and gradient arrays."""
    values, grads = group[0].value.base, getattr(group[0].grad, "base", None)
    return (values is not None and grads is not None and values.ndim == 1
            and values.size == grads.size == sum(p.size for p in group)
            and all(p.value.base is values and p.grad is not None
                    and p.grad.base is grads for p in group))


def pack_parameters(params) -> list[tuple[np.ndarray, np.ndarray, list[Node]]]:
    """Lay ``params`` out in one flat value array and one flat gradient
    array per dtype, the parameter arena; return (values, grads, members)
    per dtype, members in ``params`` order.

    Each ``p.value`` and ``p.grad`` is rebound to a view of its dtype's
    arrays with the parameter's own memory layout, and the value is copied
    in.  The gradient array comes from ``np.zeros``; a gradient is copied in
    only when it holds a non-zero, so fresh parameters leave its pages
    untouched.  A gradient whose shape drifted from its parameter's stays
    bound, for ``Adam.step`` to reject.  The pack is idempotent: a dtype
    whose parameters already fill one earlier pack's arrays copies nothing
    and keeps them.  Elementwise work (``Adam.step``) can then run over a
    few long arrays instead of one short array per parameter.
    """
    params = list(params)
    if len({id(p) for p in params}) != len(params):
        raise ValueError("pack_parameters: a parameter is listed twice")
    groups: dict[np.dtype, list[Node]] = {}
    for p in params:
        groups.setdefault(p.value.dtype, []).append(p)
    arenas = []
    for dtype, group in groups.items():
        if _packed(group):
            arenas.append((group[0].value.base, group[0].grad.base, group))
            continue
        size = sum(p.size for p in group)
        values, grads = np.empty(size, dtype), np.zeros(size, dtype)
        lo = 0
        for p in group:
            # empty_like keeps p.value's axis order as one dense block, so a
            # tap-major conv weight stays tap-major
            at = (lo * dtype.itemsize, np.empty_like(p.value).strides)
            view = np.ndarray(p.shape, dtype, values, *at)
            view[...] = p.value
            grad, p.value = p.grad, view
            if grad is None or grad.shape == view.shape:
                p.grad = np.ndarray(p.shape, dtype, grads, *at)
                if grad is not None and grad.any():
                    p.grad[...] = grad
            lo += p.size
        arenas.append((values, grads, group))
    return arenas


def as_node(x) -> Node:
    return x if isinstance(x, Node) else Node(np.asarray(x))


def _fits(a, like) -> bool:
    return a is not None and a.shape == like.shape and a.dtype == like.dtype


def accumulate(rec: Record | None, grad: np.ndarray) -> None:
    """Add a gradient contribution to the record ``rec`` (no-op for None, a
    constant's).

    A leaf adds into its own gradient buffer in place when ``grad`` has that
    buffer's shape and dtype (a packed parameter's buffer is a view into the
    arena, which stays bound).  Otherwise the gradient is rebound to the sum,
    which broadcasts and upcasts; an op result takes its first contribution
    as it is and rebinds on the next.  A leaf never keeps ``grad`` itself,
    which ``add`` hands to every parent."""
    if rec is None:
        return
    if rec.grad is None:
        rec.grad = grad if rec.backward is not None else np.array(grad)
    elif rec.backward is None and _fits(grad, rec.grad):
        rec.grad += grad
    else:
        rec.grad = rec.grad + grad


def make_node(value: np.ndarray, parents: Iterable[Node], backward, *,
              reads: tuple, reads_output: bool = False) -> Node:
    """Wrap an op result, giving it a record only when gradients flow.

    ``backward(g)`` captures the parents' records and the arrays it reads,
    never a parent node.  ``reads`` are the parents whose values it reads,
    and ``reads_output`` says whether it reads ``value``: the record saves
    those that are op results, not leaves or constants, and the nodes are
    marked read, which ``relu(inplace=True)`` checks."""
    node = Node(value)
    if _GRAD_ENABLED:
        records = tuple(p._record for p in parents if p._record is not None)
        if records:
            for p in reads:
                p._read = True
            node._read = reads_output
            saved = [p.value for p in reads if p._backward is not None]
            if reads_output:
                saved.append(node.value)
            node._record = Record(None, records, backward, tuple(saved))
    return node


def owned_bytes(root: Node) -> list[tuple[Record, int]]:
    """Each op record of the graph under ``root`` with the bytes its saved
    arrays keep alive: all of each array whose memory they view, counted at
    the first record that saves it.  Leaf records are left out."""
    counted: set[int] = set()
    held = []
    for rec in _toposort(root._record):
        if rec.backward is None:
            continue
        size = 0
        for block in rec.saved:
            while isinstance(block.base, np.ndarray):
                block = block.base
            if id(block) not in counted:
                counted.add(id(block))
                size += block.nbytes
        held.append((rec, size))
    return held


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

def add(a, b, *rest) -> Node:
    """Elementwise sum.  Two operands broadcast.  Each further operand must
    have the shape and dtype of ``a + b``; it is added into that buffer, left
    to right, which gives the bits of chained ``+`` in one node that keeps no
    partial sums.  Every parent gets the same upstream gradient."""
    xs = tuple(as_node(v) for v in (a, b, *rest))
    out = xs[0].value + xs[1].value
    for v in xs[2:]:
        if v.shape != out.shape or v.dtype != out.dtype:
            raise ShapeError(
                f"add: operand {v.shape} {v.dtype} does not match the sum {out.shape} {out.dtype}")
        out += v.value
    targets = [(v._record, v.shape) for v in xs if v._record is not None]

    def backward(g):
        for rec, shape in targets:
            accumulate(rec, _unbroadcast(g, shape))

    return make_node(out, xs, backward, reads=())


def mul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    av, bv, ra, rb = a.value, b.value, a._record, b._record
    out = av * bv

    def backward(g):
        if ra is not None:
            accumulate(ra, _unbroadcast(g * bv, av.shape))
        if rb is not None:
            accumulate(rb, _unbroadcast(g * av, bv.shape))

    return make_node(out, (a, b), backward, reads=(a, b))


def div(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    av, bv, ra, rb = a.value, b.value, a._record, b._record
    out = av / bv

    def backward(g):
        if ra is not None:
            accumulate(ra, _unbroadcast(g / bv, av.shape))
        if rb is not None:
            accumulate(rb, _unbroadcast(-g * av / (bv * bv), bv.shape))

    return make_node(out, (a, b), backward, reads=(a, b))


def power(a, exponent: float) -> Node:
    a = as_node(a)
    av, ra = a.value, a._record
    exponent = float(exponent)
    out = av ** exponent

    def backward(g):
        accumulate(ra, g * exponent * av ** (exponent - 1.0))

    return make_node(out, (a,), backward, reads=(a,))


def reduce_sum(a, axis=None, keepdims: bool = False) -> Node:
    a = as_node(a)
    shape, ra = a.shape, a._record
    out = a.value.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        accumulate(ra, np.broadcast_to(g, shape).copy())

    return make_node(np.asarray(out), (a,), backward, reads=())
