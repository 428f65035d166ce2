"""Dice/Tanimoto similarity family, complements, class weighting, the
multitask objective, and the 2-D analytic field sampler.

All coefficients are similarities in [0, 1] (1 = perfect agreement); the
training objective is ``1 - coefficient``.  Every ratio is smoothed by
adding ``eps`` to numerator and denominator, which also fixes the value of
empty/empty class pairs at 1 (no penalty).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .autodiff import Node, as_node

EPS = 1e-5

LOSS_IDS = ("d1", "d2", "tanimoto",
            "d1-complement", "d2-complement", "tanimoto-complement")


def _class_sums(x: Node) -> Node:
    # Sum over every axis except the class axis (axis 1).
    axes = (0,) + tuple(range(2, x.ndim))
    return x.sum(axis=axes)


def _weights(p: Node, weights) -> Node | None:
    if weights is None:
        return None
    w = np.asarray(weights, dtype=np.float64)
    if p.ndim < 2:
        raise ValueError("weighted losses need a class axis (axis 1)")
    if w.shape != (p.shape[1],):
        raise ValueError(
            f"weight vector has length {w.shape}, expected ({p.shape[1]},)")
    return Node(w)


def _pooled(w: Node | None, *terms: Node) -> Node:
    """Sum the terms over all elements, or weight their class sums by ``w``.

    The unweighted case is not unit weights: pooling per class first would
    change the f32 rounding and would need a class axis.
    """
    first, *rest = (t.sum() if w is None else _class_sums(t) for t in terms)
    total = sum(rest, first)
    return total if w is None else (w * total).sum()


def _ratio(num: Node, den: Node, eps: float) -> Node:
    return (num + eps) / (den + eps)


def dice_d1(p, l, weights=None, eps: float = EPS) -> Node:
    """2*sum(p*l) / (sum(p) + sum(l)), optionally class-weighted."""
    p, l = as_node(p), as_node(l)
    w = _weights(p, weights)
    return _ratio(2.0 * _pooled(w, p * l), _pooled(w, p, l), eps)


def dice_d2(p, l, weights=None, eps: float = EPS) -> Node:
    """2*sum(p*l) / sum(p^2 + l^2), optionally class-weighted."""
    p, l = as_node(p), as_node(l)
    w = _weights(p, weights)
    return _ratio(2.0 * _pooled(w, p * l), _pooled(w, p * p, l * l), eps)


def tanimoto_d3(p, l, weights=None, eps: float = EPS) -> Node:
    """sum(p*l) / (sum(p^2 + l^2) - sum(p*l)), optionally class-weighted."""
    p, l = as_node(p), as_node(l)
    w = _weights(p, weights)
    inter = _pooled(w, p * l)
    return _ratio(inter, _pooled(w, p * p, l * l) - inter, eps)


def with_complement(base):
    """Average of ``base`` on (p, l) and on the element-wise complements.

    The class weights, when given, are shared by both halves.
    """

    def wrapped(p, l, weights=None, eps: float = EPS) -> Node:
        p, l = as_node(p), as_node(l)
        return (base(p, l, weights=weights, eps=eps)
                + base(1.0 - p, 1.0 - l, weights=weights, eps=eps)) * 0.5

    wrapped.__name__ = base.__name__ + "_with_complement"
    return wrapped


_BASES = {"d1": dice_d1, "d2": dice_d2, "tanimoto": tanimoto_d3}


def loss_fn(loss_id: str):
    """Resolve a similarity by id ('d1', 'tanimoto-complement', ...)."""
    if loss_id in _BASES:
        return _BASES[loss_id]
    if loss_id.endswith("-complement") and loss_id[:-11] in _BASES:
        return with_complement(_BASES[loss_id[:-11]])
    raise ValueError(f"unknown loss id {loss_id!r}; choose from {LOSS_IDS}")


def volume_weights(onehot) -> np.ndarray:
    """Inverse squared class volumes over the batch: w_J = (sum_i l_iJ)^-2.

    Classes absent from the batch receive weight 0.  The class axis is 1.
    """
    l = np.asarray(onehot, dtype=np.float64)
    if l.ndim < 2:
        raise ValueError("volume_weights needs a class axis (axis 1)")
    v = l.sum(axis=(0,) + tuple(range(2, l.ndim)))
    w = np.zeros_like(v)
    np.divide(1.0, v * v, out=w, where=v > 0)
    return w


def multitask_loss(out, targets: dict[str, np.ndarray],
                   loss_id: str = "tanimoto-complement") -> Node:
    """Unweighted sum of (1 - similarity) over the enabled task heads.

    Segmentation and boundary use per-batch volume weights; distance and
    color pool uniformly over channels.
    """
    base = loss_fn(loss_id)
    total = None
    for name, pred in out.tasks().items():
        if name not in targets:
            raise ValueError(f"multitask_loss: missing target '{name}' for enabled head")
        tgt = np.asarray(targets[name])
        weights = volume_weights(tgt) if name in ("segmentation", "boundary") else None
        term = 1.0 - base(pred, tgt, weights=weights)
        total = term if total is None else total + term
    return total


# -- analytic 2-D field ----------------------------------------------------
#
# Closed forms on p = (px, py) with fixed ground truth l: each coefficient is
# (A + eps) / (B + eps) with A, B polynomial, so value and gradient come from
# the quotient rule.  The reported gradient is the feasible-direction
# (box-projected) gradient: components that would push a probability outside
# [0, 1] are zeroed, so the field vanishes at saturated optima such as a
# one-hot ground truth; inside the open square it equals the raw gradient.

def _base_value_grad(base_id: str, px, py, lx: float, ly: float, eps: float):
    pl = px * lx + py * ly
    if base_id == "d1":
        a, b = 2.0 * pl, px + py + lx + ly
        ga = (2.0 * lx, 2.0 * ly)
        gb = (np.ones_like(px), np.ones_like(py))
    elif base_id == "d2":
        a, b = 2.0 * pl, px * px + py * py + lx * lx + ly * ly
        ga = (2.0 * lx * np.ones_like(px), 2.0 * ly * np.ones_like(py))
        gb = (2.0 * px, 2.0 * py)
    elif base_id == "tanimoto":
        a = pl
        b = px * px + py * py + lx * lx + ly * ly - pl
        ga = (lx * np.ones_like(px), ly * np.ones_like(py))
        gb = (2.0 * px - lx, 2.0 * py - ly)
    else:
        raise ValueError(f"unknown base loss {base_id!r}")
    an, bn = a + eps, b + eps
    value = an / bn
    gx = (ga[0] * bn - an * gb[0]) / (bn * bn)
    gy = (ga[1] * bn - an * gb[1]) / (bn * bn)
    return value, gx, gy


def _value_grad(loss_id: str, px, py, lx: float, ly: float, eps: float):
    if loss_id.endswith("-complement"):
        base_id = loss_id[:-11]
        v1, gx1, gy1 = _base_value_grad(base_id, px, py, lx, ly, eps)
        v2, gx2, gy2 = _base_value_grad(base_id, 1.0 - px, 1.0 - py,
                                        1.0 - lx, 1.0 - ly, eps)
        return (v1 + v2) / 2.0, (gx1 - gx2) / 2.0, (gy1 - gy2) / 2.0
    return _base_value_grad(loss_id, px, py, lx, ly, eps)


def _box_project(g, coord):
    g = np.where(coord <= 0.0, np.maximum(g, 0.0), g)
    return np.where(coord >= 1.0, np.minimum(g, 0.0), g)


@dataclass
class LossField:
    loss_id: str
    gt: tuple[float, float]
    px: np.ndarray
    py: np.ndarray
    value: np.ndarray
    gx: np.ndarray
    gy: np.ndarray
    laplacian: np.ndarray


def field_sample(loss_id: str, l=(1.0, 0.0), grid_n: int = 101) -> LossField:
    """Sample value, gradient and Laplacian of a similarity on [0,1]^2.

    The grid is the grid_n x grid_n lattice over the closed square.  The
    Laplacian uses the 5-point stencil on the value grid, extended one step
    past the square so every lattice point gets a centered estimate.
    """
    if loss_id not in LOSS_IDS:
        raise ValueError(f"unknown loss id {loss_id!r}; choose from {LOSS_IDS}")
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    lx, ly = float(l[0]), float(l[1])
    grid = np.linspace(0.0, 1.0, grid_n)
    h = grid[1] - grid[0]
    ext = np.concatenate(([-h], grid, [1.0 + h]))
    pxe, pye = np.meshgrid(ext, ext, indexing="ij")
    ve, _, _ = _value_grad(loss_id, pxe, pye, lx, ly, EPS)
    lap = (ve[2:, 1:-1] + ve[:-2, 1:-1] + ve[1:-1, 2:] + ve[1:-1, :-2]
           - 4.0 * ve[1:-1, 1:-1]) / (h * h)
    px, py = pxe[1:-1, 1:-1], pye[1:-1, 1:-1]
    value, gx, gy = _value_grad(loss_id, px, py, lx, ly, EPS)
    gx = _box_project(gx, px)
    gy = _box_project(gy, py)
    return LossField(loss_id, (lx, ly), px, py, value, gx, gy, lap)


def field_to_csv(field: LossField, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["px", "py", "value", "gx", "gy", "laplacian"])
        cols = [field.px, field.py, field.value, field.gx, field.gy, field.laplacian]
        for row in zip(*(c.ravel() for c in cols)):
            writer.writerow([f"{v:.12g}" for v in row])
