"""Dice/Tanimoto similarity family, complements, class weighting, the
multitask objective, and the 2-D analytic field sampler.

All coefficients are similarities in [0, 1] (1 = perfect agreement); the
training objective is ``1 - coefficient``.  Every ratio is smoothed by
adding ``eps`` to numerator and denominator, which also fixes the value of
empty/empty class pairs at 1 (no penalty).  Each ratio is linear in five
sums, those of p, l, p*l, p^2 and l^2, and so is its complement's: one
closed form, ``_value_partials``, gives the training op and the field
sampler their values and partials, with no complement tensor built.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .autodiff import Node, ShapeError, accumulate, as_node, make_node

EPS = 1e-5

# (A + eps) / (B + eps): the coefficients of A (first row) and B (second
# row) in the five sums (sum p, sum l, sum p*l, sum p^2, sum l^2).
_RATIOS = {"d1": ((0, 0, 2, 0, 0), (1, 1, 0, 0, 0)),
           "d2": ((0, 0, 2, 0, 0), (0, 0, 0, 1, 1)),
           "tanimoto": ((0, 0, 1, 0, 0), (0, 0, -1, 1, 1))}

LOSS_IDS = (*_RATIOS, *(k + "-complement" for k in _RATIOS))

# Over n elements the five sums of (1 - p, 1 - l) are n + _COMPLEMENT @ sums.
_COMPLEMENT = np.array([[-1, 0, 0, 0, 0], [0, -1, 0, 0, 0], [-1, -1, 1, 0, 0],
                        [-2, 0, 0, 1, 0], [0, -2, 0, 0, 1]], dtype=np.float64)


def _parse(loss_id: str) -> tuple[str, bool]:
    """Split a loss id into its base ratio and whether it has the complement."""
    base = loss_id[:-11] if loss_id.endswith("-complement") else loss_id
    if base not in _RATIOS:
        raise ValueError(f"unknown loss id {loss_id!r}; choose from {LOSS_IDS}")
    return base, base != loss_id


def _value_partials(loss_id: str, s, n, eps: float):
    """Similarity ``loss_id`` of the five sums ``s`` (axis 0) over ``n``
    elements, and its partial derivatives in those sums (same shape as s)."""
    base, complement = _parse(loss_id)
    if complement:
        v, ds = _value_partials(base, s, n, eps)
        vc, dsc = _value_partials(base, n + np.tensordot(_COMPLEMENT, s, 1), n, eps)
        return (v + vc) / 2.0, (ds + np.tensordot(_COMPLEMENT.T, dsc, 1)) / 2.0
    coef = np.array(_RATIOS[base], dtype=np.float64)
    a, b = np.tensordot(coef, s, 1) + eps
    value = a / b
    coef = coef.reshape(coef.shape + (1,) * value.ndim)
    return value, (coef[0] - value * coef[1]) / b


def _similarity(loss_id: str, p, l, weights, eps: float) -> Node:
    """One differentiable op: the sums are pooled over all elements, or per
    class (axis 1) and weighted; the gradient in p is the per-class affine
    map d(sum p) + d(sum p*l)*l + 2*d(sum p^2)*p, returned in p's dtype."""
    p, l = as_node(p), as_node(l).value
    shape, dtype, rp = p.shape, p.dtype, p._record
    if l.shape != p.shape:
        raise ShapeError(f"prediction shape {p.shape} and target shape {l.shape} differ")
    if weights is None:
        w, view = np.ones(1), (1, 1, -1)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if p.ndim < 2:
            raise ValueError("weighted losses need a class axis (axis 1)")
        if w.shape != (p.shape[1],):
            raise ValueError(f"weight vector has length {w.shape}, expected ({p.shape[1]},)")
        view = p.shape[:2] + (-1,)
    p3, l3 = p.value.reshape(view), l.reshape(view)
    pf, lf = (x.astype(np.float64, copy=False) for x in (p3, l3))
    sums = np.stack([pf.sum(axis=(0, 2)), lf.sum(axis=(0, 2))]
                    + [np.vecdot(x, y).sum(axis=0) for x, y in ((pf, lf), (pf, pf), (lf, lf))])
    value, ds = _value_partials(loss_id, sums @ w, pf.shape[0] * pf.shape[2] * w.sum(), eps)
    coef = np.outer(ds[[0, 2, 3]] * [1.0, 1.0, 2.0], w)[:, None, :, None]

    def backward(g):
        # Evaluated in f64 and rounded once: in f32 the rounded coefficients
        # and the cancelling terms cost up to 1.3 float32 eps of max|g|.
        a, b, c = g * coef
        gp = p3 * c
        gp += l3 * b
        gp += a
        accumulate(rp, gp.astype(dtype, copy=False).reshape(shape))

    return make_node(value, (p,), backward, reads=(p,))


def loss_fn(loss_id: str):
    """The similarity ``loss_id`` as ``fn(p, l, weights=None, eps=EPS) -> Node``:
    d1 = 2*sum(p*l) / (sum(p) + sum(l)), d2 = 2*sum(p*l) / sum(p^2 + l^2) and
    tanimoto = sum(p*l) / (sum(p^2 + l^2) - sum(p*l)), per class (axis 1) and
    pooled by ``weights`` when given; ``<base>-complement`` averages the base
    on (p, l) and on (1 - p, 1 - l), both halves sharing the weights."""
    _parse(loss_id)

    def similarity(p, l, weights=None, eps: float = EPS) -> Node:
        return _similarity(loss_id, p, l, weights, eps)

    return similarity


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
# The same closed form on p = (px, py) with a fixed ground truth l.  The
# gradient is box-projected: components that would push a probability out
# of [0, 1] are zeroed, so the field vanishes at saturated optima such as a
# one-hot ground truth; inside the open square it is the raw gradient.

def _value_grad(loss_id: str, px, py, lx: float, ly: float, eps: float):
    sums = np.stack(np.broadcast_arrays(px + py, lx + ly, px * lx + py * ly,
                                        px * px + py * py, lx * lx + ly * ly))
    value, ds = _value_partials(loss_id, sums, 2.0, eps)
    return (value, ds[0] + ds[2] * lx + 2.0 * ds[3] * px,
            ds[0] + ds[2] * ly + 2.0 * ds[3] * py)


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
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    lx, ly = float(l[0]), float(l[1])
    if not (0.0 <= lx <= 1.0 and 0.0 <= ly <= 1.0):
        raise ValueError(f"ground truth must be finite and in [0, 1], got ({lx}, {ly})")
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
