"""Geometric augmentation and patch/split bookkeeping.

Warps touch only the image and the integer mask; every derived channel
(one-hot, boundary, distance, HSV) is re-derived afterwards, because e.g. a
warped distance transform is not the distance transform of the warped mask.
The warp imports scipy itself, as labels does, so that a process that
derives no labels never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .labels import SampleRecord, derive_record


@dataclass(frozen=True)
class AugmentConfig:
    scale_range: tuple[float, float] = (0.75, 1.33)
    flip_prob: float = 0.5

    def __post_init__(self):
        lo, hi = self.scale_range
        if not (0.0 < lo <= hi):
            raise ValueError(f"scale_range must satisfy 0 < lo <= hi, got {self.scale_range}")
        if not (0.0 <= self.flip_prob <= 1.0):
            raise ValueError(f"flip_prob must lie in [0, 1], got {self.flip_prob}")


def _affine_warp(record: SampleRecord, angle_deg: float,
                 center: tuple[float, float], scale: float) -> SampleRecord:
    """Rotate/zoom about ``center`` (row, col); out-of-frame samples mirror.

    Output coordinate y samples input R(-angle)/scale @ (y - c) + c, i.e.
    the record appears rotated by ``angle_deg`` and zoomed by ``scale``.
    Image channels interpolate bilinearly, the mask nearest-neighbor.
    """
    from scipy import ndimage
    theta = np.deg2rad(angle_deg)
    cos, sin = np.cos(theta), np.sin(theta)
    matrix = np.array([[cos, -sin], [sin, cos]]) / scale
    c = np.asarray(center, dtype=np.float64)
    offset = c - matrix @ c
    image = np.stack([
        ndimage.affine_transform(ch.astype(np.float64), matrix, offset=offset,
                                 order=1, mode="mirror")
        for ch in record.image
    ]).astype(record.image.dtype)
    mask = ndimage.affine_transform(record.mask, matrix, offset=offset,
                                    order=0, mode="mirror")
    return derive_record(image, mask, record.n_classes, dtype=record.image.dtype)


def random_affine(record: SampleRecord, cfg: AugmentConfig,
                  rng: np.random.Generator) -> SampleRecord:
    """Random rotation about a random center with a random zoom."""
    h, w = record.mask.shape
    angle = rng.uniform(0.0, 360.0)
    center = (rng.uniform(0.0, h - 1.0), rng.uniform(0.0, w - 1.0))
    scale = rng.uniform(*cfg.scale_range)
    return _affine_warp(record, angle, center, scale)


def random_flip(record: SampleRecord, rng: np.random.Generator,
                p: float = 0.5) -> SampleRecord:
    """Flip horizontally/vertically, each independently with probability p.

    Flips commute with every derivation, so channels flip directly.
    """
    flip_v = rng.random() < p
    flip_h = rng.random() < p
    axes = tuple(ax for ax, on in ((-2, flip_v), (-1, flip_h)) if on)
    if not axes:
        return record

    def f(a):
        return np.ascontiguousarray(np.flip(a, axis=axes))

    return SampleRecord(**{name: f(a) for name, a in vars(record).items()})


def augment_record(record: SampleRecord, cfg: AugmentConfig,
                   rng: np.random.Generator) -> SampleRecord:
    """Full pipeline: random affine warp, then random flips."""
    return random_flip(random_affine(record, cfg, rng), rng, cfg.flip_prob)


# -- patch bookkeeping -------------------------------------------------------

@dataclass(frozen=True)
class PatchRef:
    """A size x size window at (row, col) of a source tile."""
    tile_id: int
    row: int
    col: int
    size: int

    def overlaps(self, other: "PatchRef") -> bool:
        return (self.tile_id == other.tile_id
                and abs(self.row - other.row) < max(self.size, other.size)
                and abs(self.col - other.col) < max(self.size, other.size))


def patch_grid(height: int, width: int, size: int = 256,
               stride: int = 128) -> list[tuple[int, int]]:
    """Offsets (i*stride, j*stride) of all windows fully inside the tile."""
    if height < size or width < size:
        raise ValueError(
            f"tile {height}x{width} is smaller than the patch size {size}")
    rows = range(0, height - size + 1, stride)
    cols = range(0, width - size + 1, stride)
    return [(r, c) for r in rows for c in cols]


def extract_patches(tile, size: int = 256, stride: int = 128) -> list[np.ndarray]:
    """Cut a tile (..., H, W) into overlapping windows over the last two axes."""
    arr = np.asarray(tile)
    h, w = arr.shape[-2:]
    return [np.ascontiguousarray(arr[..., r:r + size, c:c + size])
            for r, c in patch_grid(h, w, size, stride)]


def _overlap_groups(patches: Sequence[PatchRef]) -> list[list[int]]:
    # Connected components of the overlap graph: within each tile every pair
    # of patches is compared, and overlapping pairs are joined by union-find.
    parent = list(range(len(patches)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    by_tile: dict[int, list[int]] = {}
    for idx, p in enumerate(patches):
        by_tile.setdefault(p.tile_id, []).append(idx)
    for idxs in by_tile.values():
        for a_pos, i in enumerate(idxs):
            for j in idxs[a_pos + 1:]:
                if patches[i].overlaps(patches[j]):
                    union(i, j)
    groups: dict[int, list[int]] = {}
    for idx in range(len(patches)):
        groups.setdefault(find(idx), []).append(idx)
    return [groups[k] for k in sorted(groups)]


def split_dataset(patches: Sequence[PatchRef],
                  ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
                  seed: int = 0):
    """Split patches into (train, val, test) with disjoint pixel footprints.

    Overlapping patches always land in the same split: the unit of
    assignment is a connected component of the overlap graph.  Group counts
    follow the ratios by largest remainder.  Deterministic under ``seed``.
    """
    if len(ratios) != 3 or any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must be 3 non-negative values summing to 1, got {ratios}")
    groups = _overlap_groups(patches)
    needed = sum(1 for r in ratios if r > 0)
    if len(groups) < needed:
        raise ValueError(
            f"only {len(groups)} non-overlapping patch groups for {needed} non-empty splits")
    order = np.random.default_rng(seed).permutation(len(groups))

    quota = [r * len(groups) for r in ratios]
    counts = [int(q) for q in quota]
    rema = sorted(range(3), key=lambda i: (quota[i] - counts[i], -i), reverse=True)
    for i in rema[: len(groups) - sum(counts)]:
        counts[i] += 1
    for i, r in enumerate(ratios):
        if r > 0 and counts[i] == 0:
            counts[i] += 1
            counts[int(np.argmax(counts))] -= 1

    splits: list[list[PatchRef]] = [[], [], []]
    pos = 0
    for split_idx, n in enumerate(counts):
        for g in order[pos:pos + n]:
            splits[split_idx].extend(patches[i] for i in groups[g])
        pos += n
    return tuple(splits)
