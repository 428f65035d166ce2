"""Geometric augmentation: random affine warps and flips.

Warps touch only the image and the integer mask; every derived channel
(one-hot, boundary, distance, HSV) is re-derived afterwards, because e.g. a
warped distance transform is not the distance transform of the warped mask.
The warp imports scipy itself, as labels does, so that a process that
derives no labels never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    # scipy interpolates in float64 and rounds once on storing each channel.
    image = np.empty_like(record.image)
    for ch, out in zip(record.image, image):
        ndimage.affine_transform(ch, matrix, offset=offset, output=out,
                                 order=1, mode="mirror")
    mask = ndimage.affine_transform(record.mask, matrix, offset=offset,
                                    order=0, mode="mirror")
    return derive_record(image, mask, record.n_classes)


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
