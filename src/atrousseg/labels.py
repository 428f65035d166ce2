"""Ground-truth derivation: one-hot masks, class boundaries, normalized
distance transforms, and HSV color targets.

Everything is derived from the integer mask and the image alone.  The image
border is treated as off-class for both the boundary and the distance
transform, so an object touching the frame still has a boundary there.
scipy is imported inside the two functions that call it, so a process that
derives no labels (inference, evaluation) never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SampleRecord:
    """One training sample with every derived target, channels-first."""

    image: np.ndarray     # (C, H, W) float in [0, 1]
    mask: np.ndarray      # (H, W) int class indices
    onehot: np.ndarray    # (K, H, W)
    boundary: np.ndarray  # (K, H, W) in {0, 1}
    distance: np.ndarray  # (K, H, W) in [0, 1]
    hsv: np.ndarray       # (3, H, W) in [0, 1]

    @property
    def n_classes(self) -> int:
        return self.onehot.shape[0]


def _check_mask(mask, n_classes: int) -> np.ndarray:
    """The mask as an array; ValueError unless it is a 2-D integer mask whose
    class ids lie in [0, n_classes)."""
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {m.shape}")
    if not np.issubdtype(m.dtype, np.integer):
        raise ValueError(f"mask must be integer-typed, got {m.dtype}")
    if m.size and (m.min() < 0 or m.max() >= n_classes):
        bad = np.unique(m[(m < 0) | (m >= n_classes)])
        raise ValueError(f"mask contains class ids {bad.tolist()} outside [0, {n_classes})")
    return m


def one_hot(mask, n_classes: int, dtype=np.float32) -> np.ndarray:
    """Expand an integer mask (H, W) to exact one-hot planes (K, H, W)."""
    m = _check_mask(mask, n_classes)
    eye = np.eye(n_classes, dtype=dtype)
    return eye[m].transpose(2, 0, 1)


def _framed(binary) -> np.ndarray:
    """A 2-D binary plane as bool, inside a one-pixel border of off-pixels."""
    m = np.asarray(binary).astype(bool)
    if m.ndim != 2:
        raise ValueError(f"binary plane must be 2-D, got shape {m.shape}")
    return np.pad(m, 1, mode="constant", constant_values=False)


def get_boundary(binary) -> np.ndarray:
    """Class boundary of a binary plane, dilated once with the 3x3 cross.

    A boundary pixel is an on-pixel with at least one 4-neighbor off-pixel;
    positions outside the frame count as off.
    """
    from scipy import ndimage
    padded = _framed(binary)
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                & padded[1:-1, :-2] & padded[1:-1, 2:])
    edge = padded[1:-1, 1:-1] & ~interior
    return ndimage.binary_dilation(edge).astype(np.uint8)


def get_distance(binary, normalize: bool = True) -> np.ndarray:
    """Euclidean distance from each on-pixel to the nearest off-pixel.

    Positions outside the frame count as off.  With ``normalize`` the plane
    is min-max scaled to [0, 1]; a constant plane maps to zeros.
    """
    from scipy import ndimage
    d = ndimage.distance_transform_edt(_framed(binary))[1:-1, 1:-1]
    if not normalize:
        return d
    lo, hi = d.min(), d.max()
    if hi <= lo:
        return np.zeros_like(d)
    return (d - lo) / (hi - lo)


def rgb_to_hsv(image) -> np.ndarray:
    """Hexcone RGB -> HSV on a (3, H, W) array, every channel in [0, 1].

    Hue is degrees/360; zero-saturation pixels get hue 0 by convention.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"expected (3, H, W) RGB, got shape {img.shape}")
    r, g, b = img
    maxc = np.max(img, axis=0)
    minc = np.min(img, axis=0)
    delta = maxc - minc
    safe = np.where(delta > 0, delta, 1.0)
    h = np.zeros_like(maxc)
    h = np.where((maxc == r) & (delta > 0), ((g - b) / safe) % 6.0, h)
    h = np.where((maxc == g) & (delta > 0) & (maxc != r), (b - r) / safe + 2.0, h)
    h = np.where((maxc == b) & (delta > 0) & (maxc != r) & (maxc != g),
                 (r - g) / safe + 4.0, h)
    h = h / 6.0
    s = np.where(maxc > 0, delta / np.where(maxc > 0, maxc, 1.0), 0.0)
    return np.stack([h, s, maxc])


def hsv_to_rgb(hsv) -> np.ndarray:
    """Inverse of rgb_to_hsv on a (3, H, W) array."""
    arr = np.asarray(hsv, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ValueError(f"expected (3, H, W) HSV, got shape {arr.shape}")
    h, s, v = arr
    k = (h % 1.0) * 6.0
    i = np.floor(k).astype(int) % 6
    f = k - np.floor(k)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b])


def check_sample(image, mask, n_classes: int) -> None:
    """ValueError unless derive_record accepts this image, mask and class count."""
    img = np.asarray(image)
    if img.ndim != 3:
        raise ValueError(f"image must be (C, H, W), got shape {img.shape}")
    if img.shape[0] < 3:
        raise ValueError(f"image needs at least 3 channels for the color target, got {img.shape[0]}")
    if img.shape[1:] != np.shape(mask):
        raise ValueError(f"image plane {img.shape[1:]} does not match mask {np.shape(mask)}")
    _check_mask(mask, n_classes)


def derive_record(image, mask, n_classes: int, dtype=np.float32) -> SampleRecord:
    """Build a SampleRecord: one-hot plus per-class boundary/distance and HSV.

    The HSV target comes from the first three image channels, so extra input
    channels (e.g. elevation) ride along untouched.
    """
    img = np.asarray(image, dtype=dtype)
    m = np.asarray(mask)
    check_sample(img, m, n_classes)
    oh = one_hot(m, n_classes, dtype=dtype)
    boundary = np.stack([get_boundary(oh[k]) for k in range(n_classes)]).astype(dtype)
    distance = np.stack([get_distance(oh[k]) for k in range(n_classes)]).astype(dtype)
    hsv = rgb_to_hsv(img[:3]).astype(dtype)
    return SampleRecord(image=img, mask=m, onehot=oh,
                        boundary=boundary, distance=distance, hsv=hsv)
