"""Ground-truth derivation: one-hot masks, class boundaries, normalized
distance transforms, and HSV color targets.

Everything is derived from the integer mask and the image alone.  The image
border is treated as off-class for both the boundary and the distance
transform, so an object touching the frame still has a boundary there.
scipy is imported only inside ``get_distance`` (and augmentation's affine
warp), so a process that derives no labels (inference, evaluation) never
loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SampleRecord:
    """One training sample with every derived target, channels-first."""

    image: np.ndarray     # (C, H, W) float32 in [0, 1]
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


def _class_planes(m: np.ndarray, n_classes: int) -> np.ndarray:
    """(K, H, W) bool planes, plane k on where the checked mask is k."""
    return m == np.arange(n_classes)[:, None, None]


def one_hot(mask, n_classes: int) -> np.ndarray:
    """Expand an integer mask (H, W) to exact float32 one-hot planes (K, H, W)."""
    return _class_planes(_check_mask(mask, n_classes), n_classes).astype(np.float32)


def _plane(binary) -> np.ndarray:
    """A 2-D binary plane as bool; a bool plane is not copied."""
    m = np.asarray(binary, dtype=bool)
    if m.ndim != 2:
        raise ValueError(f"binary plane must be 2-D, got shape {m.shape}")
    return m


def get_boundary(binary) -> np.ndarray:
    """Class boundary of a binary plane, dilated once with the 3x3 cross.

    A boundary pixel is an on-pixel with at least one 4-neighbor off-pixel;
    positions outside the frame count as off.  The dilation is the OR of the
    edge with its four one-pixel shifts, nothing shifting in from outside.
    """
    padded = np.pad(_plane(binary), 1)
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                & padded[1:-1, :-2] & padded[1:-1, 2:])
    edge = padded[1:-1, 1:-1] & ~interior
    out = edge.copy()
    out[1:] |= edge[:-1]
    out[:-1] |= edge[1:]
    out[:, 1:] |= edge[:, :-1]
    out[:, :-1] |= edge[:, 1:]
    return out.view(np.uint8)


def get_distance(binary, normalize: bool = True) -> np.ndarray:
    """Euclidean distance from each on-pixel to the nearest off-pixel.

    Positions outside the frame count as off.  With ``normalize`` the plane
    is min-max scaled to [0, 1]; a constant plane maps to zeros.

    The transform runs only on the bounding box of the on-pixels inside one
    ring of off-pixels (the frame where the box touches it); every pixel
    outside the box is off and stays 0.  That is exact: the nearest off-pixel
    of an on-pixel, if outside the ring, clamps onto a ring pixel that is no
    farther along either axis.
    """
    m = _plane(binary)
    d = np.zeros(m.shape)
    rows, cols = np.flatnonzero(m.any(axis=1)), np.flatnonzero(m.any(axis=0))
    if not rows.size:
        return d
    from scipy import ndimage
    box = np.s_[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    e = ndimage.distance_transform_edt(np.pad(m[box], 1))[1:-1, 1:-1]
    if normalize:
        # The plane's minimum is 0 unless the box fills the frame.
        lo = e.min() if e.shape == m.shape else 0.0
        hi = e.max()
        if hi <= lo:
            return d
        e -= lo
        e /= hi - lo
    d[box] = e
    return d


def rgb_to_hsv(image) -> np.ndarray:
    """Hexcone RGB -> HSV on a (3, H, W) array, every channel in [0, 1].

    Hue is degrees/360; zero-saturation pixels get hue 0 by convention.
    The result is float64 whatever the input dtype.
    """
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"expected (3, H, W) RGB, got shape {img.shape}")
    r, g, b = img
    maxc = img.max(axis=0)
    delta = np.subtract(maxc, img.min(axis=0), dtype=np.float64)
    hsv = np.zeros(img.shape)
    h, s, v = hsv
    v[...] = maxc
    # The channel holding the max owns the hue: red, else green, else blue.
    red = r == maxc
    green = (g == maxc) & ~red
    np.subtract(np.where(red, g, np.where(green, b, r)),
                np.where(red, b, np.where(green, r, g)), out=h, dtype=np.float64)
    chroma = delta > 0
    np.divide(h, delta, out=h, where=chroma)
    # h lies in [-1, 1] now, so a red hue's "mod 6" adds 6 to a negative one.
    h += np.where(red, np.where(h < 0, 6.0, 0.0), np.where(green, 2.0, 4.0))
    h[~chroma] = 0.0
    h /= 6.0
    np.divide(delta, v, out=s, where=v > 0)
    return hsv


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


def derive_record(image, mask, n_classes: int) -> SampleRecord:
    """Build a float32 SampleRecord: one-hot plus per-class boundary/distance and HSV.

    The HSV target comes from the first three image channels, so extra input
    channels (e.g. elevation) ride along untouched.
    """
    img = np.asarray(image, dtype=np.float32)
    m = np.asarray(mask)
    check_sample(img, m, n_classes)
    planes = _class_planes(m, n_classes)
    oh = planes.astype(np.float32)
    boundary, distance = np.empty_like(oh), np.empty_like(oh)
    for k, plane in enumerate(planes):
        boundary[k] = get_boundary(plane)
        distance[k] = get_distance(plane)
    hsv = rgb_to_hsv(img[:3]).astype(np.float32)
    return SampleRecord(image=img, mask=m, onehot=oh,
                        boundary=boundary, distance=distance, hsv=hsv)
