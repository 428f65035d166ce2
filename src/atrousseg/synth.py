"""Deterministic synthetic scene generator for desk-scale experiments.

Scenes are layered geometric shapes (rectangles, disks, stripes) with
per-class base colors plus Gaussian noise; later shapes overwrite earlier
ones, which creates the occlusion topology (objects punching holes into the
regions below them) that the distance/boundary tasks care about.  An
optional fourth channel encodes a synthetic height field correlated with
one class, standing in for an elevation raster.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import fileio

SHAPE_KINDS = ("rect", "disk", "stripe")


@dataclass(frozen=True)
class SceneSpec:
    size: int = 96
    n_classes: int = 4
    n_images: int = 8
    channels: int = 3          # 3 = RGB, 4 = RGB + height
    shapes_per_class: int = 3
    seed: int = 0
    # Optional per-class cap on shape radius, e.g. {3: 4} keeps class 3 rare.
    max_extent: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.size < 64:
            raise ValueError(f"size must be at least 64, got {self.size}")
        if self.n_classes < 3:
            raise ValueError(f"need at least 3 classes, got {self.n_classes}")
        if self.channels not in (3, 4):
            raise ValueError(f"channels must be 3 (RGB) or 4 (RGB+height), got {self.channels}")
        if self.n_images < 1:
            raise ValueError(f"n_images must be >= 1, got {self.n_images}")
        if self.shapes_per_class < 1:
            # zero shapes would make the >=2-classes redraw loop spin forever
            raise ValueError(f"shapes_per_class must be >= 1, got {self.shapes_per_class}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Scene:
    image: np.ndarray          # (C, H, W) float32 in [0, 1]
    mask: np.ndarray           # (H, W) int64
    shapes: list[tuple]        # (class_id, kind, params) in draw order


def _class_colors(n_classes: int, rng: np.random.Generator) -> np.ndarray:
    base = rng.uniform(0.15, 0.85, size=(n_classes, 3))
    # Push colors apart so classes stay visually (and statistically) distinct.
    for k in range(1, n_classes):
        while min(np.abs(base[k] - base[j]).sum() for j in range(k)) < 0.45:
            base[k] = rng.uniform(0.15, 0.85, size=3)
    return base


def _draw_shape(mask, class_id, kind, rng, max_extent=None):
    h, w = mask.shape
    if max_extent is not None:
        # Capped classes stay compact: no frame-spanning stripes, small lo.
        cap, lo = max(2, max_extent), 2
        if kind == "stripe":
            kind = "rect"
    else:
        cap, lo = max(6, h // 3), 4
    if kind == "rect":
        rh = rng.integers(lo, cap + 1)
        rw = rng.integers(lo, cap + 1)
        r = rng.integers(0, h - rh + 1)
        c = rng.integers(0, w - rw + 1)
        mask[r:r + rh, c:c + rw] = class_id
        return (class_id, "rect", (int(r), int(c), int(rh), int(rw)))
    if kind == "disk":
        rad = rng.integers(max(1, lo - 2), max(lo, cap // 2) + 1)
        cy = rng.integers(rad, h - rad)
        cx = rng.integers(rad, w - rad)
        yy, xx = np.ogrid[:h, :w]
        mask[(yy - cy) ** 2 + (xx - cx) ** 2 <= rad * rad] = class_id
        return (class_id, "disk", (int(cy), int(cx), int(rad)))
    if kind == "stripe":
        thick = rng.integers(3, max(4, cap // 3) + 1)
        if rng.random() < 0.5:
            r = rng.integers(0, h - thick + 1)
            mask[r:r + thick, :] = class_id
            return (class_id, "stripe", ("h", int(r), int(thick)))
        c = rng.integers(0, w - thick + 1)
        mask[:, c:c + thick] = class_id
        return (class_id, "stripe", ("v", int(c), int(thick)))
    raise ValueError(f"unknown shape kind {kind!r}")


def _render(mask, colors, rng, channels, height_class):
    h, w = mask.shape
    image = colors[mask].transpose(2, 0, 1).copy()
    image += rng.normal(0.0, 0.04, size=image.shape)
    if channels == 4:
        height = np.where(mask == height_class, 0.8, 0.15)
        height = height + rng.normal(0.0, 0.03, size=height.shape)
        image = np.concatenate([image, height[None]], axis=0)
    return np.clip(image, 0.0, 1.0).astype(np.float32)


def generate(spec: SceneSpec) -> list[Scene]:
    """Generate ``spec.n_images`` scenes, bit-reproducible under the seed."""
    root = np.random.SeedSequence(spec.seed)
    colors = _class_colors(spec.n_classes, np.random.default_rng(root.spawn(1)[0]))
    height_class = spec.n_classes - 1
    scenes = []
    for i in range(spec.n_images):
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(i + 1,)))
        while True:
            mask = np.zeros((spec.size, spec.size), dtype=np.int64)
            shapes = [(0, "background", ())]
            for class_id in range(1, spec.n_classes):
                cap = spec.max_extent.get(class_id)
                for _ in range(spec.shapes_per_class):
                    kind = SHAPE_KINDS[rng.integers(0, len(SHAPE_KINDS))]
                    shapes.append(_draw_shape(mask, class_id, kind, rng, cap))
            if len(np.unique(mask)) >= 2:
                break
        image = _render(mask, colors, rng, spec.channels, height_class)
        scenes.append(Scene(image=image, mask=mask, shapes=shapes))
    return scenes


def write_dataset(scenes: list[Scene], out_dir, spec: SceneSpec | None = None) -> None:
    """Write scenes as PPM/PGM pairs (plus NCT1 for extra channels) and a manifest."""
    out = fileio.ensure_dir(out_dir)
    entries = []
    for i, scene in enumerate(scenes):
        stem = f"scene_{i:04d}"
        rgb8 = np.round(scene.image[:3] * 255.0).astype(np.uint8).transpose(1, 2, 0)
        fileio.write_ppm(out / f"{stem}.ppm", rgb8)
        fileio.write_pgm(out / f"{stem}.pgm", scene.mask.astype(np.uint8))
        entry = {"image": f"{stem}.ppm", "mask": f"{stem}.pgm"}
        if scene.image.shape[0] > 3:
            fileio.write_nct(out / f"{stem}.nct", scene.image)
            entry["tensor"] = f"{stem}.nct"
        entries.append(entry)
    manifest = {"n_images": len(scenes), "entries": entries}
    if spec is not None:
        manifest["spec"] = asdict(spec)
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


def load_dataset(root) -> list[tuple[np.ndarray, np.ndarray]]:
    """Read back (image, mask) pairs written by write_dataset."""
    path = Path(root) / "manifest.json"
    with open(path) as fh:
        manifest = json.load(fh)
    entries = manifest.get("entries") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise ValueError(f"{path}: dataset manifest needs an 'entries' list")
    pairs = []
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict)
                and all(isinstance(entry.get(k), str) for k in ("image", "mask"))
                and isinstance(entry.get("tensor", ""), str)):
            raise ValueError(f"{path}: entry {i} must be an object with "
                             "'image' and 'mask' file names")
        image = fileio.read_image(path.parent / entry.get("tensor", entry["image"]))
        mask = fileio.read_pgm(path.parent / entry["mask"]).astype(np.int64)
        pairs.append((image, mask))
    return pairs
