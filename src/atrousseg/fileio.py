"""On-disk formats: NCT1 tensor container, binary PGM/PPM images.

NCT1 layout: magic bytes ``NCT1``, u32 little-endian rank, rank u32
little-endian extents, then the row-major f32 little-endian payload.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

_MAGIC = b"NCT1"


def write_nct(path, array) -> None:
    """Write ``array`` as NCT1.  A C-contiguous ``<f4`` array is written from
    its own buffer; any other array of rank 2 or more is converted one
    leading-axis slab at a time, so no full-size f32 copy is made."""
    arr = np.asarray(array)
    whole = arr.ndim < 2 or (arr.dtype == "<f4" and arr.flags.c_contiguous)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        # asarray keeps rank-0 inputs rank 0 (ascontiguousarray would promote)
        for slab in (arr,) if whole else arr:
            fh.write(np.asarray(slab, dtype="<f4", order="C").data)


def _read_exact(fh, n: int, path, what: str) -> bytes:
    """Exactly ``n`` bytes; a header that claims more than the file holds is
    refused before anything is allocated."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise ValueError(f"{path}: truncated {what}: {n} bytes declared, {left} left")
    buf = fh.read(n)
    if len(buf) != n:
        raise ValueError(f"{path}: truncated {what}")
    return buf


def read_nct(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
        (rank,) = struct.unpack("<I", _read_exact(fh, 4, path, "rank header"))
        shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, path, "extents header"))
        payload = _read_exact(fh, 4 * math.prod(shape), path, "payload")
    data = np.frombuffer(payload, dtype="<f4")
    return data.reshape(shape).copy()


def _write_netpbm(path, magic: bytes, arr) -> None:
    arr = arr.astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"%s\n%d %d\n255\n" % (magic, arr.shape[1], arr.shape[0]))
        fh.write(arr.tobytes())


def _read_netpbm(path, magic: bytes, depth: int) -> np.ndarray:
    """Binary PGM (P5, depth 1, shape (H, W)) or PPM (P6, depth 3, (H, W, 3))."""
    with open(path, "rb") as fh:
        if fh.read(2) != magic:
            raise ValueError(f"not a {magic.decode()} file")
        fields = []
        while len(fields) < 3:
            line = fh.readline()
            if not line:
                raise ValueError("truncated netpbm header")
            line = line.split(b"#", 1)[0]
            fields.extend(int(tok) for tok in line.split())
        width, height, maxval = fields[:3]
        if width < 0 or height < 0:
            raise ValueError(f"{path}: negative netpbm size {width}x{height}")
        if maxval > 255:
            raise ValueError(f"only 8-bit netpbm supported, maxval={maxval}")
        name = "PGM" if depth == 1 else "PPM"
        data = _read_exact(fh, width * height * depth, path, f"{name} payload")
    shape = (height, width) if depth == 1 else (height, width, depth)
    return np.frombuffer(data, dtype=np.uint8).reshape(shape).copy()


def write_pgm(path, plane) -> None:
    """Write a 2-D uint8 plane (e.g. a class-index mask) as binary PGM."""
    arr = np.asarray(plane)
    if arr.ndim != 2:
        raise ValueError(f"PGM wants a 2-D plane, got shape {arr.shape}")
    _write_netpbm(path, b"P5", arr)


def read_pgm(path) -> np.ndarray:
    return _read_netpbm(path, b"P5", 1)


def write_ppm(path, image) -> None:
    """Write an (H, W, 3) uint8 image as binary PPM."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"PPM wants (H, W, 3), got shape {arr.shape}")
    _write_netpbm(path, b"P6", arr)


def read_ppm(path) -> np.ndarray:
    return _read_netpbm(path, b"P6", 3)


def read_image(path) -> np.ndarray:
    """Read a (C, H, W) float32 image: NCT1 as stored, PPM scaled to [0, 1]."""
    p = Path(path)
    if p.suffix == ".nct":
        arr = read_nct(p)
        if arr.ndim != 3:
            raise ValueError(f"{p}: expected a (C, H, W) tensor, got shape {arr.shape}")
        return arr
    return np.divide(read_ppm(p), np.float32(255.0), dtype=np.float32).transpose(2, 0, 1)


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
