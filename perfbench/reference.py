"""A fixed numpy reference block, timed between work to track the host's speed.

On a shared virtual machine the same work can run 30-60% slower for tens
of seconds at a time while other tenants load the host.  Timing a fixed
block of numpy work next to the program's work and dividing one by the
other cancels most of that: both slow down together.  The block mixes two
kinds of work the workloads do:

- im2col-style 3x3 convolutions with a batch-norm-like normalisation on an
  8-channel 128 px plane (BLAS and copies on planes larger than a core's
  L2, like a conv2d layer on infer-tile or the warps of label-prep);
- many small array ops on 64 px planes (interpreter bound, like a toy
  training step).

A streaming pass over a large array was tried as a third part and dropped:
it tracked train-toy's slow phases worse than the other two.  Nothing in
the block calls atrousseg, so no change to the program changes it.  Its
arrays are small (about 6 MB at its peak), so it adds little to the run's
peak RSS.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# A reference-second is REF_BLOCKS_PER_S blocks: roughly one wall second on
# the 2-vCPU machine the benchmark was written on, when the host is idle.
REF_BLOCKS_PER_S = 80


class Reference:
    """Callable that runs the block once, records and returns its seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._plane = rng.random((8, 128, 128), dtype=np.float32)
        self._kernel = rng.random((16, 8 * 9), dtype=np.float32)
        self._small = rng.random((4, 8, 64 * 64), dtype=np.float32)
        self._mix = rng.random((8, 8), dtype=np.float32)
        self._block()  # first touch of the buffers stays out of the samples
        self.samples: list[float] = []

    def _block(self) -> None:
        for _ in range(2):
            p = np.pad(self._plane, ((0, 0), (1, 1), (1, 1)))
            cols = np.stack([p[:, i:i + 128, j:j + 128] for i in range(3) for j in range(3)], 1)
            z = self._kernel @ cols.reshape(8 * 9, -1)
            z = (z - z.mean(axis=1, keepdims=True)) / np.sqrt(z.var(axis=1, keepdims=True) + 1e-5)
            np.maximum(z, 0, out=z)

        s = self._small
        for _ in range(25):
            t = self._mix @ s
            t -= t.mean(axis=(0, 2), keepdims=True)
            s = np.maximum(t, 0) * 0.5 + self._small

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self._block()
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        return seconds


def reference_seconds(wall_seconds: float, samples) -> float:
    """Wall seconds re-expressed at the reference speed.

    ``samples`` are block times taken just before, during and after the
    timed work; their mean stands for the host's speed over it, as the
    work's own time is a sum over it too.
    """
    return wall_seconds / (statistics.fmean(samples) * REF_BLOCKS_PER_S)


def no_reference() -> float:
    """Stand-in for a Reference where none is sampled (traced runs, set-up)."""
    return 0.0
