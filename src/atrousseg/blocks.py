"""Composite building blocks: normed convolution, multi-branch residual
blocks with atrous dilations, pyramid grid pooling, skip combination and
the checkerboard-free upsampling unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import nnops
from .autodiff import Node, ShapeError, as_node
from .modules import BatchNorm2d, Conv2d, Module, ModuleList


@dataclass(frozen=True)
class BlockConfig:
    filters: int
    dilations: tuple[int, ...] = (1,)
    kernel: ClassVar[int] = 3

    def __post_init__(self):
        if self.filters < 1:
            raise ValueError(f"filters must be >= 1, got {self.filters}")
        if not self.dilations:
            raise ValueError("dilations must be non-empty")
        if self.dilations[0] != 1 or any(
                b <= a for a, b in zip(self.dilations, self.dilations[1:])):
            raise ValueError(
                f"dilations must be strictly increasing starting at 1, got {self.dilations}")


class Conv2DN(Module):
    """Stride-1 undilated convolution (no bias) followed by batch normalisation."""

    def __init__(self, in_channels: int, filters: int, kernel: int = 1, *,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.conv = Conv2d(in_channels, filters, kernel, bias=False, rng=rng, dtype=dtype)
        self.bn = BatchNorm2d(filters, dtype=dtype)

    def forward(self, x) -> Node:
        return self.bn(self.conv(x))


class _AtrousBranch(Module):
    # Pre-activation pair: BN -> ReLU -> Conv(k, d) -> BN -> ReLU -> Conv(k, d).
    def __init__(self, channels, kernel, dilation, rng, dtype):
        super().__init__()
        self.bn1 = BatchNorm2d(channels, dtype=dtype)
        self.conv1 = Conv2d(channels, channels, kernel, dilation=dilation,
                            bias=False, rng=rng, dtype=dtype)
        self.bn2 = BatchNorm2d(channels, dtype=dtype)
        self.conv2 = Conv2d(channels, channels, kernel, dilation=dilation,
                            bias=False, rng=rng, dtype=dtype)

    def forward(self, x) -> Node:
        h = self.conv1(nnops.relu(self.bn1(x)))
        return self.conv2(nnops.relu(self.bn2(h)))


class ResBlockA(Module):
    """Residual unit with parallel atrous branches summed with the identity.

    The summation order is fixed: identity first, then branches in ascending
    dilation order.
    """

    def __init__(self, cfg: BlockConfig, *, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.cfg = cfg
        self.branches = ModuleList(
            _AtrousBranch(cfg.filters, cfg.kernel, d, rng, dtype)
            for d in cfg.dilations)

    def forward(self, x) -> Node:
        x = as_node(x)
        if x.shape[1] != self.cfg.filters:
            raise ShapeError(
                f"resblock_a: input has {x.shape[1]} channels but the block expects "
                f"{self.cfg.filters}; insert a preceding 1x1 conv2dn to match channel counts")
        out = x
        for branch in self.branches:
            out = out + branch(x)
        return out


def clamp_scales(scales, h: int, w: int) -> tuple[int, ...]:
    """Drop pooling scales that do not divide the feature plane evenly."""
    kept = tuple(s for s in scales if h % s == 0 and w % s == 0)
    return kept if kept else (1,)


class PSPPooling(Module):
    """Pyramid grid pooling over near-equal channel groups.

    Channel group i is max-pooled on a scales[i] x scales[i] grid and
    broadcast back; the pooled groups are concatenated with the original
    input and fused by a 1x1 normed convolution restoring the channel count.
    With ``adaptive=True`` scales that do not divide the plane are dropped
    (needed when the middle feature map is smaller than the largest grid).
    """

    def __init__(self, channels: int, scales: tuple[int, ...] = (1, 2, 4, 8),
                 adaptive: bool = False, *, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        if channels < len(scales):
            raise ValueError(
                f"psp_pooling: {channels} channels cannot be split into {len(scales)} groups")
        self.channels = channels
        self.scales = tuple(scales)
        self.adaptive = adaptive
        self.fuse = Conv2DN(2 * channels, channels, kernel=1, rng=rng, dtype=dtype)

    def forward(self, x) -> Node:
        n, c, h, w = x.shape
        if c != self.channels:
            raise ShapeError(
                f"psp_pooling: input has {c} channels, block expects {self.channels}")
        scales = clamp_scales(self.scales, h, w) if self.adaptive else self.scales
        edges = np.linspace(0, c, len(scales) + 1).astype(int)
        pooled = [nnops.max_pool_grid(nnops.channel_slice(x, a, b), cells=s)
                  for s, a, b in zip(scales, edges[:-1], edges[1:])]
        return self.fuse(nnops.concat_channels(pooled + [x]))


class Combine(Module):
    """Fuse a decoder feature map with a skip connection (Table-2 style):
    ReLU on the first input, channel concat, 1x1 normed conv to ``filters``."""

    def __init__(self, in_channels_a: int, in_channels_b: int, filters: int, *,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.fuse = Conv2DN(in_channels_a + in_channels_b, filters, kernel=1,
                            rng=rng, dtype=dtype)

    def forward(self, a, b) -> Node:
        if a.shape[2:] != b.shape[2:]:
            raise ShapeError(
                f"combine: spatial mismatch {a.shape} vs {b.shape}; upsample first")
        return self.fuse(nnops.concat_channels([nnops.relu(a), b]))


class UpSampleBlock(Module):
    """Nearest x2 upsampling followed by a 1x1 normed convolution."""

    def __init__(self, in_channels: int, filters: int, *,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.conv = Conv2DN(in_channels, filters, kernel=1, rng=rng, dtype=dtype)

    def forward(self, x) -> Node:
        return self.conv(nnops.nearest_upsample(x, 2))
