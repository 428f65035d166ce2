"""Composite building blocks: normed convolution, multi-branch residual
blocks with atrous dilations, pyramid grid pooling, skip combination and
the checkerboard-free upsampling unit.

In eval mode every batch norm that directly follows a conv (``Conv2DN``,
each atrous branch's second one) is folded into that conv, from the current
parameters on every call; train mode runs them as two ops.

A recorded graph keeps only the values that some backward reads
(``autodiff.make_node``), so a value that only a sum, a concat or a pooling
consumes is freed as soon as the block drops it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import autodiff, nnops
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


def _conv_bn(conv: Conv2d, bn: BatchNorm2d, x, relu: bool) -> Node:
    """``bn(conv(x), relu=relu)`` for an unbiased conv; in eval mode one conv
    with the batch norm folded in, rectifying its own output."""
    if bn.training:
        return bn(conv(x), relu=relu)
    x = as_node(x)
    w, b = nnops.fold_batch_norm(conv.weight, bn.gamma, bn.beta, bn.running_mean,
                                 bn.running_var, np.result_type(x.value, conv.weight.value))
    out = nnops.conv2d(x, w, b, stride=conv.stride, dilation=conv.dilation)
    return nnops.relu(out, inplace=True) if relu else out


class Conv2DN(Module):
    """Stride-1 undilated convolution (no bias) followed by batch normalisation,
    rectified in the same op when ``relu=True``; one folded conv in eval mode."""

    def __init__(self, in_channels: int, filters: int, kernel: int = 1, *,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.conv = Conv2d(in_channels, filters, kernel, bias=False, rng=rng, dtype=dtype)
        self.bn = BatchNorm2d(filters, dtype=dtype)

    def forward(self, x, relu: bool = False) -> Node:
        return _conv_bn(self.conv, self.bn, x, relu)


class _AtrousBranch(Module):
    # Pre-activation pair: BN -> ReLU -> Conv(k, d) -> BN -> ReLU -> Conv(k, d),
    # each BN -> ReLU one batch_norm node that rectifies in place; in eval
    # mode the first conv runs with the second BN folded in.
    def __init__(self, channels, kernel, dilation, rng, dtype):
        super().__init__()
        self.bn1 = BatchNorm2d(channels, dtype=dtype)
        self.conv1 = Conv2d(channels, channels, kernel, dilation=dilation,
                            bias=False, rng=rng, dtype=dtype)
        self.bn2 = BatchNorm2d(channels, dtype=dtype)
        self.conv2 = Conv2d(channels, channels, kernel, dilation=dilation,
                            bias=False, rng=rng, dtype=dtype)

    def forward(self, x) -> Node:
        h = _conv_bn(self.conv1, self.bn2, self.bn1(x, relu=True), relu=True)
        return self.conv2(h)


class ResBlockA(Module):
    """Residual unit with parallel atrous branches summed with the identity.

    The summation order is fixed: identity first, then branches in ascending
    dilation order, added left to right into one buffer.  A recorded forward
    makes that a single ``add`` node that keeps no partial sums and reads no
    branch output; without a graph the buffer is x plus the first branch
    output, and each later branch output is added into it as soon as it is
    made.  Both give the same bits.
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
        if autodiff.is_grad_enabled():
            return autodiff.add(x, *[branch(x) for branch in self.branches])
        # no graph: add each branch output as it comes, so one lives at a time
        branches = iter(self.branches)
        out = x.value + next(branches)(x).value
        for branch in branches:
            out += branch(x).value
        return Node(out)


def clamp_scales(scales, h: int, w: int) -> tuple[int, ...]:
    """Drop pooling scales that do not divide the feature plane evenly."""
    kept = tuple(s for s in scales if h % s == 0 and w % s == 0)
    return kept if kept else (1,)


class PSPPooling(Module):
    """Pyramid grid pooling over near-equal channel groups.

    Channel group i is max-pooled on a scales[i] x scales[i] grid and
    broadcast back; the pooled groups are concatenated with the original
    input and fused by a 1x1 normed convolution restoring the channel count.
    Scales that do not divide the plane are always dropped (``clamp_scales``),
    so a plane smaller than the largest grid still pools.
    """

    def __init__(self, channels: int, scales: tuple[int, ...] = (1, 2, 4, 8), *,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        if channels < len(scales):
            raise ValueError(
                f"psp_pooling: {channels} channels cannot be split into {len(scales)} groups")
        self.channels = channels
        self.scales = tuple(scales)
        self.fuse = Conv2DN(2 * channels, channels, kernel=1, rng=rng, dtype=dtype)

    def forward(self, x) -> Node:
        n, c, h, w = x.shape
        if c != self.channels:
            raise ShapeError(
                f"psp_pooling: input has {c} channels, block expects {self.channels}")
        scales = clamp_scales(self.scales, h, w)
        edges = np.linspace(0, c, len(scales) + 1).astype(int)
        # each slice dies once pooled, and the pooled groups once concatenated
        return self.fuse(nnops.concat_channels(
            [nnops.max_pool_grid(nnops.channel_slice(x, a, b), cells=s)
             for s, a, b in zip(scales, edges[:-1], edges[1:])] + [x]))


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
    """Nearest x2 upsampling followed by a 1x1 normed convolution.

    In eval mode the (folded) 1x1 conv runs first, on a quarter of the
    pixels, and its output is upsampled: a 1x1 conv and a per-channel affine
    act on each pixel alone, so they commute with the upsample.  In exact
    arithmetic train-mode batch norm commutes too (nearest x2 repeats each
    value 4 times, which leaves the per-channel mean, the population variance
    and every gradient unchanged), but the rounding of its float32 sums does
    not.  Training keeps the upsample first so that its trajectory stays the
    one the tests pin; running the conv first there is a numerics change.
    """

    def __init__(self, in_channels: int, filters: int, *,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.conv = Conv2DN(in_channels, filters, kernel=1, rng=rng, dtype=dtype)

    def forward(self, x) -> Node:
        if self.conv.bn.training:
            return self.conv(nnops.nearest_upsample(x, 2))
        return nnops.nearest_upsample(self.conv(x), 2)
