"""Model assembly: encoder/decoder trunks at two depths, three output heads,
parameter counting and directory checkpoints.

The d6 trunk is a 1x1 entry convolution, six residual atrous blocks with
filter doubling via stride-2 1x1 convolutions, a pyramid-pooled middle, and
a mirrored decoder with skip combinations back to full resolution.  d7 adds
one more encoder/decoder level; its middle is either a 2x2-max-pool fusion
(v1) or the reduced pyramid pooling over scales {1,2,4} (v2).

A recorded graph keeps only the values some backward reads, so the trunk and
heads hold no other activation past its last use: a head logit dies once its
sigmoid or softmax (which reads its own output) is made, and a decoder
block's output once the next upsample (which reads nothing) is made.
"""

from __future__ import annotations

import json
import os
import secrets
import shutil
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import fileio, nnops
from .autodiff import Node, ShapeError, as_node, pack_parameters
from .blocks import BlockConfig, Combine, Conv2DN, PSPPooling, ResBlockA, UpSampleBlock
from .modules import Conv2d, Module, ModuleList

DEPTHS = ("d6", "d7v1", "d7v2")
HEADS = ("single", "mtsk", "cmtsk")

# Per-level dilation sets (d6 reads the first six); the decoder mirrors them.
_DILATIONS = ((1, 3, 15, 31), (1, 3, 15, 31), (1, 3, 15), (1, 3, 15), (1,), (1,), (1,))

PSP_FULL = (1, 2, 4, 8)
PSP_REDUCED = (1, 2, 4)


@dataclass(frozen=True)
class ModelSpec:
    depth: str = "d6"
    initial_filters: int = 32
    n_classes: int = 6
    input_channels: int = 3
    head: str = "single"

    def __post_init__(self):
        if self.depth not in DEPTHS:
            raise ValueError(f"depth must be one of {DEPTHS}, got {self.depth!r}")
        if self.head not in HEADS:
            raise ValueError(f"head must be one of {HEADS}, got {self.head!r}")
        if self.initial_filters < len(PSP_FULL):  # every head pools them in PSP_FULL groups
            raise ValueError(f"initial_filters must be >= {len(PSP_FULL)}, "
                             f"got {self.initial_filters}")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.input_channels < 1:
            raise ValueError("input_channels must be >= 1")

    @property
    def n_levels(self) -> int:
        return 6 if self.depth == "d6" else 7

    @property
    def size_divisor(self) -> int:
        return 2 ** (self.n_levels - 1)

    def check_image_size(self, h: int, w: int) -> None:
        """Raise ShapeError unless the model takes h x w images: both sides
        divisible by ``size_divisor`` and, since the d7v1 middle pools 2x2
        cells of a square map, square with sides divisible by twice that."""
        div = self.size_divisor
        if h % div or w % div:
            raise ShapeError(
                f"{self.depth} input spatial size must be divisible by {div}, got {h}x{w}")
        if self.depth == "d7v1" and (h != w or h % (2 * div)):
            raise ShapeError(f"d7v1 needs square inputs with sides divisible by "
                             f"{2 * div}, got {h}x{w}")


@dataclass
class MultiHeadOutput:
    segmentation: Node
    boundary: Node | None = None
    distance: Node | None = None
    color: Node | None = None

    def tasks(self) -> dict[str, Node]:
        heads = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: node for name, node in heads if node is not None}

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: node.value for name, node in self.tasks().items()}


class _MiddleV1(Module):
    # 2x2 max pooling broadcast back over each pooled block, concatenated with
    # the input and fused by a biased 1x1 convolution.  The map is square with
    # even sides, which ModelSpec.check_image_size asks of the model input.
    def __init__(self, channels, rng):
        super().__init__()
        self.proj = Conv2d(2 * channels, channels, 1, bias=True, rng=rng)

    def forward(self, x) -> Node:
        return self.proj(nnops.concat_channels(
            [nnops.max_pool_grid(x, cells=x.shape[2] // 2), x]))


class _Trunk(Module):
    def __init__(self, spec: ModelSpec, rng):
        super().__init__()
        f = spec.initial_filters
        levels = spec.n_levels
        widths = [f * 2 ** i for i in range(levels)]

        self.entry = Conv2d(spec.input_channels, f, 1, bias=True, rng=rng)
        self.encoder = ModuleList(
            ResBlockA(BlockConfig(widths[i], _DILATIONS[i]), rng=rng)
            for i in range(levels))
        self.down = ModuleList(
            Conv2d(widths[i], widths[i + 1], 1, stride=2, bias=True, rng=rng)
            for i in range(levels - 1))

        deepest = widths[-1]
        if spec.depth == "d6":
            self.middle = PSPPooling(deepest, PSP_FULL, rng=rng)
        elif spec.depth == "d7v1":
            self.middle = _MiddleV1(deepest, rng)
        else:
            self.middle = PSPPooling(deepest, PSP_REDUCED, rng=rng)

        self.up = ModuleList(
            UpSampleBlock(widths[i + 1], widths[i], rng=rng)
            for i in reversed(range(levels - 1)))
        self.merge = ModuleList(
            Combine(widths[i], widths[i], widths[i], rng=rng)
            for i in reversed(range(levels - 1)))
        self.decoder = ModuleList(
            ResBlockA(BlockConfig(widths[i], _DILATIONS[i]), rng=rng)
            for i in reversed(range(levels - 1)))
        self.final = Combine(f, f, f, rng=rng)

    def forward(self, x) -> Node:
        e0 = self.entry(x)
        skips = []
        h = e0
        for i, block in enumerate(self.encoder):
            h = block(h)
            if i < len(self.down):
                skips.append(h)
                h = self.down[i](h)
        h = self.middle(h)
        for up, merge, block in zip(self.up, self.merge, self.decoder):
            h = up(h)  # frees the level below's output, which no backward reads
            h = block(merge(h, skips.pop()))
        return self.final(h, e0)


class _RegressionBranch(Module):
    # Two normed 3x3 convolutions, each rectified in its batch norm, then
    # biased 1x1 logits.
    def __init__(self, channels, out_channels, rng):
        super().__init__()
        self.c1 = Conv2DN(channels, channels, kernel=3, rng=rng)
        self.c2 = Conv2DN(channels, channels, kernel=3, rng=rng)
        self.logit = Conv2d(channels, out_channels, 1, bias=True, rng=rng)

    def forward(self, x) -> Node:
        h = self.c1(x, relu=True)
        return self.logit(self.c2(h, relu=True))


class _SingleHead(Module):
    def __init__(self, channels, n_classes, rng):
        super().__init__()
        self.psp = PSPPooling(channels, PSP_FULL, rng=rng)
        self.logit = Conv2d(channels, n_classes, 1, bias=True, rng=rng)

    def forward(self, x) -> MultiHeadOutput:
        return MultiHeadOutput(
            segmentation=nnops.softmax_channel(self.logit(self.psp(x))))


class _MtskHead(Module):
    """Four task branches fed independently from the trunk features;
    segmentation and boundary share one pyramid-pooling stage, distance and
    color consume the trunk features directly."""

    def __init__(self, channels, n_classes, rng):
        super().__init__()
        self.psp = PSPPooling(channels, PSP_FULL, rng=rng)
        self.seg_logit = Conv2d(channels, n_classes, 1, bias=True, rng=rng)
        self.bound_logit = Conv2d(channels, n_classes, 1, bias=True, rng=rng)
        self.distance = _RegressionBranch(channels, n_classes, rng)
        self.color = _RegressionBranch(channels, 3, rng)

    def forward(self, x) -> MultiHeadOutput:
        pooled = self.psp(x)
        return MultiHeadOutput(
            segmentation=nnops.softmax_channel(self.seg_logit(pooled)),
            boundary=nnops.sigmoid(self.bound_logit(pooled)),
            distance=nnops.sigmoid(self.distance(x)),
            color=nnops.sigmoid(self.color(x)))


class _CmtskHead(Module):
    """Conditioned multitasking: the distance prediction feeds the boundary
    logits, and both feed the segmentation logits."""

    def __init__(self, channels, n_classes, rng):
        super().__init__()
        k = n_classes
        self.distance = _RegressionBranch(channels, k, rng)
        self.psp = PSPPooling(channels, PSP_FULL, rng=rng)
        self.bound_logit = Conv2d(channels + k, k, 1, bias=True, rng=rng)
        self.seg_logit = Conv2d(channels + 2 * k, k, 1, bias=True, rng=rng)
        self.color = _RegressionBranch(channels, 3, rng)

    def forward(self, x) -> MultiHeadOutput:
        dist = nnops.sigmoid(self.distance(x))
        pooled = self.psp(x)
        bound = nnops.sigmoid(self.bound_logit(nnops.concat_channels([pooled, dist])))
        seg = nnops.softmax_channel(
            self.seg_logit(nnops.concat_channels([pooled, dist, bound])))
        return MultiHeadOutput(segmentation=seg, boundary=bound, distance=dist,
                               color=nnops.sigmoid(self.color(x)))


_HEAD_CLASSES = {"single": _SingleHead, "mtsk": _MtskHead, "cmtsk": _CmtskHead}


class SegmentationModel(Module):
    """Trunk plus head for ``spec``, initialised from ``seed``.  Dtype policy:
    every parameter and buffer is float32; only the building blocks take a
    ``dtype``, so tests can build float64 blocks for gradient checks.  The
    parameters are packed into one arena (``pack_parameters``) once, when
    they are built, so every ``Adam`` over them copies nothing."""

    def __init__(self, spec: ModelSpec, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.spec = spec
        self.trunk = _Trunk(spec, rng)
        self.head = _HEAD_CLASSES[spec.head](
            spec.initial_filters, spec.n_classes, rng)
        pack_parameters(self.parameters())

    def forward(self, x) -> MultiHeadOutput:
        x = as_node(x)
        if x.ndim != 4:
            raise ShapeError(f"model input must be NCHW, got shape {x.shape}")
        n, c, h, w = x.shape
        if c != self.spec.input_channels:
            raise ShapeError(
                f"model expects {self.spec.input_channels} input channels, got {c}")
        self.spec.check_image_size(h, w)
        return self.head(self.trunk(x))

    def predict(self, x) -> dict[str, np.ndarray]:
        """Eval-mode forward without graph recording; returns plain arrays."""
        with self.evaluating():
            return self.forward(x).arrays()


def build_model(spec: ModelSpec, seed: int = 0) -> SegmentationModel:
    """A float32 SegmentationModel; see its docstring for the dtype policy."""
    return SegmentationModel(spec, seed=seed)


def param_count(module: Module) -> int:
    """Total number of trainable scalar parameters."""
    return sum(p.size for p in module.parameters())


def save_checkpoint(model: SegmentationModel, out_dir) -> Path:
    """Write every parameter/buffer as an NCT1 tensor plus a JSON manifest.

    The files go into a sibling temporary directory that is then renamed to
    ``out_dir``.  ``out_dir`` must be new, empty or an earlier checkpoint
    (it has a ``manifest.json``), which is replaced as a whole; any other
    directory, or one holding the working directory, is refused before
    anything is written.  A write that fails part way leaves either no
    checkpoint or the previous complete one.
    """
    out = Path(out_dir).resolve()
    if out.exists() and not (out.is_dir() and ((out / "manifest.json").is_file()
                                               or not any(out.iterdir()))):
        raise FileExistsError(f"{out} exists and is neither empty nor a checkpoint")
    if Path.cwd().is_relative_to(out):
        raise ValueError(f"cannot replace {out}, which holds the working directory")
    tmp = fileio.ensure_dir(out.parent) / f".{out.name}.{secrets.token_hex(4)}"
    old = tmp.with_name(tmp.name + ".old")
    tmp.mkdir()  # unlike mkdtemp, keeps the umask's permissions
    try:
        tensors = {}
        for name, arr in model.state_dict().items():
            fname = name + ".nct"
            fileio.write_nct(tmp / fname, arr)
            tensors[name] = fname
        manifest = {"spec": asdict(model.spec), "format": "nct1", "tensors": tensors}
        (tmp / "manifest.json").write_text(json.dumps(manifest, indent=2))
        if out.exists():
            os.replace(out, old)
        os.replace(tmp, out)
    except BaseException:
        if old.exists() and not out.exists():
            os.replace(old, out)
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)
    return Path(out_dir)


def load_checkpoint(ckpt_dir) -> SegmentationModel:
    ckpt = Path(ckpt_dir)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"{ckpt / 'manifest.json'}: expected a JSON object")
    if manifest.get("format") != "nct1":
        raise ValueError(f"{ckpt}: checkpoint format {manifest.get('format')!r}, expected 'nct1'")
    tensors = manifest.get("tensors")
    if not (isinstance(tensors, dict) and all(isinstance(f, str) for f in tensors.values())):
        raise ValueError(f"{ckpt / 'manifest.json'}: 'tensors' must map names to file names")
    try:
        spec = ModelSpec(**manifest["spec"])
    except TypeError as exc:  # a field ModelSpec does not have
        raise ValueError(f"{ckpt}: bad model spec in manifest: {exc}") from exc
    model = SegmentationModel(spec)
    state = {name: fileio.read_nct(ckpt / fname)
             for name, fname in tensors.items()}
    model.load_state_dict(state)
    return model
