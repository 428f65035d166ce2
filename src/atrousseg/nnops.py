"""Neural-network primitives: convolution, normalisation, pooling, resampling.

All operations take and return :class:`~atrousseg.autodiff.Node` instances and
register backward closures on the recorded graph.  Every tensor is NCHW
(weights OIHW), inside the ops as well as across the API; conv2d lays each
image's planes out as flat rows separated by zero gap columns, so that every
kernel tap reads one contiguous window.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Node, ShapeError, accumulate, as_node, make_node


def relu(x) -> Node:
    x = as_node(x)
    out = np.maximum(x.value, 0)

    def backward(g):
        accumulate(x, g * (x.value > 0))

    return make_node(out, (x,), backward)


def sigmoid(x) -> Node:
    """Logistic function as 0.5*tanh(0.5*x) + 0.5: inside [0, 1], no overflow."""
    x = as_node(x)
    out = x.value * 0.5
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5

    def backward(g):
        accumulate(x, g * out * (1.0 - out))

    return make_node(out, (x,), backward)


def softmax_channel(x) -> Node:
    """Softmax over axis 1 (the channel axis), numerically stabilised."""
    x = as_node(x)
    if x.ndim < 2:
        raise ShapeError(f"softmax_channel needs a channel axis, got shape {x.shape}")
    z = x.value - x.value.max(axis=1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=1, keepdims=True)
        accumulate(x, out * (g - inner))

    return make_node(out, (x,), backward)


def conv2d(x, w, b=None, stride: int = 1, dilation: int = 1) -> Node:
    """2-D cross-correlation with "same" padding.

    Kernels are square with an odd size k, and each side of each axis is
    padded by (k-1)/2*dilation, so the output is ceil(H/stride) x ceil(W/stride).

    Inputs, outputs and gradients are NCHW with OIHW weights, and every
    kernel size runs on one layout: per image and channel, one flat row of
    ``gap`` zeros and then every image row followed by ``gap`` zeros, where
    ``gap`` is the largest horizontal offset of a live tap.  With gap 0 (a
    1x1 kernel, or a plane too narrow for the side taps) the NCHW planes are
    used as they are; otherwise they are copied once.  A tap's shifted read
    is then one contiguous window of the flat input, so each tap is one GEMM
    of its (cout, cin) weights with that window, added into the output rows
    whose input rows lie inside the plane; the gap columns of the output are
    cropped once.  Vertical padding is never built, and a tap whose reads
    all land in the padding (common for large dilations on small planes) is
    skipped, forward and backward.  Stride 2 reads the even input pixels of
    a 1x1 kernel and keeps the even output pixels of the stride-1 result of
    a wider one.  Backward rebuilds the flat input from the input node's
    value instead of keeping it alive.
    """
    x, w = as_node(x), as_node(w)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input/weight, got {x.shape} and {w.shape}")
    n, cin = x.shape[:2]
    cout, wcin, k, kw = w.shape
    if k != kw or k % 2 == 0:
        raise ShapeError(f"conv2d kernels must be square with an odd size, got {w.shape}")
    if cin != wcin:
        raise ShapeError(
            f"conv2d channel mismatch: input has {cin} channels (shape {x.shape}) "
            f"but weight expects {wcin} (shape {w.shape})")
    if stride not in (1, 2):
        raise ValueError(f"conv2d stride must be 1 or 2, got {stride}")
    if dilation < 1:
        raise ValueError(f"conv2d dilation must be >= 1, got {dilation}")

    # stride 2 subsamples a 1x1 kernel's input and a wider kernel's output
    pre = stride if k == 1 else 1
    step = stride // pre
    xs = x.value[:, :, ::pre, ::pre]
    h, wd = xs.shape[2:]
    # (index, offset) of each tap along an axis, smallest offset first: the
    # centre tap covers every output pixel.  A tap is live when some output
    # pixel reads inside the plane through it.
    axis = sorted(((i, (i - k // 2) * dilation) for i in range(k)), key=lambda t: abs(t[1]))
    rows = [t for t in axis if abs(t[1]) < h]
    cols = [t for t in axis if abs(t[1]) < wd]
    gap = abs(cols[-1][1])
    p = wd + gap
    # (i, j, contiguous (cout, cin) weights, output start, input start,
    # length) of every live tap's window on the flat rows; the weights are a
    # view, not a copy, when w is tap-major as Conv2d builds it
    taps = [(i, j, np.ascontiguousarray(w.value[:, :, i, j]), gap + max(0, -di) * p,
             gap + max(0, di) * p + dj, (h - abs(di)) * p - gap)
            for i, di in rows for j, dj in cols]

    def crop(a, step):
        """The (n, c, h, wd) pixels of flat rows a, every step-th one."""
        return a[:, :, gap:].reshape(n, -1, h, p)[:, :, ::step, :wd:step]

    def flat(a, step):
        """The flat rows that crop(rows, step) reads a from, zero elsewhere
        (a itself, reshaped, when there are no zeros to add)."""
        if not gap and step == 1:
            return a.reshape(n, -1, h * wd)
        f = np.zeros((n, a.shape[1], gap + h * p), a.dtype)
        crop(f, step)[...] = a
        return f

    acc = np.empty((n, cout, gap + h * p), np.result_type(xs, w.value))
    _tap_gemms(acc, [(m, o, a, size) for _, _, m, o, a, size in taps], flat(xs, 1))
    out = np.ascontiguousarray(crop(acc, step))
    if b is not None:
        b = as_node(b)
        out += b.value[:, None, None]

    def backward(g):
        gp = flat(g, step)
        if w.requires_grad:
            accumulate(w, _tap_weight_grad(w.value, taps, gp, flat(xs, 1)))
        if b is not None and b.requires_grad:
            accumulate(b, g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            # x's dtype, even when g is wider
            gxp = np.empty((n, cin, gap + h * p), x.dtype)
            _tap_gemms(gxp, [(m.T, a, o, size) for _, _, m, o, a, size in taps], gp)
            gx = np.ascontiguousarray(crop(gxp, 1))
            if pre > 1:
                gx, strided = np.zeros_like(x.value), gx
                gx[:, :, ::pre, ::pre] = strided
            accumulate(x, gx)

    parents = (x, w) if b is None else (x, w, b)
    return make_node(out, parents, backward)


def _tap_weight_grad(w, taps, g, src) -> np.ndarray:
    """Weight gradient in w's shape (cout, cin, k, k) and memory layout: for
    each of conv2d's taps (i, j, _, d, s, L), the sum over images of
    g[:, :, d:d+L] @ src[:, :, s:s+L].T."""
    gw = np.zeros_like(w, np.result_type(g, src))
    for i, j, _, d, s, size in taps:
        gw[:, :, i, j] = np.matmul(g[:, :, d:d + size],
                                   src[:, :, s:s + size].transpose(0, 2, 1)).sum(axis=0)
    return gw


def _tap_gemms(dst, windows, src) -> None:
    """Set dst to the sum over windows (m, d, s, L) of m @ src[:, :, s:s+L],
    per image, added into dst[:, :, d:d+L]; dst is zero outside them.  The
    first product is written into dst in place, the others through one
    reused buffer."""
    m, d, s, size = windows[0]
    dst[:, :, :d] = 0
    dst[:, :, d + size:] = 0
    np.matmul(m, src[:, :, s:s + size], out=dst[:, :, d:d + size])
    if len(windows) == 1:
        return
    n, c = dst.shape[:2]
    buf = np.empty(n * c * size, np.result_type(m, src))  # the longest window is first
    for m, d, s, size in windows[1:]:
        prod = buf[:n * c * size].reshape(n, c, size)
        np.matmul(m, src[:, :, s:s + size], out=prod)
        dst[:, :, d:d + size] += prod


def batch_norm(x, gamma, beta, running_mean, running_var, training: bool,
               momentum: float = 0.9, eps: float = 1e-5) -> Node:
    """Per-channel batch normalisation over (N, H, W).

    In training mode, batch statistics normalise the input and the running
    buffers are updated in place as momentum*old + (1-momentum)*batch.  The
    forward centres x once, takes the variance from each channel's dot
    product of the centred input with itself, and scales and shifts the
    centred input in place.  Eval mode normalises with the running buffers,
    as one per-channel scale and shift of x.

    Backward recomputes the centred input ``d = x - mean`` from the input
    node's value instead of keeping it alive.  Two per-channel sums, sum(g)
    and sum(g*d), give every gradient (Ioffe & Szegedy 2015,
    arXiv:1502.03167): the input gradient is the per-channel affine map
    a*g + b*d + c, where a = gamma*invstd, and b and c are zero in eval mode.
    """
    x, gamma, beta = as_node(x), as_node(gamma), as_node(beta)
    if x.ndim != 4:
        raise ShapeError(f"batch_norm expects NCHW input, got shape {x.shape}")
    axes = (0, 2, 3)
    m = x.shape[0] * x.shape[2] * x.shape[3]

    def centred(dtype):
        return np.subtract(x.value, mean[:, None, None], dtype=dtype)

    def channel_dot(u, v):
        # one BLAS dot per image row, then a pairwise sum over images and
        # rows: np.sum's accuracy without a product temporary
        return np.vecdot(u, v).sum(axis=(0, 2))

    if training:
        if m < 2:
            raise ValueError(
                "batch_norm: train-mode population per channel is 1; variance undefined")
        mean = x.value.mean(axis=axes)
        out = centred(x.dtype)
        var = channel_dot(out, out) / m
        running_mean *= momentum
        running_mean += (1.0 - momentum) * mean
        running_var *= momentum
        running_var += (1.0 - momentum) * var
        invstd = 1.0 / np.sqrt(var + eps)
        scale = gamma.value * invstd
        out *= scale[:, None, None]
        out += beta.value[:, None, None]
    else:
        # a copy: backward recomputes d from it, and a train-mode call made
        # before that backward updates running_mean in place
        mean = running_mean.astype(x.dtype)
        invstd = 1.0 / np.sqrt(running_var.astype(x.dtype, copy=False) + eps)
        scale = gamma.value * invstd
        out = x.value * scale[:, None, None]
        out += (beta.value - mean * scale)[:, None, None]

    def backward(g):
        d = centred(np.result_type(x.value, g))
        gsum, gdsum = g.sum(axis=axes), channel_dot(g, d)
        if gamma.requires_grad:
            accumulate(gamma, invstd * gdsum)
        if beta.requires_grad:
            accumulate(beta, gsum)
        if not x.requires_grad:
            return
        if not training:
            accumulate(x, g * scale[:, None, None])
            return
        # a*g + b*d + c with b = -a*invstd**2*gdsum/m and c = -a*gsum/m,
        # built in d as a*(g + (b/a)*d + c/a)
        d *= (-invstd * invstd * gdsum / m)[:, None, None]
        d += g
        d -= (gsum / m)[:, None, None]
        d *= scale[:, None, None]
        accumulate(x, d)

    return make_node(out, (x, gamma, beta), backward)


def max_pool_grid(x, cells: int) -> Node:
    """Grid max pooling: split the plane into cells x cells equal rectangles,
    fill each rectangle with its maximum.  Spatial size is unchanged; the
    gradient routes to the first (row-major) argmax of each rectangle.
    """
    x = as_node(x)
    if x.ndim != 4:
        raise ShapeError(f"max_pool_grid expects NCHW input, got shape {x.shape}")
    n, c, h, w = x.shape
    if h % cells or w % cells:
        raise ShapeError(
            f"max_pool_grid: spatial extents ({h}, {w}) must be divisible by cells={cells}")
    hc, wc = h // cells, w // cells
    # (n, c, cells, cells, hc*wc) with each rectangle flattened row-major
    rect = (x.value.reshape(n, c, cells, hc, cells, wc)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, cells, cells, hc * wc))
    idx = rect.argmax(axis=-1)
    mx = np.take_along_axis(rect, idx[..., None], axis=-1)
    out = np.broadcast_to(mx.reshape(n, c, cells, cells, 1, 1),
                          (n, c, cells, cells, hc, wc))
    out = np.ascontiguousarray(out.transpose(0, 1, 2, 4, 3, 5)).reshape(n, c, h, w)

    def backward(g):
        grect = (g.reshape(n, c, cells, hc, cells, wc)
                 .transpose(0, 1, 2, 4, 3, 5)
                 .reshape(n, c, cells, cells, hc * wc))
        gsum = grect.sum(axis=-1)
        buf = np.zeros_like(grect)
        np.put_along_axis(buf, idx[..., None], gsum[..., None], axis=-1)
        gx = (buf.reshape(n, c, cells, cells, hc, wc)
              .transpose(0, 1, 2, 4, 3, 5)
              .reshape(n, c, h, w))
        accumulate(x, gx)

    return make_node(out, (x,), backward)


def nearest_upsample(x, factor: int) -> Node:
    """Nearest-neighbour upsampling; every pixel becomes a factor x factor block."""
    x = as_node(x)
    if x.ndim != 4:
        raise ShapeError(f"nearest_upsample expects NCHW input, got shape {x.shape}")
    if factor < 2:
        raise ValueError(f"nearest_upsample factor must be >= 2, got {factor}")
    n, c, h, w = x.shape
    out = np.broadcast_to(x.value[:, :, :, None, :, None],
                          (n, c, h, factor, w, factor))
    out = np.ascontiguousarray(out).reshape(n, c, h * factor, w * factor)

    def backward(g):
        accumulate(x, g.reshape(n, c, h, factor, w, factor).sum(axis=(3, 5)))

    return make_node(out, (x,), backward)


def concat_channels(xs) -> Node:
    """Concatenate along the channel axis; all inputs share N, H, W."""
    xs = [as_node(v) for v in xs]
    base = xs[0].shape
    for v in xs[1:]:
        if v.ndim != 4 or v.shape[0] != base[0] or v.shape[2:] != base[2:]:
            raise ShapeError(
                f"concat_channels: incompatible shapes {base} vs {v.shape}")
    out = np.concatenate([v.value for v in xs], axis=1)
    offsets = np.cumsum([0] + [v.shape[1] for v in xs])

    def backward(g):
        for v, a, b in zip(xs, offsets[:-1], offsets[1:]):
            accumulate(v, g[:, a:b])

    return make_node(out, tuple(xs), backward)


def channel_slice(x, start: int, stop: int) -> Node:
    """View channels [start, stop) as a differentiable slice."""
    x = as_node(x)
    out = x.value[:, start:stop].copy()

    def backward(g):
        gx = np.zeros_like(x.value)
        gx[:, start:stop] = g
        accumulate(x, gx)

    return make_node(out, (x,), backward)
