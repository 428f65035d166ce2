"""Neural-network primitives: convolution, normalisation, pooling, resampling.

All operations take and return :class:`~atrousseg.autodiff.Node` instances and
register backward closures on the recorded graph.  Every tensor crosses the
API as NCHW (weights as OIHW); conv2d alone computes channels-last inside,
and only for kernels wider than 1x1.
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


def _live_spans(k: int, dilation: int, stride: int, size: int) -> list:
    """Per kernel index along one axis: the (input, output) slices where
    output pixel o reads input pixel o*stride + i*dilation - before inside the
    unpadded plane, or None when every read lands in the padding."""
    before = (k - 1) * dilation // 2
    last = -(-size // stride) - 1
    spans = []
    for i in range(k):
        off = i * dilation - before
        lo, hi = max(0, -(off // stride)), min(last, (size - 1 - off) // stride)
        spans.append((slice(lo * stride + off, hi * stride + off + 1, stride),
                      slice(lo, hi + 1)) if lo <= hi else None)
    return spans


def conv2d(x, w, b=None, stride: int = 1, dilation: int = 1) -> Node:
    """2-D cross-correlation with "same" padding.

    Padding totals (k-1)*dilation per axis, split evenly with the extra
    pixel on the trailing side, so the output spatial size is
    ceil(H/stride) x ceil(W/stride) for stride in {1, 2}.

    Inputs, outputs and gradients are NCHW with OIHW weights.  A 1x1 kernel
    is one GEMM on the NCHW planes (see ``_conv1x1``).  For wider kernels the
    input is transposed once to channels-last and each kernel tap adds one
    small matmul into the output pixels whose input pixel lies inside the
    plane.  The padding is never built: a tap whose reads all land in it
    (common for large dilations on small planes) is skipped, forward and
    backward.  Backward recomputes the channels-last input ``xt`` from the
    input node's NCHW value instead of keeping a second copy alive.
    """
    x, w = as_node(x), as_node(w)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input/weight, got {x.shape} and {w.shape}")
    n, cin, h, wid = x.shape
    cout, wcin, kh, kw = w.shape
    if kh != kw:
        raise ShapeError(f"conv2d kernels must be square, got {w.shape}")
    if cin != wcin:
        raise ShapeError(
            f"conv2d channel mismatch: input has {cin} channels (shape {x.shape}) "
            f"but weight expects {wcin} (shape {w.shape})")
    if stride not in (1, 2):
        raise ValueError(f"conv2d stride must be 1 or 2, got {stride}")
    if dilation < 1:
        raise ValueError(f"conv2d dilation must be >= 1, got {dilation}")
    if kh == 1:
        return _conv1x1(x, w, b, stride)

    k = kh
    rows = _live_spans(k, dilation, stride, h)
    cols = _live_spans(k, dilation, stride, wid)
    # (i, j, input index, output index) of every live tap, on NHWC arrays
    taps = [(i, j, (slice(None), r[0], c[0]), (slice(None), r[1], c[1]))
            for i, r in enumerate(rows) if r for j, c in enumerate(cols) if c]

    def channels_last():
        return np.ascontiguousarray(x.value.transpose(0, 2, 3, 1))

    xt = channels_last()
    wt = np.ascontiguousarray(w.value.transpose(2, 3, 1, 0))  # (k, k, cin, cout)
    out = np.zeros((n, -(-h // stride), -(-wid // stride), cout),
                   np.result_type(x.value, w.value))
    for i, j, src, dst in taps:
        out[dst] += xt[src] @ wt[i, j]
    if b is not None:
        b = as_node(b)
        out += b.value
    out = np.ascontiguousarray(out.transpose(0, 3, 1, 2))

    def backward(g):
        xt = channels_last()
        gt = np.ascontiguousarray(g.transpose(0, 2, 3, 1))
        if w.requires_grad:
            gw = np.zeros(w.shape, np.result_type(g, xt))
            for i, j, src, dst in taps:
                gw[:, :, i, j] = gt[dst].reshape(-1, cout).T @ xt[src].reshape(-1, cin)
            accumulate(w, gw)
        if b is not None and b.requires_grad:
            accumulate(b, g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            # x's dtype, even when g is wider (f64 head gradients on f32 trunks)
            gxt = np.zeros_like(xt)
            for i, j, src, dst in taps:
                gxt[src] += gt[dst] @ wt[i, j].T
            accumulate(x, np.ascontiguousarray(gxt.transpose(0, 3, 1, 2)))

    parents = (x, w) if b is None else (x, w, b)
    return make_node(out, parents, backward)


def _conv1x1(x: Node, w: Node, b, stride: int) -> Node:
    """conv2d for a 1x1 kernel: w[:, :, 0, 0] @ the (strided) pixels of each
    image, on NCHW with no transpose.  Backward is wT @ g per image for x
    (scattered back to the strided pixels) and g @ pixelsT per image, summed
    over the batch, for w."""
    n, cin, h, wid = x.shape
    ho, wo = -(-h // stride), -(-wid // stride)
    wm = w.value[:, :, 0, 0]

    def pixels():
        return x.value[:, :, ::stride, ::stride].reshape(n, cin, ho * wo)

    out = np.matmul(wm, pixels())
    if b is not None:
        b = as_node(b)
        out += b.value[:, None]

    def backward(g):
        g = g.reshape(n, -1, ho * wo)
        if w.requires_grad:
            gw = np.matmul(g, pixels().transpose(0, 2, 1)).sum(axis=0)
            accumulate(w, gw.reshape(w.shape))
        if b is not None and b.requires_grad:
            accumulate(b, g.sum(axis=(0, 2)))
        if x.requires_grad:
            # x's dtype, even when g is wider (f64 head gradients on f32 trunks)
            gx = np.matmul(wm.T, g).astype(x.dtype, copy=False).reshape(n, cin, ho, wo)
            if stride > 1:
                gx, strided = np.zeros_like(x.value), gx
                gx[:, :, ::stride, ::stride] = strided
            accumulate(x, gx)

    parents = (x, w) if b is None else (x, w, b)
    return make_node(out.reshape(n, -1, ho, wo), parents, backward)


def batch_norm(x, gamma, beta, running_mean, running_var, training: bool,
               momentum: float = 0.9, eps: float = 1e-5) -> Node:
    """Per-channel batch normalisation over (N, H, W).

    In training mode, batch statistics normalise the input and the running
    buffers are updated in place as momentum*old + (1-momentum)*batch.
    Eval mode normalises with the running buffers.  Forward applies
    gamma*(x - mean)*invstd + beta as one per-channel scale and shift of x.
    Backward recomputes the normalised input ``xhat`` from the input node's
    value instead of keeping it alive.
    """
    x, gamma, beta = as_node(x), as_node(gamma), as_node(beta)
    if x.ndim != 4:
        raise ShapeError(f"batch_norm expects NCHW input, got shape {x.shape}")
    c = x.shape[1]
    axes = (0, 2, 3)
    m = x.shape[0] * x.shape[2] * x.shape[3]

    if training:
        if m < 2:
            raise ValueError(
                "batch_norm: train-mode population per channel is 1; variance undefined")
        mean = x.value.mean(axis=axes)
        var = x.value.var(axis=axes)
        running_mean *= momentum
        running_mean += (1.0 - momentum) * mean
        running_var *= momentum
        running_var += (1.0 - momentum) * var
    else:
        # a copy: backward recomputes xhat from it, and a train-mode call
        # made before that backward updates running_mean in place
        mean = running_mean.astype(x.dtype)
        var = running_var.astype(x.dtype, copy=False)

    invstd = 1.0 / np.sqrt(var + eps)
    scale = gamma.value * invstd
    shift = beta.value - mean * scale
    out = x.value * scale[:, None, None]
    out += shift[:, None, None]

    def backward(g):
        xhat = (x.value - mean[:, None, None]) * invstd[:, None, None]
        if gamma.requires_grad:
            accumulate(gamma, (g * xhat).sum(axis=axes))
        if beta.requires_grad:
            accumulate(beta, g.sum(axis=axes))
        if x.requires_grad:
            gxhat = g * gamma.value[:, None, None]
            if training:
                s1 = gxhat.sum(axis=axes, keepdims=True)
                s2 = (gxhat * xhat).sum(axis=axes, keepdims=True)
                gx = (invstd[:, None, None] / m) * (m * gxhat - s1 - xhat * s2)
            else:
                gx = gxhat * invstd[:, None, None]
            accumulate(x, gx)

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
