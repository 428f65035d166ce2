"""Neural-network primitives: convolution, normalisation, pooling, resampling.

All operations take and return :class:`~atrousseg.autodiff.Node` instances and
register backward closures on the recorded graph.  Every tensor is NCHW
(weights OIHW), inside the ops as well as across the API; conv2d lays each
image's planes out as flat rows separated by zero gap columns, so that every
kernel tap reads one contiguous window.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .autodiff import Node, ShapeError, accumulate, as_node, make_node

# conv2d calls of at least _SPLIT_MACS multiply-adds run every tap GEMM as
# two column pieces, one after the other: each piece's working set is
# smaller, and on a 2-vCPU VM a model whose calls have 9.4M multiply-adds
# ran its sliding-window inference about 30% faster, on one CPU or two.
_SPLIT_MACS = 1 << 22
# batch_norm's epsilon, which fold_batch_norm folds with too
_BN_EPS = 1e-5


def relu(x, inplace: bool = False) -> Node:
    """max(x, 0).  ``inplace=True`` rectifies x's own array, for an op result
    that nothing else reads (a conv2d output); it raises ValueError when a
    recorded backward, x's own or an earlier consumer's, reads x's value.
    The mask x > 0 that this op's backward reads is the same after the
    rectification (NaN included), so the bits are those of ``relu(x)``."""
    x = as_node(x)
    if inplace and x._read:
        raise ValueError("relu(inplace=True): a recorded backward reads the input's value")
    xv, rx = x.value, x._record
    out = np.maximum(xv, 0, out=xv if inplace else None)

    def backward(g):
        accumulate(rx, g * (xv > 0))

    return make_node(out, (x,), backward, reads=(x,))


def sigmoid(x) -> Node:
    """Logistic function as 0.5*tanh(0.5*x) + 0.5: inside [0, 1], no overflow."""
    x = as_node(x)
    rx = x._record
    out = x.value * 0.5
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5

    def backward(g):
        accumulate(rx, g * out * (1.0 - out))

    return make_node(out, (x,), backward, reads=(), reads_output=True)


def softmax_channel(x) -> Node:
    """Softmax over axis 1 (the channel axis), numerically stabilised."""
    x = as_node(x)
    if x.ndim < 2:
        raise ShapeError(f"softmax_channel needs a channel axis, got shape {x.shape}")
    rx = x._record
    z = x.value - x.value.max(axis=1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=1, keepdims=True)
        accumulate(rx, out * (g - inner))

    return make_node(out, (x,), backward, reads=(), reads_output=True)


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
    a wider one.  Backward rebuilds the flat input from the input's value,
    which the record saves, instead of keeping the flat copy alive.

    A call of at least _SPLIT_MACS (2^22) multiply-adds cuts every tap's
    forward and input-gradient GEMM at one fixed 64-aligned column of the
    flat output and runs the two pieces in turn on the calling thread.  The
    cut depends only on the shapes, so the bits do not depend on the CPU
    count; conv2d starts no thread, and BLAS runs as the caller set it.

    Everything above that follows from the shapes (the checks, the live
    taps, the gap, the windows and the pieces) is one cached ``_plan`` per
    (input shape, weight shape, stride, dilation, dtypes); a call gathers its
    tap weights and runs the planned GEMMs.
    """
    x, w = as_node(x), as_node(w)
    plan = _plan(x.shape, w.shape, stride, dilation, x.dtype, w.dtype)
    n, gap, h, wd, p, pre, step = plan.n, plan.gap, plan.h, plan.wd, plan.p, plan.pre, plan.step
    xv, wv, rx, rw = x.value, w.value, x._record, w._record
    xs = xv[:, :, ::pre, ::pre]

    def crop(a, step):
        """The (n, c, h, wd) pixels of flat rows a, every step-th one."""
        return a[:, :, gap:].reshape(n, -1, h, p)[:, :, ::step, :wd:step]

    def flat(a, step):
        """The flat rows that crop(rows, step) reads a from, zero elsewhere
        (a itself, reshaped, when there are no zeros to add)."""
        if not gap and step == 1:
            return a.reshape(n, -1, h * wd)
        f = np.zeros((n, a.shape[1], plan.cols), a.dtype)
        crop(f, step)[...] = a
        return f

    # each live tap's contiguous (cout, cin) weights: a view, not a copy,
    # when w is tap-major as Conv2d builds it
    mats = [np.ascontiguousarray(wv[:, :, i, j]) for i, j, *_ in plan.taps]
    acc = np.empty((n, plan.cout, plan.cols), plan.dtype)
    _tap_gemms(acc, plan.forward, mats, flat(xs, 1))
    out = np.ascontiguousarray(crop(acc, step))
    parents, rb = (x, w), None
    if b is not None:
        b = as_node(b)
        out += b.value[:, None, None]
        parents, rb = (x, w, b), b._record

    def backward(g):
        gp = flat(g, step)
        if rw is not None:
            accumulate(rw, _tap_weight_grad(wv, plan.taps, gp, flat(xs, 1)))
        if rb is not None:
            accumulate(rb, g.sum(axis=(0, 2, 3)))
        if rx is not None:
            # x's dtype, even when g is wider
            gxp = np.empty((n, plan.cin, plan.cols), xv.dtype)
            _tap_gemms(gxp, plan.backward, [m.T for m in mats], gp)
            gx = np.ascontiguousarray(crop(gxp, 1))
            if pre > 1:
                gx, strided = np.zeros_like(xv), gx
                gx[:, :, ::pre, ::pre] = strided
            accumulate(rx, gx)

    return make_node(out, parents, backward, reads=(x, w))


class _ConvPlan(NamedTuple):
    """What conv2d derives from the shapes of one call; see ``_plan``."""
    n: int
    cin: int
    cout: int
    pre: int        # input subsampling (stride of a 1x1 kernel)
    step: int       # output subsampling (stride of a wider kernel)
    h: int          # subsampled input plane
    wd: int
    gap: int
    p: int          # flat row pitch, wd + gap
    cols: int       # flat plane length, gap + h * p
    dtype: np.dtype     # the forward accumulator's
    taps: tuple     # (i, j, output start, input start, length) per live tap
    forward: tuple  # _tap_gemms pieces of the forward and the input gradient
    backward: tuple


@functools.lru_cache(maxsize=1024)
def _plan(x_shape, w_shape, stride, dilation, x_dtype, w_dtype) -> _ConvPlan:
    """conv2d's checks and shape arithmetic for one key, computed once.

    The live taps come sorted by offset size per axis, the centre tap
    first: it covers every output pixel, so its window is the longest.
    ``forward`` and ``backward`` are ``_pieces`` of the tap windows from
    input to output and back."""
    if len(x_shape) != 4 or len(w_shape) != 4:
        raise ShapeError(f"conv2d expects 4-D input/weight, got {x_shape} and {w_shape}")
    n, cin = x_shape[:2]
    cout, wcin, k, kw = w_shape
    if k != kw or k % 2 == 0:
        raise ShapeError(f"conv2d kernels must be square with an odd size, got {w_shape}")
    if cin != wcin:
        raise ShapeError(
            f"conv2d channel mismatch: input has {cin} channels (shape {x_shape}) "
            f"but weight expects {wcin} (shape {w_shape})")
    if stride not in (1, 2):
        raise ValueError(f"conv2d stride must be 1 or 2, got {stride}")
    if dilation < 1:
        raise ValueError(f"conv2d dilation must be >= 1, got {dilation}")

    # stride 2 subsamples a 1x1 kernel's input and a wider kernel's output
    pre = stride if k == 1 else 1
    h, wd = (-(-size // pre) for size in x_shape[2:])
    # (index, offset) of each tap along an axis, smallest offset first.  A
    # tap is live when some output pixel reads inside the plane through it.
    axis = sorted(((i, (i - k // 2) * dilation) for i in range(k)), key=lambda t: abs(t[1]))
    rows = [t for t in axis if abs(t[1]) < h]
    cols = [t for t in axis if abs(t[1]) < wd]
    gap = abs(cols[-1][1])
    p = wd + gap
    taps = tuple((i, j, gap + max(0, -di) * p, gap + max(0, di) * p + dj,
                  (h - abs(di)) * p - gap)
                 for i, di in rows for j, dj in cols)
    length = gap + h * p
    windows = [(t, d, s, size) for t, (*_, d, s, size) in enumerate(taps)]
    return _ConvPlan(
        n, cin, cout, pre, stride // pre, h, wd, gap, p, length,
        np.result_type(x_dtype, w_dtype), taps,
        _pieces(n, cout, length, cout * cin, windows),
        _pieces(n, cin, length, cout * cin, [(t, s, d, size) for t, d, s, size in windows]))


def _pieces(n, c, cols, mat_size, windows) -> tuple:
    """The pieces of a _tap_gemms call into an (n, c, cols) destination from
    the tap windows (tap, destination start, source start, length), the
    longest first, each tap's matrix holding mat_size weights: a scratch
    length and ((lo, hi, windows clipped to [lo, hi)) per piece).

    A call of at least _SPLIT_MACS multiply-adds runs as two pieces, the
    flat columns before and from the 64-aligned column nearest the middle
    (when that lies inside the first window)."""
    _, d, _, size = windows[0]
    cut = (cols + 64) // 128 * 64
    macs = n * mat_size * sum(length for *_, length in windows)
    split = macs >= _SPLIT_MACS and d < cut < d + size
    bounds = ((0, cut), (cut, cols)) if split else ((0, cols),)
    scratch = n * c * size if len(windows) > 1 else 0
    return scratch, tuple(
        (lo, hi, tuple((t, a - lo, s + a - start, b - a) for t, start, s, length in windows
                       if (a := max(start, lo)) < (b := min(start + length, hi))))
        for lo, hi in bounds)


def _tap_weight_grad(w, taps, g, src) -> np.ndarray:
    """Weight gradient in w's shape (cout, cin, k, k) and memory layout: for
    each of conv2d's taps (i, j, d, s, L), the sum over images of
    g[:, :, d:d+L] @ src[:, :, s:s+L].T."""
    gw = np.zeros_like(w, np.result_type(g, src))
    for i, j, d, s, size in taps:
        gw[:, :, i, j] = np.matmul(g[:, :, d:d + size],
                                   src[:, :, s:s + size].transpose(0, 2, 1)).sum(axis=0)
    return gw


def _tap_gemms(dst, pieces, mats, src) -> None:
    """Set dst to the sum over the planned windows (t, d, s, L) of
    mats[t] @ src[:, :, s:s+L], per image, added into dst[:, :, d:d+L]; dst
    is zero outside them.  ``pieces`` is a ``_pieces`` plan: each piece
    sums its part of every window in turn, the first product written into
    dst in place and the others through one reused scratch buffer.  A GEMM
    cut in two can round differently from the whole one; the cut depends on
    the shapes alone."""
    scratch, parts = pieces
    buf = np.empty(scratch, np.result_type(mats[0], src)) if scratch else None
    for lo, hi, part in parts:
        _sum_windows(dst[:, :, lo:hi], [(mats[t], d, s, size) for t, d, s, size in part],
                     src, buf)


def _sum_windows(dst, windows, src, buf) -> None:
    """_tap_gemms on one piece, with buf holding the products after the first."""
    m, d, s, size = windows[0]
    dst[:, :, :d] = 0
    dst[:, :, d + size:] = 0
    np.matmul(m, src[:, :, s:s + size], out=dst[:, :, d:d + size])
    n, c = dst.shape[:2]
    for m, d, s, size in windows[1:]:
        prod = buf[:n * c * size].reshape(n, c, size)
        np.matmul(m, src[:, :, s:s + size], out=prod)
        dst[:, :, d:d + size] += prod


def batch_norm(x, gamma, beta, running_mean, running_var, training: bool,
               momentum: float = 0.9, eps: float = _BN_EPS, relu: bool = False) -> Node:
    """Per-channel batch normalisation over (N, H, W).

    In training mode, batch statistics normalise the input and the running
    buffers are updated in place as momentum*old + (1-momentum)*batch.  The
    forward centres x once, takes the variance from each channel's dot
    product of the centred input with itself, and scales and shifts the
    centred input in place.  Eval mode normalises with the running buffers,
    as one per-channel scale and shift of x; where a conv comes first, the
    blocks fold that scale and shift into the conv instead
    (:func:`fold_batch_norm`).

    Backward recomputes the centred input ``d = x - mean`` from the input's
    value, which the record saves, instead of keeping d alive.  Two
    per-channel sums, sum(g) and sum(g*d), give every gradient (Ioffe &
    Szegedy 2015, arXiv:1502.03167): the input gradient is the per-channel
    affine map a*g + b*d + c, where a = gamma*invstd, and b and c are zero in
    eval mode.

    ``relu=True`` gives ``relu(batch_norm(...))`` bit for bit as one node: the
    output is rectified in place, and backward masks g with out > 0, which
    equals the pre-rectification mask (NaN included).  The graph then holds
    one array where the two ops held two (the memory argument of In-Place
    ABN, Rota Bulo et al. 2018, arXiv:1712.02616).
    """
    x, gamma, beta = as_node(x), as_node(gamma), as_node(beta)
    if x.ndim != 4:
        raise ShapeError(f"batch_norm expects NCHW input, got shape {x.shape}")
    xv, rx, rgamma, rbeta = x.value, x._record, gamma._record, beta._record
    axes = (0, 2, 3)
    m = x.shape[0] * x.shape[2] * x.shape[3]

    def centred(dtype):
        return np.subtract(xv, mean[:, None, None], dtype=dtype)

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
    # the closure holds the output only when it masks g with it
    rectified = np.maximum(out, 0, out=out) if relu else None

    def backward(g):
        if relu:
            g = g * (rectified > 0)
        d = centred(np.result_type(xv, g))
        gsum, gdsum = g.sum(axis=axes), channel_dot(g, d)
        if rgamma is not None:
            accumulate(rgamma, invstd * gdsum)
        if rbeta is not None:
            accumulate(rbeta, gsum)
        if rx is None:
            return
        if not training:
            accumulate(rx, g * scale[:, None, None])
            return
        # a*g + b*d + c with b = -a*invstd**2*gdsum/m and c = -a*gsum/m,
        # built in d as a*(g + (b/a)*d + c/a)
        d *= (-invstd * invstd * gdsum / m)[:, None, None]
        d += g
        d -= (gsum / m)[:, None, None]
        d *= scale[:, None, None]
        accumulate(rx, d)

    return make_node(out, (x, gamma, beta), backward, reads=(x,), reads_output=relu)


def fold_batch_norm(w, gamma, beta, running_mean, running_var, dtype) -> tuple[Node, Node]:
    """Eval-mode batch norm folded into the unbiased conv before it: new
    weights w*s and bias beta - mean*s, s = gamma/sqrt(running_var + _BN_EPS),
    with the buffers cast to ``dtype`` (the conv output's) as batch_norm's
    eval branch casts them.  ``conv2d(x, *fold)`` is then
    ``batch_norm(conv2d(x, w), training=False)`` up to rounding (Jacob et
    al. 2018, arXiv:1712.05877).  Backward: gw = g_w*s,
    ggamma = invstd*(sum(g_w*w) - mean*g_b), gbeta = g_b."""
    w, gamma, beta = as_node(w), as_node(gamma), as_node(beta)
    wv, rw, rgamma, rbeta = w.value, w._record, gamma._record, beta._record
    # copies: a train-mode call made before backward updates the buffers
    mean = running_mean.astype(dtype)
    invstd = 1.0 / np.sqrt(running_var.astype(dtype, copy=False) + _BN_EPS)
    scale = gamma.value * invstd
    wf = wv * scale[:, None, None, None]
    bf = beta.value - mean * scale

    def w_backward(g):
        if rw is not None:
            accumulate(rw, g * scale[:, None, None, None])
        if rgamma is not None:
            accumulate(rgamma, invstd * (g * wv).sum(axis=(1, 2, 3)))

    def b_backward(g):
        if rgamma is not None:
            accumulate(rgamma, -invstd * mean * g)
        if rbeta is not None:
            accumulate(rbeta, g)

    return (make_node(wf, (w, gamma), w_backward, reads=(w,)),
            make_node(bf, (gamma, beta), b_backward, reads=()))


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
    hc, wc, rx = h // cells, w // cells, x._record
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
        accumulate(rx, gx)

    return make_node(out, (x,), backward, reads=())


def nearest_upsample(x, factor: int) -> Node:
    """Nearest-neighbour upsampling; every pixel becomes a factor x factor block."""
    x = as_node(x)
    if x.ndim != 4:
        raise ShapeError(f"nearest_upsample expects NCHW input, got shape {x.shape}")
    if factor < 2:
        raise ValueError(f"nearest_upsample factor must be >= 2, got {factor}")
    n, c, h, w = x.shape
    rx = x._record
    out = np.broadcast_to(x.value[:, :, :, None, :, None],
                          (n, c, h, factor, w, factor))
    out = np.ascontiguousarray(out).reshape(n, c, h * factor, w * factor)

    def backward(g):
        accumulate(rx, g.reshape(n, c, h, factor, w, factor).sum(axis=(3, 5)))

    return make_node(out, (x,), backward, reads=())


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
    targets = [(v._record, a, b) for v, a, b in zip(xs, offsets[:-1], offsets[1:])
               if v._record is not None]

    def backward(g):
        for rec, a, b in targets:
            accumulate(rec, g[:, a:b])

    return make_node(out, tuple(xs), backward, reads=())


def channel_slice(x, start: int, stop: int) -> Node:
    """Copy channels [start, stop) out as a differentiable slice."""
    x = as_node(x)
    shape, dtype, rx = x.shape, x.dtype, x._record
    out = x.value[:, start:stop].copy()

    def backward(g):
        gx = np.zeros(shape, dtype)
        gx[:, start:stop] = g
        accumulate(rx, gx)

    return make_node(out, (x,), backward, reads=())
