"""Finite-difference gradient checks (f64) and shape contracts for every
differentiable tensor op."""

import tracemalloc

import numpy as np
import pytest

from numpy.lib.stride_tricks import sliding_window_view

from atrousseg import autodiff, losses, nnops
from atrousseg.autodiff import Node, Record, ShapeError, make_node, parameter
from atrousseg.nnops import (batch_norm, channel_slice, concat_channels,
                             conv2d, fold_batch_norm, max_pool_grid,
                             nearest_upsample, relu, sigmoid, softmax_channel)
from conftest import numeric_gradient, rel_err
from test_acceptance import _loss_cases, _op_cases

TOL = 1e-4  # module contract; most ops land far below


def fd_check(build, arrays, tol=TOL):
    """Check autodiff grads of build(*nodes) against central differences."""
    nodes = [parameter(a.copy()) for a in arrays]
    build(*nodes).backward()
    for i, a in enumerate(arrays):
        def f(v):
            probe = [parameter(x.copy()) for x in arrays]
            probe[i] = parameter(v)
            return build(*probe).item()
        num = numeric_gradient(f, a.copy())
        err = rel_err(nodes[i].grad, num)
        assert err < tol, f"arg {i}: rel err {err:.3e}"


class TestConv2d:
    @pytest.mark.parametrize("stride,dilation", [(1, 1), (2, 1), (1, 2), (2, 3)])
    def test_gradients(self, rng, stride, dilation):
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3)) * 0.5
        b = rng.normal(size=(4,))
        fd_check(lambda xn, wn, bn: (conv2d(xn, wn, bn, stride=stride,
                                            dilation=dilation) ** 2).sum(),
                 [x, w, b])

    @pytest.mark.parametrize("stride", [1, 2])
    def test_1x1_gradients(self, rng, stride):
        x = rng.normal(size=(2, 3, 9, 7))
        w = rng.normal(size=(4, 3, 1, 1)) * 0.5
        b = rng.normal(size=(4,))
        fd_check(lambda xn, wn, bn: (conv2d(xn, wn, bn, stride=stride) ** 2).sum(),
                 [x, w, b])

    def test_same_padding_shapes(self, rng):
        x = parameter(rng.normal(size=(1, 2, 16, 16)))
        w = parameter(rng.normal(size=(5, 2, 3, 3)))
        assert conv2d(x, w, dilation=15).shape == (1, 5, 16, 16)
        assert conv2d(x, w).shape == (1, 5, 16, 16)
        odd = parameter(rng.normal(size=(1, 2, 7, 7)))
        assert conv2d(odd, w, stride=2).shape == (1, 5, 4, 4)

    def test_identity_kernel(self):
        x = parameter(np.arange(16.0).reshape(1, 1, 4, 4))
        w = parameter(np.ones((1, 1, 1, 1)))
        out = conv2d(x, w)
        assert np.array_equal(out.value, x.value)

    def test_channel_mismatch_message(self, rng):
        x = parameter(rng.normal(size=(1, 3, 8, 8)))
        w = parameter(rng.normal(size=(4, 5, 3, 3)))
        with pytest.raises(ShapeError, match="channel"):
            conv2d(x, w)

    def test_rejects_even_kernel(self, rng):
        x = parameter(rng.normal(size=(1, 1, 8, 8)))
        w = parameter(rng.normal(size=(1, 1, 2, 2)))
        with pytest.raises(ShapeError, match="odd"):
            conv2d(x, w)

    def test_rejects_bad_stride(self, rng):
        x = parameter(rng.normal(size=(1, 1, 8, 8)))
        w = parameter(rng.normal(size=(1, 1, 3, 3)))
        with pytest.raises(ValueError):
            conv2d(x, w, stride=3)


def im2col_conv2d(x, w, b, stride, dilation, g):
    """Reference conv2d on plain arrays: explicit zero padding, a strided
    sliding-window (im2col) view and tensordot.  Returns the output and the
    gradients of x, w and b for the upstream gradient g."""
    h, wid = x.shape[2:]
    k = w.shape[2]
    total = (k - 1) * dilation
    before, after = total // 2, total - total // 2
    extent = total + 1
    xpad = np.pad(x, ((0, 0), (0, 0), (before, after), (before, after)))
    win = sliding_window_view(xpad, (extent, extent), axis=(2, 3))
    win = win[:, :, ::stride, ::stride, ::dilation, ::dilation]
    out = np.tensordot(win, w, axes=([1, 4, 5], [1, 2, 3])).transpose(0, 3, 1, 2)
    out = out + b[:, None, None]
    ho, wo = out.shape[2], out.shape[3]
    gw = np.tensordot(g, win, axes=([0, 2, 3], [0, 2, 3]))
    gxpad = np.zeros_like(xpad)
    for i in range(k):
        for j in range(k):
            tap = np.tensordot(g, w[:, :, i, j], axes=([1], [0]))
            gxpad[:, :, i * dilation: i * dilation + ho * stride: stride,
                  j * dilation: j * dilation + wo * stride: stride] += tap.transpose(0, 3, 1, 2)
    gx = gxpad[:, :, before: before + h, before: before + wid]
    return out, gx, gw, g.sum(axis=(0, 2, 3))


def upstream(value):
    """A non-leaf node whose .grad is exactly what its consumer passes back."""
    node = Node(value)
    node._record = Record(backward=lambda g: None)
    return node


def backprop(out, g):
    """Backpropagate the upstream gradient g (exactly, in g's dtype) into out."""
    (out * g).sum().backward()


class TestConv2dReference:
    """The per-tap kernel against the im2col reference, with tolerances fixed
    by the dtype (relative to the largest magnitude)."""

    TOL = {np.float64: 1e-10, np.float32: 1e-5}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    # (4, 128, 2, 2): a wide 1x1 GEMM sums in another order than per-tap did
    @pytest.mark.parametrize("shape", [(2, 3, 9, 7), (1, 4, 8, 5), (4, 128, 2, 2)])
    @pytest.mark.parametrize("dilation", [1, 2, 3, 15, 31])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_im2col(self, rng, k, stride, dilation, shape, dtype):
        self.check_against_im2col(rng, k, stride, dilation, shape, dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("shape", [(2, 3, 4, 13), (2, 3, 13, 4)])
    def test_side_taps_live_on_one_axis_only(self, rng, shape, stride, dtype):
        """Dilation 6 keeps the side taps along the 13-pixel axis only: a wide
        plane gets a 6-column gap and one row of taps, a tall one three rows
        of taps and no gap."""
        self.check_against_im2col(rng, 3, stride, 6, shape, dtype)

    def check_against_im2col(self, rng, k, stride, dilation, shape, dtype):
        x = rng.normal(size=shape).astype(dtype)
        w = rng.normal(size=(5, shape[1], k, k)).astype(dtype)
        b = rng.normal(size=5).astype(dtype)
        xn, wn, bn = upstream(x), upstream(w), upstream(b)
        out = conv2d(xn, wn, bn, stride=stride, dilation=dilation)
        g = rng.normal(size=out.shape).astype(dtype)
        backprop(out, g)
        ref = im2col_conv2d(x, w, b, stride, dilation, g)
        for name, got, want in zip(("out", "gx", "gw", "gb"),
                                   (out.value, xn.grad, wn.grad, bn.grad), ref):
            assert got.shape == want.shape and got.dtype == dtype, name
            assert rel_err(got, want) <= self.TOL[dtype], name

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("dilation", [9, 15, 31])
    def test_dilation_past_the_plane_keeps_only_the_centre_tap(self, rng, stride, dilation):
        x = rng.normal(size=(2, 3, 9, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        g = rng.normal(size=(2, 4, -(-9 // stride), -(-7 // stride)))
        grads = []
        for kernel in (w, w[:, :, 1:2, 1:2]):
            xn, wn = upstream(x), upstream(kernel)
            out = conv2d(xn, wn, stride=stride, dilation=dilation)
            backprop(out, g)
            grads.append((out.value, xn.grad, wn.grad))
        (out3, gx3, gw3), (out1, gx1, gw1) = grads
        assert rel_err(out3, out1) <= 1e-12 and rel_err(gx3, gx1) <= 1e-12
        assert rel_err(gw3[:, :, 1:2, 1:2], gw1) <= 1e-12
        gw3[:, :, 1, 1] = 0.0
        assert not gw3.any()

    @pytest.mark.parametrize("stride", [1, 2])
    def test_dtype_and_layout_with_f64_upstream(self, rng, stride):
        """The cmtsk heads feed f64 gradients into f32 convolutions: the input
        gradient stays f32 and the weight gradient widens, as tensordot did.
        At stride 2 the output is a slice of the stride-1 plane."""
        x = upstream(rng.normal(size=(2, 3, 9, 7)).astype(np.float32))
        w = upstream(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
        out = conv2d(x, w, stride=stride, dilation=3)
        assert out.dtype == np.float32 and out.value.flags.c_contiguous
        backprop(out, rng.normal(size=out.shape))  # f64
        assert x.grad.dtype == np.float32 and x.grad.flags.c_contiguous
        assert w.grad.dtype == np.float64 and w.grad.flags.c_contiguous

    @pytest.mark.parametrize("shape", [(2, 3, 9, 7), (4, 16, 2, 2)])
    @pytest.mark.parametrize("dilation", [1, 3, 15])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    def test_tap_major_weight_is_bit_identical(self, rng, k, stride, dilation, shape):
        """Conv2d stores OIHW weights in (k, k, cout, cin) memory so that each
        tap's weights are contiguous: the results are those of a C-ordered
        copy bit for bit, and the weight gradient keeps the tap-major layout."""
        x = rng.normal(size=shape).astype(np.float32)
        w = rng.normal(size=(5, shape[1], k, k)).astype(np.float32)
        tap_major = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1)
        g = None
        results = []
        for weight in (w, tap_major):
            xn, wn = upstream(x), upstream(weight)
            out = conv2d(xn, wn, stride=stride, dilation=dilation)
            g = rng.normal(size=out.shape).astype(np.float32) if g is None else g
            backprop(out, g)
            results.append((out.value, xn.grad, wn.grad))
        for name, c_order, tapped in zip(("out", "gx", "gw"), *results):
            assert c_order.tobytes() == tapped.tobytes(), name
        gw = results[1][2]
        assert gw.strides == tap_major.strides and gw[:, :, k // 2, 0].flags.c_contiguous

    @pytest.mark.parametrize("stride", [1, 2])
    def test_1x1_dtype_and_layout_with_f64_upstream(self, rng, stride):
        """The head logits are 1x1 convolutions: the same contract on the GEMM path."""
        x = upstream(rng.normal(size=(2, 3, 9, 7)).astype(np.float32))
        w = upstream(rng.normal(size=(4, 3, 1, 1)).astype(np.float32))
        b = upstream(rng.normal(size=4).astype(np.float32))
        out = conv2d(x, w, b, stride=stride)
        assert out.dtype == np.float32 and out.value.flags.c_contiguous
        backprop(out, rng.normal(size=out.shape))  # f64
        assert x.grad.dtype == np.float32 and x.grad.flags.c_contiguous
        assert w.grad.dtype == np.float64 and w.grad.flags.c_contiguous
        assert b.grad.dtype == np.float64


class TestConv2dTwoPieces:
    """Calls of at least nnops._SPLIT_MACS multiply-adds run every forward
    and input-gradient tap GEMM as two fixed column pieces, one after the
    other; smaller calls run each GEMM whole."""

    # (x shape, cout, k, stride, dilation), each with forward and input
    # gradient above the threshold
    CASES = [
        ((1, 32, 32, 32), 32, 3, 1, 3),
        ((1, 32, 64, 64), 32, 3, 1, 1),
        ((2, 16, 64, 64), 16, 3, 1, 3),
        ((1, 32, 64, 64), 32, 3, 1, 15),
        ((2, 16, 64, 64), 16, 3, 2, 31),
        ((1, 96, 64, 64), 96, 1, 1, 1),
        ((2, 128, 64, 64), 128, 1, 2, 1),
        # dilation 31 on a 20 px plane: the side taps read only padding
        ((1, 256, 20, 20), 256, 3, 1, 31),
    ]

    @staticmethod
    def count_pieces(monkeypatch):
        """Return the list that gets the flat length of every piece that
        nnops._tap_gemms sums."""
        pieces = []
        sum_windows = nnops._sum_windows

        def counted(dst, *rest):
            pieces.append(dst.shape[-1])
            sum_windows(dst, *rest)

        monkeypatch.setattr(nnops, "_sum_windows", counted)
        return pieces

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-k{c[2]}s{c[3]}d{c[4]}")
    def test_two_pieces_match_the_reference(self, monkeypatch, case, dtype):
        shape, cout, k, stride, dilation = case
        rng = np.random.default_rng(7)
        x = rng.normal(size=shape).astype(dtype)
        w = rng.normal(size=(cout, shape[1], k, k)).astype(dtype)
        b = rng.normal(size=cout).astype(dtype)
        pieces = self.count_pieces(monkeypatch)
        xn, wn, bn = upstream(x), upstream(w), upstream(b)
        out = conv2d(xn, wn, bn, stride=stride, dilation=dilation)
        g = rng.normal(size=out.shape).astype(dtype)
        backprop(out, g)
        assert len(pieces) == 4  # forward and input gradient, two pieces each
        ref = im2col_conv2d(x, w, b, stride, dilation, g)
        tol = TestConv2dReference.TOL[dtype]
        for name, got, want in zip(("out", "gx", "gw", "gb"),
                                   (out.value, xn.grad, wn.grad, bn.grad), ref):
            assert got.dtype == dtype and rel_err(got, want) <= tol, name

    def test_small_calls_run_whole(self, monkeypatch):
        pieces = self.count_pieces(monkeypatch)
        x = upstream(np.ones((1, 16, 32, 32), np.float32))
        out = conv2d(x, np.ones((16, 16, 3, 3), np.float32), dilation=3)
        backprop(out, np.ones(out.shape, np.float32))
        assert len(pieces) == 2

    def test_finite_differences_above_the_threshold(self, rng, monkeypatch):
        """Criterion 1's check on one f64 call of two pieces, at sampled
        entries: x in the middle rows of the plane, where the pieces meet,
        and anywhere in w and b."""
        pieces = self.count_pieces(monkeypatch)
        x = rng.normal(size=(2, 16, 64, 64))
        w = rng.normal(size=(16, 16, 3, 3)) * 0.5
        b = rng.normal(size=16)
        t = rng.normal(size=(2, 16, 64, 64))

        def loss(xv, wv, bv):
            return (conv2d(xv, wv, bv, dilation=3) * t).sum()

        nodes = [parameter(a.copy()) for a in (x, w, b)]
        loss(*nodes).backward()
        assert len(pieces) == 4
        picks = [[(int(i), int(c), int(r), int(j)) for i, c, r, j in zip(
                     rng.integers(0, 2, 40), rng.integers(0, 16, 40),
                     rng.integers(28, 36, 40), rng.integers(0, 64, 40))],
                 [tuple(int(v) for v in rng.integers(0, (16, 16, 3, 3))) for _ in range(24)],
                 [(int(c),) for c in rng.integers(0, 16, 8)]]
        eps = 1e-6
        for arg, (node, idx) in enumerate(zip(nodes, picks)):
            num = []
            for ix in idx:
                values = [x, w, b]
                hi, lo = values[arg].copy(), values[arg].copy()
                hi[ix] += eps
                lo[ix] -= eps
                f = [loss(*values[:arg], v, *values[arg + 1:]).item() for v in (hi, lo)]
                num.append((f[0] - f[1]) / (2 * eps))
            got = np.array([node.grad[ix] for ix in idx])
            assert rel_err(got, np.array(num)) < 1e-4, arg


class TestConv2dPlan:
    """conv2d derives everything shape-bound once per key, in nnops._plan."""

    @staticmethod
    def run(x, w, **kw):
        """Output, input gradient and weight gradient bytes of one call."""
        xn, wn = upstream(x), parameter(w)
        out = conv2d(xn, wn, **kw)
        backprop(out, np.ones(out.shape, out.dtype))
        return out.value.tobytes(), xn.grad.tobytes(), wn.grad.tobytes()

    def test_repeat_hits_the_cache_with_the_same_bytes(self, rng):
        x = rng.normal(size=(2, 4, 9, 7)).astype(np.float32)
        w = rng.normal(size=(5, 4, 3, 3)).astype(np.float32)
        nnops._plan.cache_clear()
        first = self.run(x, w, dilation=2)
        assert nnops._plan.cache_info().misses == 1
        again = self.run(x, w, dilation=2)
        info = nnops._plan.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        nnops._plan.cache_clear()
        assert again == first == self.run(x, w, dilation=2)

    @pytest.mark.parametrize("change", [
        dict(dilation=3), dict(stride=2), dict(n=3), dict(x_dtype=np.float64),
        dict(w_dtype=np.float64)], ids=lambda c: next(iter(c)))
    def test_keys_that_differ_get_their_own_plan(self, change):
        base = dict(n=2, stride=1, dilation=1, x_dtype=np.float32, w_dtype=np.float32)
        plans = []
        for kw in (base, {**base, **change}):
            plans.append(nnops._plan((kw["n"], 4, 16, 16), (8, 4, 3, 3), kw["stride"],
                                     kw["dilation"], np.dtype(kw["x_dtype"]),
                                     np.dtype(kw["w_dtype"])))
        assert plans[0] != plans[1]


def bn_errors(rng, shape, training, g_dtype=np.float32, eps=1e-5):
    """Run batch_norm forward and backward on f32 inputs whose mean is larger
    than their spread, and measure it against the f64 textbook formula.

    Returns the max relative errors of out, the updated running_var, gx and
    gbeta; ggamma's error per channel relative to sum |g * xhat| (the sum
    itself cancels); and the dtypes of out, gx, ggamma and gbeta.
    """
    c, axes = shape[1], (0, 2, 3)
    x = rng.normal(loc=3.0, scale=2.0, size=shape).astype(np.float32)
    gamma = rng.uniform(0.5, 1.5, size=c).astype(np.float32)
    beta = rng.normal(size=c).astype(np.float32)
    rm = rng.normal(loc=3.0, size=c).astype(np.float32)
    rv = rng.uniform(2.0, 6.0, size=c).astype(np.float32)
    g = rng.normal(size=shape).astype(g_dtype)

    x64, g64, gamma64 = (a.astype(np.float64) for a in (x, g, gamma))
    if training:
        mean, var = x64.mean(axis=axes), x64.var(axis=axes)
    else:
        mean, var = rm.astype(np.float64), rv.astype(np.float64)
    invstd = (1.0 / np.sqrt(var + eps))[:, None, None]
    xhat = (x64 - mean[:, None, None]) * invstd
    want_out = gamma64[:, None, None] * xhat + beta[:, None, None]
    gxhat = g64 * gamma64[:, None, None]
    if training:
        m = x.size // c
        want_gx = invstd / m * (m * gxhat - gxhat.sum(axis=axes, keepdims=True)
                                - xhat * (gxhat * xhat).sum(axis=axes, keepdims=True))
        want_rv = 0.9 + 0.1 * var
    else:
        want_gx, want_rv = gxhat * invstd, rv
    want_ggamma = (g64 * xhat).sum(axis=axes)

    xn, gn, bn = parameter(x), parameter(gamma), parameter(beta)
    running_var = rv.copy() if not training else np.ones(c, np.float32)
    running_mean = rm.copy() if not training else np.zeros(c, np.float32)
    out = batch_norm(xn, gn, bn, running_mean, running_var, training=training)
    out_value = out.value.copy()
    (out * g).sum().backward()  # out's upstream gradient is g exactly
    return {
        "out": rel_err(out_value, want_out),
        "running_var": rel_err(running_var, want_rv),
        "gx": rel_err(xn.grad, want_gx),
        "gbeta": rel_err(bn.grad, g64.sum(axis=axes)),
        "ggamma": float((np.abs(gn.grad - want_ggamma)
                         / np.abs(g64 * xhat).sum(axis=axes)).max()),
        "dtypes": tuple(str(a.dtype) for a in (out_value, xn.grad, gn.grad, bn.grad)),
    }


class TestBatchNorm:
    def _params(self, rng, c):
        gamma = rng.uniform(0.5, 1.5, size=c)
        beta = rng.normal(size=c)
        return gamma, beta

    def test_train_gradients(self, rng):
        x = rng.normal(size=(3, 2, 4, 4))
        gamma, beta = self._params(rng, 2)
        # sum(BN(x)^2) is invariant in x by construction (the output is
        # normalized), so read out against a fixed random tensor instead.
        t = rng.normal(size=(3, 2, 4, 4))

        def build(xn, gn, bn):
            rm, rv = np.zeros(2), np.ones(2)
            return (batch_norm(xn, gn, bn, rm, rv, training=True) * t).sum()

        fd_check(build, [x, gamma, beta])

    def test_eval_gradients(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        gamma, beta = self._params(rng, 3)
        rm = rng.normal(size=3)
        rv = rng.uniform(0.5, 2.0, size=3)

        def build(xn, gn, bn):
            return (batch_norm(xn, gn, bn, rm.copy(), rv.copy(),
                               training=False) ** 2).sum()

        fd_check(build, [x, gamma, beta])

    def test_train_output_normalized(self, rng):
        x = parameter(rng.normal(loc=3.0, scale=2.0, size=(4, 2, 8, 8)))
        out = batch_norm(x, parameter(np.ones(2)), parameter(np.zeros(2)),
                         np.zeros(2), np.ones(2), training=True)
        mean = out.value.mean(axis=(0, 2, 3))
        var = out.value.var(axis=(0, 2, 3))
        assert np.abs(mean).max() < 1e-6
        assert np.abs(var - 1).max() < 1e-4

    def test_running_stats_update(self, rng):
        x = parameter(rng.normal(loc=1.0, size=(4, 1, 4, 4)).astype(np.float64))
        rm, rv = np.zeros(1), np.ones(1)
        batch_norm(x, parameter(np.ones(1)), parameter(np.zeros(1)),
                   rm, rv, training=True, momentum=0.9)
        batch_mean = x.value.mean()
        batch_var = x.value.var()
        assert rm[0] == pytest.approx(0.1 * batch_mean)
        assert rv[0] == pytest.approx(0.9 + 0.1 * batch_var)

    def test_eval_uses_running_stats(self, rng):
        x = parameter(rng.normal(size=(1, 1, 2, 2)))
        rm, rv = np.array([2.0]), np.array([4.0])
        out = batch_norm(x, parameter(np.ones(1)), parameter(np.zeros(1)),
                         rm, rv, training=False, eps=0.0)
        assert np.allclose(out.value, (x.value - 2.0) / 2.0)
        assert rm[0] == 2.0 and rv[0] == 4.0  # eval never touches them

    def test_eval_backward_ignores_later_running_stat_updates(self, rng):
        # backward recomputes xhat, so it must not read the running buffers
        # that a train-mode call between forward and backward updates in place
        x0 = rng.normal(size=(2, 2, 3, 3))
        grads = []
        for interleave in (False, True):
            x, gamma = parameter(x0.copy()), parameter(np.array([0.5, 2.0]))
            rm, rv = np.array([0.3, -0.2]), np.array([1.5, 0.7])
            out = batch_norm(x, gamma, parameter(np.zeros(2)), rm, rv, training=False)
            if interleave:
                batch_norm(parameter(x0 + 5.0), parameter(np.ones(2)),
                           parameter(np.zeros(2)), rm, rv, training=True)
            (out * out).sum().backward()
            grads.append((x.grad, gamma.grad))
        assert np.array_equal(grads[0][0], grads[1][0])
        assert np.array_equal(grads[0][1], grads[1][1])

    @pytest.mark.parametrize("training", [True, False])
    def test_f32_output_matches_textbook_formula(self, rng, training):
        """The scale-and-shift forward against gamma*(x - mean)/sqrt(var + eps)
        + beta in f64, on an input whose mean is larger than its spread."""
        x = rng.normal(loc=3.0, scale=2.0, size=(2, 3, 8, 8)).astype(np.float32)
        gamma, beta = (a.astype(np.float32) for a in self._params(rng, 3))
        rm = rng.normal(loc=3.0, size=3).astype(np.float32)
        rv = rng.uniform(2.0, 6.0, size=3).astype(np.float32)
        x64 = x.astype(np.float64)
        mean, var = ((x64.mean(axis=(0, 2, 3)), x64.var(axis=(0, 2, 3))) if training
                     else (rm.astype(np.float64), rv.astype(np.float64)))
        want = (gamma[:, None, None] * (x64 - mean[:, None, None])
                / np.sqrt(var[:, None, None] + 1e-5) + beta[:, None, None])
        out = batch_norm(parameter(x), parameter(gamma), parameter(beta), rm, rv,
                         training=training)
        assert out.dtype == np.float32
        assert rel_err(out.value, want) <= 1e-6

    # Bounds of the three accuracy tests below: twice the largest error the
    # previous kernel (explicit xhat, np.var, product-then-sum reductions)
    # made over seeds 0-49 of bn_errors' recipe (seeds 0-5 at 256 x 256).
    @pytest.mark.parametrize("training,bounds", [
        (True, {"gx": 4e-7, "gbeta": 1e-6, "ggamma": 1.1e-7}),
        (False, {"gx": 2.7e-7, "gbeta": 1e-6, "ggamma": 7.4e-8}),
    ], ids=["train", "eval"])
    def test_f32_gradients_match_textbook_formula(self, rng, training, bounds):
        """gx, ggamma and gbeta against the f64 formula of Ioffe & Szegedy
        2015, on an input whose mean is larger than its spread."""
        err = bn_errors(rng, (2, 3, 8, 8), training)
        for key, bound in bounds.items():
            assert err[key] <= bound, (key, err[key])

    @pytest.mark.parametrize("training,bounds", [
        (True, {"out": 2.7e-7, "running_var": 1.1e-7, "gx": 3.6e-7, "ggamma": 2.5e-9}),
        (False, {"out": 2.4e-7, "running_var": 0.0, "gx": 2.5e-7, "ggamma": 1.4e-9}),
    ], ids=["train", "eval"])
    def test_large_plane_accuracy(self, rng, training, bounds):
        """A 256 x 256 plane puts 262,144 values per channel into every
        reduction; eval mode leaves running_var exactly as it was."""
        err = bn_errors(rng, (4, 4, 256, 256), training)
        for key, bound in bounds.items():
            assert err[key] <= bound, (key, err[key])

    @pytest.mark.parametrize("training,bound", [(True, 2.2e-7), (False, 1.6e-7)],
                             ids=["train", "eval"])
    def test_f64_upstream_gradient_keeps_dtypes(self, rng, training, bound):
        """An f64 upstream gradient on an f32 input gives f64 gradients for
        x, gamma and beta, and the output stays f32."""
        err = bn_errors(rng, (2, 3, 8, 8), training, g_dtype=np.float64)
        assert err["dtypes"] == ("float32", "float64", "float64", "float64")
        assert err["gx"] <= bound

    def test_population_of_one_rejected(self):
        x = parameter(np.ones((1, 2, 1, 1)))
        with pytest.raises(ValueError, match="population"):
            batch_norm(x, parameter(np.ones(2)), parameter(np.zeros(2)),
                       np.zeros(2), np.ones(2), training=True)


class TestBatchNormRelu:
    """``batch_norm(..., relu=True)`` is ``relu(batch_norm(...))`` bit for bit:
    output, running buffers and the gradients of x, gamma and beta."""

    @staticmethod
    def _run(x, g, training, fused):
        dtype = x.dtype
        xn = parameter(x.copy())
        gamma = parameter(np.array([1.3, 0.8, -0.6], dtype=dtype))
        beta = parameter(np.array([0.0, 0.2, -0.1], dtype=dtype))
        rm = np.array([0.0, 0.3, -0.2], dtype=dtype)
        rv = np.array([1.5, 0.7, 2.0], dtype=dtype)
        if fused:
            out = batch_norm(xn, gamma, beta, rm, rv, training=training, relu=True)
        else:
            out = relu(batch_norm(xn, gamma, beta, rm, rv, training=training))
        (out * g).sum().backward()  # out's upstream gradient is g exactly
        return [out.value, rm, rv, xn.grad, gamma.grad, beta.grad]

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_relu_of_batch_norm(self, rng, training, dtype):
        # channel 0 has mean 0 exactly, so its zeros normalise to exactly 0
        # (beta is 0 there); channel 1 holds a NaN
        x = rng.normal(size=(2, 3, 4, 4))
        x[:, 0] = rng.permutation(np.tile([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0],
                                          4)).reshape(2, 4, 4)
        x[1, 1, 2, 3] = np.nan
        x = x.astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        fused = self._run(x, g, training, fused=True)
        chained = self._run(x, g, training, fused=False)
        assert (fused[0][:, 0][x[:, 0] == 0] == 0).sum() == 16
        assert np.isnan(fused[0][1, 1, 2, 3]) and np.isfinite(fused[3][:, 0]).all()
        for a, b in zip(fused, chained):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes()

    def test_graph_holds_one_node(self, rng):
        x = parameter(rng.normal(size=(2, 2, 3, 3)))
        out = batch_norm(x, parameter(np.ones(2)), parameter(np.zeros(2)),
                         np.zeros(2), np.ones(2), training=True, relu=True)
        assert out._record.parents[0] is x._record
        assert (out.value >= 0).all()


class TestConv2dBias:
    """A biased conv2d returns a C-contiguous output with the bytes of the
    unbiased output copied and then biased in place."""

    @pytest.mark.parametrize("k,stride,dilation,shape", [
        (1, 1, 1, (2, 3, 9, 7)), (1, 2, 1, (2, 3, 9, 7)), (3, 1, 1, (2, 3, 8, 8)),
        (3, 2, 1, (1, 4, 7, 9)), (3, 1, 3, (1, 4, 8, 8)), (3, 1, 15, (1, 4, 8, 8)),
        (3, 1, 1, (1, 32, 64, 64))])  # the last runs as two pieces
    @pytest.mark.parametrize("dtype,bias_dtype", [
        (np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)])
    def test_bytes_of_copy_then_add(self, rng, k, stride, dilation, shape, dtype, bias_dtype):
        x = rng.normal(size=shape).astype(dtype)
        w = rng.normal(size=(5, shape[1], k, k)).astype(dtype)
        b = rng.normal(size=5).astype(bias_dtype)
        out = conv2d(x, w, b, stride=stride, dilation=dilation).value
        ref = np.ascontiguousarray(conv2d(x, w, stride=stride, dilation=dilation).value)
        ref += b[:, None, None]
        assert out.flags.c_contiguous
        assert out.dtype == ref.dtype == dtype
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("bias", [False, True])
    def test_one_by_one_output_is_its_accumulator(self, rng, bias):
        # a stride-1 1x1 output needs no copy out of the flat rows, so the
        # bias goes into the one output-sized array the call makes
        x = rng.normal(size=(1, 8, 64, 64)).astype(np.float32)
        w = rng.normal(size=(8, 8, 1, 1)).astype(np.float32)
        b = rng.normal(size=8).astype(np.float32) if bias else None
        tracemalloc.start()
        try:
            out = conv2d(x, w, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * out.value.nbytes, peak / out.value.nbytes


class TestReluInplace:
    """``relu(x, inplace=True)`` on a conv2d output is ``relu(x)`` bit for
    bit, in the conv output's own array."""

    @staticmethod
    def _run(x, w, b, g, inplace):
        xn, wn, bn = parameter(x.copy()), parameter(w.copy()), parameter(b.copy())
        out = relu(conv2d(xn, wn, bn), inplace=inplace)
        (out * g).sum().backward()
        return [out.value, xn.grad, wn.grad, bn.grad]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_relu(self, rng, dtype):
        x = rng.normal(size=(2, 3, 6, 6)).astype(dtype)
        w = rng.normal(size=(4, 3, 3, 3)).astype(dtype)
        b = np.array([0.0, 0.5, -0.5, 0.0], dtype)
        w[0] = 0  # channel 0 of image 0 is exactly 0; image 1 holds a NaN
        x[1, 2, 3, 3] = np.nan
        g = rng.normal(size=(2, 4, 6, 6)).astype(dtype)
        fused = self._run(x, w, b, g, inplace=True)
        chained = self._run(x, w, b, g, inplace=False)
        assert (fused[0][0, 0] == 0).all() and np.isnan(fused[0][1]).any()
        for a, c in zip(fused, chained):
            assert a.dtype == c.dtype == dtype
            assert a.tobytes() == c.tobytes()

    def test_rectifies_the_input_array(self, rng):
        h = conv2d(rng.normal(size=(1, 2, 4, 4)), rng.normal(size=(3, 2, 3, 3)))
        out = relu(h, inplace=True)
        assert out.value is h.value and (out.value >= 0).all()

    @pytest.mark.parametrize("dilation", [1, 2])
    def test_gradients(self, rng, dilation):
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3)) * 0.5
        b = rng.normal(size=(4,))
        fd_check(lambda xn, wn, bn: (relu(conv2d(xn, wn, bn, dilation=dilation),
                                          inplace=True) ** 2).sum(), [x, w, b])

    def test_refuses_an_input_a_recorded_backward_reads(self, rng):
        s = sigmoid(parameter(rng.normal(size=(1, 2, 3, 3))))  # reads its output
        h = conv2d(parameter(rng.normal(size=(1, 2, 3, 3))), rng.normal(size=(2, 2, 1, 1)))
        _ = conv2d(h, rng.normal(size=(2, 2, 1, 1)))  # reads h
        for x in (s, h):
            before = x.value.copy()
            with pytest.raises(ValueError, match="reads"):
                relu(x, inplace=True)
            assert np.array_equal(x.value, before)


class TestFoldBatchNorm:
    """fold_batch_norm gives weights and a bias with which one conv is the
    eval-mode batch norm of the unfolded conv."""

    @staticmethod
    def _bn_state(rng, c, dtype=np.float64):
        return (rng.normal(size=c).astype(dtype), rng.normal(size=c).astype(dtype),
                rng.normal(0, 0.5, c).astype(dtype), rng.uniform(0.5, 2.0, c).astype(dtype))

    @pytest.mark.parametrize("rectify", [False, True], ids=["plain", "relu"])
    def test_gradients(self, rng, rectify):
        # criterion-1 style: f64 central differences, the module's 1e-4 bound
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3)) * 0.5
        gamma, beta, rm, rv = self._bn_state(rng, 4)

        def build(wn, gn, bn):
            out = conv2d(x, *fold_batch_norm(wn, gn, bn, rm, rv, np.float64))
            return ((relu(out, inplace=True) if rectify else out) ** 2).sum()

        fd_check(build, [w, gamma, beta])

    def test_leaves_buffers_and_parameters_alone(self, rng):
        w = parameter(rng.normal(size=(3, 2, 1, 1)))
        gamma, beta, rm, rv = self._bn_state(rng, 3)
        state = [a.copy() for a in (w.value, gamma, beta, rm, rv)]
        wf, bf = fold_batch_norm(w, parameter(gamma), parameter(beta), rm, rv, np.float64)
        (wf.sum() + bf.sum()).backward()
        rm += 1.0  # a later buffer update does not reach the fold
        assert not np.shares_memory(wf.value, w.value)
        assert all(np.array_equal(a, b) for a, b in zip(state[:3], (w.value, gamma, beta)))
        assert np.array_equal(rv, state[4])

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("k,dilation", [(1, 1), (3, 1), (3, 3)])
    def test_matches_conv_then_eval_batch_norm(self, rng, dtype, tol, k, dilation):
        x = rng.normal(size=(2, 3, 8, 8)).astype(dtype)
        w = (rng.normal(size=(4, 3, k, k)) * 0.5).astype(dtype)
        gamma, beta, rm, rv = self._bn_state(rng, 4, dtype)
        folded = conv2d(x, *fold_batch_norm(w, gamma, beta, rm, rv, dtype),
                        dilation=dilation).value
        ref = batch_norm(conv2d(x, w, dilation=dilation), gamma, beta, rm, rv,
                         training=False).value
        assert folded.dtype == ref.dtype == dtype
        np.testing.assert_allclose(folded, ref, rtol=tol, atol=tol)


class TestMaxPoolGrid:
    def test_output_is_broadcast_max(self):
        x = parameter(np.arange(16.0).reshape(1, 1, 4, 4))
        out = max_pool_grid(x, cells=2)
        assert out.shape == (1, 1, 4, 4)
        assert (out.value[0, 0, :2, :2] == 5.0).all()
        assert (out.value[0, 0, 2:, 2:] == 15.0).all()

    def test_gradients(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        fd_check(lambda xn: (max_pool_grid(xn, cells=2) ** 2).sum(), [x])

    def test_tie_break_first_index(self):
        x = parameter(np.zeros((1, 1, 2, 2)))
        out = max_pool_grid(x, cells=1)
        out.sum().backward()
        # All four entries tie; the full cell gradient lands on the first.
        assert x.grad[0, 0, 0, 0] == 4.0
        assert x.grad.sum() == 4.0

    def test_divisibility_error(self):
        x = parameter(np.zeros((1, 1, 5, 5)))
        with pytest.raises(ShapeError, match="divi"):
            max_pool_grid(x, cells=2)


class TestUpsampleAndFriends:
    def test_nearest_upsample_values(self):
        x = parameter(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = nearest_upsample(x, 2)
        assert out.shape == (1, 1, 4, 4)
        assert (out.value[0, 0, :2, :2] == 1.0).all()
        assert (out.value[0, 0, 2:, 2:] == 4.0).all()

    def test_nearest_upsample_grad_sums(self, rng):
        x = rng.normal(size=(1, 2, 3, 3))
        fd_check(lambda xn: (nearest_upsample(xn, 2) ** 2).sum(), [x])
        xn = parameter(x)
        nearest_upsample(xn, 2).sum().backward()
        assert (xn.grad == 4.0).all()

    def test_relu_gradients(self, rng):
        x = rng.normal(size=(3, 4)) + 0.05  # keep away from the kink
        fd_check(lambda xn: (relu(xn) ** 2).sum(), [x])
        assert (relu(parameter(np.array([-1.0, 2.0]))).value == [0.0, 2.0]).all()

    def test_sigmoid_gradients(self, rng):
        x = rng.normal(size=(5,))
        fd_check(lambda xn: (sigmoid(xn) ** 2).sum(), [x])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_expit_and_stays_in_range(self, dtype):
        from scipy.special import expit
        x = np.concatenate([[-100.0, -30.0, 30.0, 100.0],
                            np.linspace(-20.0, 20.0, 401)]).astype(dtype)
        with np.errstate(all="raise"):
            out = sigmoid(parameter(x)).value
        assert out.dtype == dtype
        assert np.isfinite(out).all() and out.min() >= 0.0 and out.max() <= 1.0
        assert np.abs(out - expit(x)).max() <= 2 * np.finfo(dtype).eps
        assert out[0] == 0.0 and out[3] == 1.0

    def test_softmax_rows_sum_to_one(self, rng):
        x = parameter(rng.normal(size=(2, 5, 3, 3)) * 10.0)
        out = softmax_channel(x)
        assert np.abs(out.value.sum(axis=1) - 1.0).max() < 1e-12

    def test_softmax_gradients(self, rng):
        x = rng.normal(size=(1, 4, 2, 2))
        t = rng.random((1, 4, 2, 2))
        fd_check(lambda xn: (softmax_channel(xn) * t).sum(), [x])

    def test_concat_and_slice_gradients(self, rng):
        a = rng.normal(size=(1, 2, 3, 3))
        b = rng.normal(size=(1, 3, 3, 3))
        fd_check(lambda an, bn: (concat_channels([an, bn]) ** 2).sum(), [a, b])
        fd_check(lambda an: (channel_slice(an, 0, 1) ** 2).sum(), [a])

    def test_concat_shape_mismatch(self, rng):
        a = parameter(rng.normal(size=(1, 2, 3, 3)))
        b = parameter(rng.normal(size=(1, 2, 4, 3)))
        with pytest.raises(ShapeError):
            concat_channels([a, b])


def _extra_read_cases(rng):
    """fold_batch_norm and relu(inplace=True), which criterion 1 leaves out,
    and the ops that read their own output with a consumer that reads
    nothing (criterion 1's readouts read every op output)."""
    x, w = rng.normal(size=(2, 3, 5, 5)), rng.normal(size=(4, 3, 3, 3))
    gamma, beta = rng.uniform(0.5, 1.5, 4), rng.normal(size=4)
    rm, rv, t = rng.normal(size=4), rng.uniform(0.5, 1.5, 4), rng.normal(size=(2, 4, 5, 5))
    t2 = rng.normal(size=(2, 3, 10, 10))

    def folded(n):
        wf, bf = fold_batch_norm(n["w"], n["gamma"], n["beta"], rm, rv, np.float64)
        return (relu(conv2d(n["x"], wf, bf), inplace=True) * t).sum()

    def upsampled(op):
        return lambda n: (nearest_upsample(op(n["x"]), 2) * t2).sum()

    def bn_relu(x):
        return batch_norm(x, gamma[:3], beta[:3], np.zeros(3), np.ones(3),
                          training=True, relu=True)

    return [("fold_batch_norm_relu_inplace",
             {"x": x, "w": w, "gamma": gamma, "beta": beta}, folded),
            *((f"{op.__name__}_then_upsample", {"x": x}, upsampled(op))
              for op in (relu, sigmoid, softmax_channel, bn_relu))]


_READ_CASES = (_op_cases(np.random.default_rng(0)) + _loss_cases(np.random.default_rng(1))
               + _extra_read_cases(np.random.default_rng(2)))


class TestDeclaredReads:
    """No backward reads a value that no op declared it reads: overwriting
    every such value with NaN in place (which a closure holding its array
    would see) and then swapping it for a zero-byte placeholder, leaves and
    constants included, leaves every gradient byte-identical."""

    @pytest.mark.parametrize("label,params,forward", _READ_CASES,
                             ids=[case[0] for case in _READ_CASES])
    def test_undeclared_values_are_not_read(self, monkeypatch, label, params, forward):
        made = {}  # every op result and every parent of one, by id

        def recording(value, parents, backward, **declared):
            parents = tuple(parents)
            node = make_node(value, parents, backward, **declared)
            made.update((id(n), n) for n in (node, *parents))
            return node

        for module in (autodiff, nnops, losses):
            monkeypatch.setattr(module, "make_node", recording)

        def grads(swap):
            made.clear()
            nodes = {k: parameter(np.array(v)) for k, v in params.items()}
            loss = forward(nodes)
            unread = [node for node in made.values() if not node._read] if swap else []
            for node in unread:
                if node.value.flags.writeable:
                    node.value[...] = np.nan
                node.value = np.broadcast_to(np.zeros((), node.dtype), node.shape)
            loss.backward()
            return [nodes[k].grad.tobytes() for k in params], len(unread)

        plain = grads(False)[0]
        swapped, count = grads(True)
        assert count > 0
        assert swapped == plain
