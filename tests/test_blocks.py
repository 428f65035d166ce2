"""Residual atrous blocks, pyramid pooling, and the combine/upsample glue."""

import tracemalloc

import numpy as np
import pytest

from atrousseg import nnops
from atrousseg.autodiff import Node, ShapeError, no_grad, parameter
from atrousseg.blocks import (BlockConfig, Combine, Conv2DN, PSPPooling,
                              ResBlockA, UpSampleBlock, _AtrousBranch, clamp_scales)
from conftest import numeric_gradient, rel_err


def make_input(rng, shape):
    return Node(rng.normal(size=shape).astype(np.float64))


def set_bn_state(module, rng):
    """Give every batch norm under module non-trivial parameters and buffers."""
    for name, p in module.named_parameters():
        if name.endswith(("gamma", "beta")):
            p.value[...] = rng.normal(size=p.shape)
    for name, b in module.named_buffers():
        b[...] = rng.uniform(0.5, 2.0, b.shape) if name.endswith("var") else rng.normal(size=b.shape)


def unfolded(conv, bn, x, relu):
    """The eval forward of conv -> bn as two ops."""
    h = nnops.conv2d(x, conv.weight, stride=conv.stride, dilation=conv.dilation)
    return nnops.batch_norm(h, bn.gamma, bn.beta, bn.running_mean, bn.running_var,
                            training=False, relu=relu)


class TestBlockConfig:
    def test_valid(self):
        cfg = BlockConfig(filters=8, dilations=(1, 3, 15))
        assert cfg.kernel == 3

    @pytest.mark.parametrize("dilations", [(), (2, 3), (1, 3, 3), (1, 5, 3)])
    def test_bad_dilations(self, dilations):
        with pytest.raises(ValueError):
            BlockConfig(filters=8, dilations=dilations)

    def test_bad_filters(self):
        with pytest.raises(ValueError):
            BlockConfig(filters=0)


class TestConv2DN:
    def test_shapes_and_normalization(self, rng):
        m = Conv2DN(3, 6, kernel=3, rng=rng, dtype=np.float64)
        m.train(True)
        out = m(make_input(rng, (4, 3, 8, 8)))
        assert out.shape == (4, 6, 8, 8)
        assert np.abs(out.value.mean(axis=(0, 2, 3))).max() < 1e-6

    def test_conv_has_no_bias(self, rng):
        m = Conv2DN(3, 6, rng=rng)
        names = [n for n, _ in m.named_parameters()]
        assert "conv.bias" not in names
        assert "bn.gamma" in names and "bn.beta" in names


class TestFoldedEval:
    """In eval mode a conv and the batch norm after it run as one conv."""

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("kernel", [1, 3])
    def test_conv2dn_matches_unfolded(self, rng, kernel, relu):
        m = Conv2DN(3, 6, kernel=kernel, rng=rng)
        set_bn_state(m, rng)
        m.eval()
        x = Node(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        out = m(x, relu=relu).value
        ref = unfolded(m.conv, m.bn, x, relu).value
        assert out.dtype == ref.dtype == np.float32
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("dilation", [1, 3])
    def test_atrous_branch_matches_unfolded(self, rng, dilation):
        branch = _AtrousBranch(4, 3, dilation, rng, np.float32)
        set_bn_state(branch, rng)
        branch.eval()
        x = Node(rng.normal(size=(2, 4, 8, 8)).astype(np.float32))
        out = branch(x).value
        h = unfolded(branch.conv1, branch.bn2, branch.bn1(x, relu=True), relu=True)
        ref = branch.conv2(h).value
        assert out.dtype == ref.dtype == np.float32
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5)

    def test_train_mode_runs_the_batch_norm(self, rng):
        m = Conv2DN(3, 4, kernel=3, rng=rng, dtype=np.float64)
        x = parameter(rng.normal(size=(2, 3, 5, 5)))
        out = m(x, relu=True)
        assert out._backward.__qualname__.startswith("batch_norm.")

    def test_recorded_gradients_flow(self, rng):
        m = Conv2DN(2, 3, kernel=3, rng=rng, dtype=np.float64)
        set_bn_state(m, rng)
        m.eval()
        x0 = rng.normal(size=(1, 2, 5, 5))
        x = parameter(x0.copy())
        (m(x, relu=True) ** 2).sum().backward()
        num = numeric_gradient(
            lambda v: (m(parameter(v), relu=True) ** 2).sum().item(), x0.copy())
        assert rel_err(x.grad, num) < 1e-6
        assert all(np.any(p.grad) for p in m.parameters())


class TestResBlockA:
    def test_identity_plus_branches(self, rng):
        cfg = BlockConfig(filters=4, dilations=(1, 3))
        block = ResBlockA(cfg, rng=rng, dtype=np.float64)
        block.eval()
        x = make_input(rng, (2, 4, 8, 8))
        out = block(x)
        assert out.shape == x.shape
        # identity is part of the sum: zeroing every conv weight leaves x
        for name, p in block.named_parameters():
            if "conv" in name and name.endswith("weight"):
                p.value[...] = 0.0
        assert np.allclose(block(x).value, x.value, atol=1e-5)

    def test_branch_count_tracks_dilations(self, rng):
        cfg = BlockConfig(filters=4, dilations=(1, 3, 15, 31))
        block = ResBlockA(cfg, rng=rng)
        assert len(block.branches) == 4

    def test_channel_mismatch_guidance(self, rng):
        cfg = BlockConfig(filters=8, dilations=(1,))
        block = ResBlockA(cfg, rng=rng)
        with pytest.raises(ShapeError, match="1x1"):
            block(make_input(rng, (1, 4, 8, 8)))

    def test_gradients_flow(self, rng):
        cfg = BlockConfig(filters=2, dilations=(1, 2))
        block = ResBlockA(cfg, rng=rng, dtype=np.float64)
        block.eval()
        x0 = rng.normal(size=(1, 2, 6, 6))
        x = parameter(x0.copy())
        (block(x) ** 2).sum().backward()
        num = numeric_gradient(
            lambda v: (block(parameter(v)) ** 2).sum().item(), x0.copy())
        assert rel_err(x.grad, num) < 1e-6

    def test_recorded_and_unrecorded_sums_agree(self, rng):
        block = ResBlockA(BlockConfig(filters=4, dilations=(1, 3, 15)), rng=rng)
        block.eval()
        x = rng.normal(size=(2, 4, 8, 8)).astype(np.float32)
        recorded = block(parameter(x))
        with no_grad():
            unrecorded = block(Node(x))
        assert recorded.value.tobytes() == unrecorded.value.tobytes()

    def test_unrecorded_forward_holds_one_branch_output_at_a_time(self, rng):
        # four branches on one 128 KiB plane set: the peak reads 7.5 plane
        # sets when each branch output is added as it comes, 9.5 when all
        # four wait for one sum
        block = ResBlockA(BlockConfig(filters=8, dilations=(1, 3, 15, 31)), rng=rng)
        block.eval()
        x = Node(rng.normal(size=(1, 8, 64, 64)).astype(np.float32))
        with no_grad():
            block(x)
            tracemalloc.start()
            try:
                block(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 8.5 * x.value.nbytes, peak / x.value.nbytes


class TestPSPPooling:
    def test_channel_partition_near_equal(self, rng):
        psp = PSPPooling(6, scales=(1, 2, 4), rng=rng, dtype=np.float64)
        psp.eval()
        out = psp(make_input(rng, (1, 6, 8, 8)))
        assert out.shape == (1, 6, 8, 8)

    def test_rejects_too_few_channels(self, rng):
        with pytest.raises(ValueError, match="channels"):
            PSPPooling(3, scales=(1, 2, 4, 8), rng=rng)

    def test_clamps_scales_to_the_plane(self, rng):
        psp = PSPPooling(8, scales=(1, 2, 4, 8), rng=rng, dtype=np.float64)
        psp.eval()
        # 4x4 map cannot host an 8-cell grid; the 8 scale is dropped.
        out = psp(make_input(rng, (1, 8, 4, 4)))
        assert out.shape == (1, 8, 4, 4)

    def test_clamp_scales_helper(self):
        assert clamp_scales((1, 2, 4, 8), 4, 4) == (1, 2, 4)
        assert clamp_scales((1, 2, 4), 64, 64) == (1, 2, 4)
        assert clamp_scales((2, 4), 3, 3) == (1,)

    def test_gradients_flow(self, rng):
        psp = PSPPooling(4, scales=(1, 2), rng=rng, dtype=np.float64)
        psp.eval()
        x0 = rng.normal(size=(1, 4, 4, 4))
        x = parameter(x0.copy())
        (psp(x) ** 2).sum().backward()
        num = numeric_gradient(
            lambda v: (psp(parameter(v)) ** 2).sum().item(), x0.copy())
        assert rel_err(x.grad, num) < 1e-6


class TestCombineUpsample:
    def test_combine_fuses_to_filters(self, rng):
        comb = Combine(4, 6, filters=5, rng=rng, dtype=np.float64)
        comb.eval()
        out = comb(make_input(rng, (2, 4, 8, 8)), make_input(rng, (2, 6, 8, 8)))
        assert out.shape == (2, 5, 8, 8)

    def test_combine_spatial_mismatch(self, rng):
        comb = Combine(4, 4, filters=4, rng=rng)
        with pytest.raises(ShapeError, match="[Uu]psample"):
            comb(make_input(rng, (1, 4, 4, 4)), make_input(rng, (1, 4, 8, 8)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cin,cout,h", [(8, 4, 16), (16, 8, 64), (64, 32, 64), (7, 3, 5)])
    def test_eval_upsample_block_gives_the_bytes_of_upsample_first(self, rng, dtype, cin,
                                                                   cout, h):
        # (64, 32, 64): both conv orders run their GEMM as two pieces
        up = UpSampleBlock(cin, cout, rng=rng, dtype=dtype)
        set_bn_state(up, rng)
        up.eval()
        x = Node(rng.normal(size=(1, cin, h, h)).astype(dtype))
        out = up(x).value
        ref = up.conv(nnops.nearest_upsample(x, 2)).value
        assert out.shape == (1, cout, 2 * h, 2 * h) and out.dtype == dtype
        assert out.tobytes() == ref.tobytes()

    def test_upsample_block_doubles(self, rng):
        up = UpSampleBlock(6, 3, rng=rng, dtype=np.float64)
        up.eval()
        out = up(make_input(rng, (1, 6, 4, 4)))
        assert out.shape == (1, 3, 8, 8)
