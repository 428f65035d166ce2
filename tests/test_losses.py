"""Similarity-loss family: frozen-value oracles, gradient agreement with
the analytic field, class weighting, and the multitask objective."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atrousseg.autodiff import Node, ShapeError, as_node, parameter
from atrousseg.losses import (EPS, LOSS_IDS, LossField, field_sample,
                              field_to_csv, loss_fn, multitask_loss,
                              volume_weights)
from conftest import numeric_gradient, rel_err

P2 = np.array([0.8, 0.4])
L2 = np.array([1.0, 0.0])


def composite_similarity(loss_id, p, l, weights=None, eps=EPS):
    """Test-only reference: the similarity as a graph of autodiff arithmetic,
    with the complement evaluated on the tensors 1 - p and 1 - l."""
    base = loss_id.removesuffix("-complement")
    w = None if weights is None else Node(np.asarray(weights, dtype=np.float64))

    def pooled(*terms):
        axes = None if w is None else (0,) + tuple(range(2, terms[0].ndim))
        total = sum((t.sum(axis=axes) for t in terms[1:]), terms[0].sum(axis=axes))
        return total if w is None else (w * total).sum()

    def ratio(p, l):
        inter = pooled(p * l)
        if base == "d1":
            num, den = 2.0 * inter, pooled(p, l)
        elif base == "d2":
            num, den = 2.0 * inter, pooled(p * p, l * l)
        else:
            num, den = inter, pooled(p * p, l * l) - inter
        return (num + eps) / (den + eps)

    p, l = as_node(p), as_node(l)
    if base == loss_id:
        return ratio(p, l)
    return (ratio(p, l) + ratio(1.0 - p, 1.0 - l)) * 0.5


class TestFrozenValues:
    """Two-pixel oracle at p=(0.8, 0.4), l=(1, 0), eps=0."""

    def test_d1(self):
        assert loss_fn("d1")(P2, L2, eps=0.0).item() == pytest.approx(1.6 / 2.2, abs=1e-15)

    def test_d2(self):
        assert loss_fn("d2")(P2, L2, eps=0.0).item() == pytest.approx(1.6 / 1.8, abs=1e-15)

    def test_tanimoto(self):
        assert loss_fn("tanimoto")(P2, L2, eps=0.0).item() == pytest.approx(0.8, abs=1e-15)

    def test_complement_midpoint(self):
        # T~ at p=(0.5,0.5) averages a symmetric pair to exactly 1/2.
        val = loss_fn("tanimoto-complement")(np.array([0.5, 0.5]), L2, eps=0.0)
        assert val.item() == pytest.approx(0.5, abs=1e-15)

    def test_perfect_prediction_scores_one(self):
        for lid in LOSS_IDS:
            assert loss_fn(lid)(L2, L2).item() == pytest.approx(1.0, abs=1e-9)

    def test_empty_empty_scores_one(self):
        z = np.zeros(4)
        for lid in ("d1", "d2", "tanimoto"):
            assert loss_fn(lid)(z, z).item() == 1.0


class TestRegistry:
    def test_all_ids_resolve(self):
        for lid in LOSS_IDS:
            assert callable(loss_fn(lid))

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown loss"):
            loss_fn("jaccard")

    def test_complement_wraps_base(self):
        fn, base = loss_fn("tanimoto-complement"), loss_fn("tanimoto")
        p, l = np.array([0.7, 0.1]), np.array([1.0, 0.0])
        direct = 0.5 * (base(p, l).item() + base(1 - p, 1 - l).item())
        assert fn(p, l).item() == pytest.approx(direct, abs=1e-15)

    def test_complement_takes_only_the_three_bases(self):
        with pytest.raises(ValueError, match="unknown loss id"):
            loss_fn("jaccard-complement")


class TestWeighted:
    def test_weight_length_validated(self):
        p = np.random.default_rng(0).random((2, 3, 4, 4))
        with pytest.raises(ValueError, match="length"):
            loss_fn("tanimoto")(p, p, weights=np.ones(2))

    def test_uniform_weights_match_flat(self, rng):
        p = rng.random((2, 3, 4, 4))
        l = (p > 0.5).astype(float)
        flat = loss_fn("tanimoto")(p, l).item()
        weighted = loss_fn("tanimoto")(p, l, weights=np.ones(3)).item()
        assert flat == pytest.approx(weighted, rel=1e-12)

    def test_zero_weight_removes_class(self, rng):
        p = rng.random((1, 2, 4, 4))
        l = np.zeros_like(p)
        l[:, 0] = np.round(p[:, 0])
        l[:, 1] = rng.integers(0, 2, (1, 4, 4))
        w = np.array([1.0, 0.0])
        only0 = loss_fn("tanimoto")(p[:, :1], l[:, :1]).item()
        assert loss_fn("tanimoto")(p, l, weights=w).item() == pytest.approx(only0, rel=1e-9)

    def test_volume_weights_inverse_square(self):
        l = np.zeros((1, 3, 2, 2))
        l[0, 0, :, :] = 1.0          # 4 pixels
        l[0, 1, 0, 0] = 1.0          # 1 pixel
        w = volume_weights(l)
        assert w[0] == pytest.approx(1 / 16)
        assert w[1] == pytest.approx(1.0)
        assert w[2] == 0.0           # absent class

    def test_weights_need_class_axis(self):
        with pytest.raises(ValueError, match="class axis"):
            loss_fn("d1")(P2, L2, weights=np.ones(2))

    def test_volume_weights_need_class_axis(self):
        with pytest.raises(ValueError):
            volume_weights(np.ones(5))


class TestShapes:
    """A target of another shape is an error, not a broadcast."""

    def test_unweighted(self):
        p = np.full((2, 3, 4, 4), 0.5)
        with pytest.raises(ShapeError, match=r"\(2, 3, 4, 4\).*\(3, 4, 4\)"):
            loss_fn("tanimoto")(p, np.ones((3, 4, 4)))

    def test_weighted(self):
        p = np.full((2, 3, 4, 4), 0.5)
        with pytest.raises(ShapeError, match=r"\(2, 3, 4, 4\).*\(1, 3, 4, 4\)"):
            loss_fn("d1")(p, np.ones((1, 3, 4, 4)), weights=np.ones(3))


class TestClosedForm:
    """The closed-form op against the composite reference graph."""

    @pytest.mark.parametrize("lid", LOSS_IDS)
    @pytest.mark.parametrize("shape, weighted", [((7,), False), ((2, 3, 4, 4), False),
                                                 ((2, 3, 4, 4), True)])
    def test_f64_matches_composite(self, rng, lid, shape, weighted):
        p0 = rng.uniform(0.05, 0.95, shape)
        l = np.where(rng.random(shape) < 0.5, rng.random(shape), rng.random(shape) > 0.5)
        weights = rng.uniform(0.5, 2.0, 3) if weighted else None
        p, ref = parameter(p0), parameter(p0)
        value = loss_fn(lid)(p, l, weights=weights)
        want = composite_similarity(lid, ref, l, weights=weights)
        value.backward()
        want.backward()
        assert abs(value.item() - want.item()) <= 1e-12 * abs(want.item())
        assert rel_err(p.grad, ref.grad) <= 1e-10

    @pytest.mark.parametrize("shape", [(4, 4, 64, 64), (1, 6, 256, 256)])
    def test_f32_matches_f64_composite(self, shape):
        rng = np.random.default_rng(5)
        n, k = shape[:2]
        p32 = rng.random(shape, dtype=np.float32)
        l = np.eye(k, dtype=np.float32)[rng.integers(0, k, (n,) + shape[2:])]
        l = np.ascontiguousarray(l.transpose(0, 3, 1, 2))
        for lid in LOSS_IDS:
            for weights in (None, volume_weights(l)):
                p, ref = parameter(p32), parameter(p32.astype(np.float64))
                value = loss_fn(lid)(p, l, weights=weights)
                want = composite_similarity(lid, ref, l.astype(np.float64), weights=weights)
                value.backward()
                want.backward()
                assert value.dtype == np.float64 and p.grad.dtype == np.float32
                assert abs(value.item() - want.item()) <= 1e-12, lid
                tol = np.finfo(np.float32).eps * np.abs(ref.grad).max()
                assert np.abs(p.grad - ref.grad).max() <= tol, (lid, weights is None)


class TestGradients:
    @given(st.sampled_from(LOSS_IDS),
           st.floats(0.02, 0.98), st.floats(0.02, 0.98))
    @settings(max_examples=60, deadline=None)
    def test_autodiff_matches_field(self, lid, px, py):
        p = parameter(np.array([px, py]))
        loss_fn(lid)(p, L2).backward()
        field = field_sample(lid, l=(1.0, 0.0), grid_n=2)  # projection off interior
        from atrousseg.losses import _value_grad
        _, gx, gy = _value_grad(lid, np.array(px), np.array(py), 1.0, 0.0, EPS)
        assert abs(p.grad[0] - gx) < 1e-8
        assert abs(p.grad[1] - gy) < 1e-8
        assert isinstance(field, LossField)

    def test_fd_check_all_losses(self, rng):
        p0 = rng.uniform(0.1, 0.9, size=(2, 3, 2, 2))
        l = (rng.random((2, 3, 2, 2)) > 0.5).astype(float)
        w = volume_weights(l)
        for lid in LOSS_IDS:
            for weights in (None, w):
                p = parameter(p0.copy())
                loss_fn(lid)(p, l, weights=weights).backward()
                num = numeric_gradient(
                    lambda v: loss_fn(lid)(parameter(v), l, weights=weights).item(),
                    p0.copy())
                assert rel_err(p.grad, num) < 1e-7, (lid, weights is None)


class TestField:
    def test_grid_shape_and_csv(self, tmp_path):
        field = field_sample("tanimoto", grid_n=11)
        assert field.value.shape == (11, 11)
        out = tmp_path / "field.csv"
        field_to_csv(field, out)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["px", "py", "value", "gx", "gy", "laplacian"]
        assert len(rows) == 1 + 11 * 11

    def test_gradient_vanishes_at_one_hot_optimum(self):
        # p = l = (1, 0) sits on the corner; the feasible-direction gradient
        # is zero there for the whole family.
        for lid in LOSS_IDS:
            field = field_sample(lid, l=(1.0, 0.0), grid_n=3)
            i, j = 2, 0  # px = 1, py = 0
            assert field.px[i, j] == 1.0 and field.py[i, j] == 0.0
            assert field.gx[i, j] == 0.0, lid
            assert field.gy[i, j] == 0.0, lid

    def test_interior_gradient_unprojected(self):
        field = field_sample("d1", grid_n=5)
        interior = (field.px > 0) & (field.px < 1) & (field.py > 0) & (field.py < 1)
        from atrousseg.losses import _value_grad
        _, gx, gy = _value_grad("d1", field.px, field.py, 1.0, 0.0, EPS)
        assert np.array_equal(field.gx[interior], gx[interior])
        assert np.array_equal(field.gy[interior], gy[interior])

    def test_complement_steers_toward_gt_from_corners(self):
        # Interior ground truth: at every corner the complement-Tanimoto
        # gradient points into the square toward l.
        field = field_sample("tanimoto-complement", l=(0.25, 0.85), grid_n=2)
        for i, j, cx, cy in [(0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1)]:
            gx, gy = field.gx[i, j], field.gy[i, j]
            assert np.sign(gx) == np.sign(0.25 - cx)
            assert np.sign(gy) == np.sign(0.85 - cy)

    def test_laplacian_against_direct_stencil(self):
        field = field_sample("d2", grid_n=21)
        h = 1.0 / 20.0
        v = field.value
        inner = (v[2:, 1:-1] + v[:-2, 1:-1] + v[1:-1, 2:] + v[1:-1, :-2]
                 - 4 * v[1:-1, 1:-1]) / (h * h)
        assert np.allclose(field.laplacian[1:-1, 1:-1], inner, atol=1e-9)

    def test_rejects_unknown_id(self):
        with pytest.raises(ValueError):
            field_sample("dice", grid_n=3)

    @pytest.mark.parametrize("gt", [(np.nan, 0.0), (np.inf, 0.0), (2.0, -1.0), (0.5, 1.5)])
    def test_rejects_ground_truth_outside_unit_square(self, gt):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            field_sample("d1", l=gt, grid_n=3)


class TestMultitask:
    def _fake_output(self, rng, k=3, hw=8):
        from atrousseg.models import MultiHeadOutput
        mk = lambda: parameter(rng.random((2, k, hw, hw)))
        return MultiHeadOutput(segmentation=mk(), boundary=mk(),
                               distance=mk(), color=parameter(rng.random((2, 3, hw, hw))))

    def _targets(self, rng, k=3, hw=8):
        seg = np.eye(k)[rng.integers(0, k, (2, hw, hw))].transpose(0, 3, 1, 2)
        return {
            "segmentation": seg,
            "boundary": (rng.random((2, k, hw, hw)) > 0.7).astype(float),
            "distance": rng.random((2, k, hw, hw)),
            "color": rng.random((2, 3, hw, hw)),
        }

    def test_sums_over_enabled_tasks(self, rng):
        out = self._fake_output(rng)
        targets = self._targets(rng)
        total = multitask_loss(out, targets).item()
        parts = 0.0
        base = loss_fn("tanimoto-complement")
        for name, pred in out.tasks().items():
            w = volume_weights(targets[name]) if name in ("segmentation", "boundary") else None
            parts += 1.0 - base(pred, targets[name], weights=w).item()
        assert total == pytest.approx(parts, rel=1e-9)

    def test_missing_target_is_an_error(self, rng):
        out = self._fake_output(rng)
        targets = self._targets(rng)
        del targets["distance"]
        with pytest.raises(ValueError, match="missing target"):
            multitask_loss(out, targets)

    def test_single_head_needs_only_segmentation(self, rng):
        from atrousseg.models import MultiHeadOutput
        out = MultiHeadOutput(segmentation=parameter(rng.random((1, 3, 4, 4))))
        targets = {"segmentation": np.eye(3)[
            rng.integers(0, 3, (1, 4, 4))].transpose(0, 3, 1, 2)}
        val = multitask_loss(out, targets)
        assert np.isfinite(val.item())

    def test_head_gradients_keep_prediction_dtype(self, rng):
        from atrousseg.models import MultiHeadOutput
        mk = lambda k: parameter(rng.random((2, k, 8, 8)).astype(np.float32))
        out = MultiHeadOutput(segmentation=mk(3), boundary=mk(3), distance=mk(3), color=mk(3))
        multitask_loss(out, self._targets(rng)).backward()
        for name, pred in out.tasks().items():
            assert pred.grad.dtype == np.float32, name

    def test_cmtsk_parameter_gradients_are_f32(self, rng):
        from atrousseg.labels import derive_record
        from atrousseg.models import ModelSpec, build_model
        from atrousseg.trainer import batch_loss
        model = build_model(ModelSpec(initial_filters=4, n_classes=3, input_channels=3,
                                      head="cmtsk"), seed=0)
        records = [derive_record(rng.random((3, 32, 32)), rng.integers(0, 3, (32, 32)), 3)
                   for _ in range(2)]
        loss, _ = batch_loss(model, records, "tanimoto-complement")
        loss.backward()
        wide = [name for name, w in model.named_parameters() if w.grad.dtype != np.float32]
        assert model.parameters() and not wide, wide

    def test_gradient_flows_to_predictions(self, rng):
        out = self._fake_output(rng)
        targets = self._targets(rng)
        multitask_loss(out, targets).backward()
        assert np.abs(out.segmentation.grad).max() > 0
        assert np.abs(out.color.grad).max() > 0
