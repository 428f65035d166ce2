"""Optimizer math, gradient aggregation, the LR range finder, and the
plateau-scheduled training loop."""

import csv
import io

import numpy as np
import pytest

import atrousseg.trainer as trainer_mod
from atrousseg.autodiff import Node, parameter
from atrousseg.blocks import Conv2DN
from atrousseg.labels import derive_record
from atrousseg.models import ModelSpec, build_model
from atrousseg.trainer import (Adam, Sgd, TrainConfig, aggregate_gradients,
                               evaluate_records, history_to_csv, lr_finder,
                               train)


def make_records(rng, n, size=32, classes=3):
    return [derive_record(rng.random((3, size, size)).astype(np.float32),
                          rng.integers(0, classes, (size, size)), classes)
            for _ in range(n)]


def tiny_model(seed=1, head="single"):
    spec = ModelSpec(depth="d6", initial_filters=4, n_classes=3,
                     input_channels=3, head=head)
    return build_model(spec, seed=seed)


class TestAdam:
    def test_quadratic_converges(self):
        x = parameter(np.array([5.0, -4.0]))
        opt = Adam([x], lr=0.3)
        for _ in range(300):
            opt.zero_grad()
            loss = ((x - np.array([3.0, 1.0])) ** 2).sum()
            loss.backward()
            opt.step()
        assert np.allclose(x.value, [3.0, 1.0], atol=1e-3)

    def test_first_step_size_is_lr(self):
        # With bias correction the first update is lr * g/|g| regardless of
        # the gradient's magnitude.
        for scale in (1e-3, 1.0, 1e6):
            x = parameter(np.array([2.0]))
            opt = Adam([x], lr=0.05)
            loss = x * scale
            loss.sum().backward()
            opt.step()
            assert np.isclose(x.value[0], 2.0 - 0.05, rtol=1e-4)

    def test_zero_grad_clears(self):
        x = parameter(np.ones(3))
        (x * 2.0).sum().backward()
        assert x.grad.sum() == 6.0
        Adam([x]).zero_grad()
        assert (x.grad == 0).all()

    def test_shape_drift_rejected(self):
        x = parameter(np.ones(3))
        opt = Adam([x])
        x.grad = np.ones(2)
        with pytest.raises(ValueError, match="drifted"):
            opt.step()

    def test_sgd_step_is_plain_descent(self):
        x = parameter(np.array([1.0, 2.0]))
        opt = Sgd([x], lr=0.1)
        (x * np.array([3.0, -1.0])).sum().backward()
        opt.step()
        assert np.allclose(x.value, [1.0 - 0.3, 2.0 + 0.1])


class TestAggregation:
    def test_matches_full_batch_on_decomposable_loss(self, rng):
        w = parameter(rng.normal(size=8))
        data = rng.normal(size=(12, 8))

        def loss_fn(batch):
            return ((Node(batch) - w) ** 2).mean()

        full = loss_fn(data)
        full.backward()
        ref = w.grad.copy()
        ref_val = full.item()

        agg = aggregate_gradients(loss_fn, [w],
                                  [data[:5], data[5:6], data[6:]])
        assert np.allclose(w.grad, ref, atol=1e-12)
        assert np.isclose(agg, ref_val, atol=1e-12)

    def test_explicit_sizes_weight_the_mean(self):
        w = parameter(np.zeros(1))

        def loss_fn(c):
            return (w * 0.0 + c).sum()

        agg = aggregate_gradients(loss_fn, [w], [2.0, 10.0], sizes=[3, 1])
        assert np.isclose(agg, (3 * 2.0 + 1 * 10.0) / 4.0)

    def test_stale_gradients_cleared_first(self, rng):
        w = parameter(np.ones(4))
        data = rng.normal(size=(6, 4))

        def loss_fn(batch):
            return ((Node(batch) - w) ** 2).mean()

        aggregate_gradients(loss_fn, [w], [data[:3], data[3:]])
        clean = w.grad.copy()
        w.grad = np.full(4, 1e6)  # leftovers from an interrupted step
        aggregate_gradients(loss_fn, [w], [data[:3], data[3:]])
        assert np.allclose(w.grad, clean)

    def test_conv_bn_micro_batches_match_one_pass(self, rng):
        # In eval mode the normalisation layer is per-sample, so a mean
        # readout decomposes over the batch and the two paths must agree.
        block = Conv2DN(2, 3, kernel=3, rng=rng, dtype=np.float64)
        block.bn.running_mean[...] = rng.normal(size=3)
        block.bn.running_var[...] = rng.random(3) + 0.5
        block.eval()
        x = rng.normal(size=(4, 2, 8, 8))
        params = block.parameters()

        def loss_fn(batch):
            return (block(Node(batch)) ** 2).mean()

        loss_fn(x).backward()
        ref = [p.grad.copy() for p in params]
        for p in params:
            p.zero_grad()
        aggregate_gradients(loss_fn, params, [x[:1], x[1:3], x[3:]])
        for got, want in zip((p.grad for p in params), ref):
            assert np.allclose(got, want, atol=1e-10)


class QuadraticProblem:
    """Scalar bowl 0.5*c*x^2; plain gradient descent diverges for lr > 2/c."""

    def __init__(self, c=50.0, x0=1.0):
        self.c = c
        self.x = parameter(np.array([x0]))

    def loss(self, _batch):
        return (self.x ** 2).sum() * (0.5 * self.c)


class TestLrFinder:
    def test_quadratic_suggestion_is_stable(self):
        prob = QuadraticProblem()
        before = prob.x.value.copy()
        res = lr_finder(prob.loss, [prob.x], [None], lr_lo=1e-6, lr_hi=1.0,
                        steps=60, optimizer="sgd")
        assert not res.diverged
        assert 0 < res.suggestion < 2.0 / prob.c
        assert (prob.x.value == before).all()  # sweep must not leak updates

    def test_deterministic(self):
        a = lr_finder(QuadraticProblem().loss, [QuadraticProblem().x], [None],
                      steps=40, optimizer="sgd")
        prob = QuadraticProblem()
        b = lr_finder(prob.loss, [prob.x], [None], steps=40, optimizer="sgd")
        # identical problem setup -> identical curve
        prob2 = QuadraticProblem()
        c = lr_finder(prob2.loss, [prob2.x], [None], steps=40, optimizer="sgd")
        assert (b.lrs == c.lrs).all() and (b.smoothed == c.smoothed).all()
        assert b.suggestion == c.suggestion

    def test_monotone_increase_reports_divergence(self):
        x = parameter(np.ones(1))
        counter = {"t": 0.0}

        def loss_fn(_):
            counter["t"] += 1.0
            return (x * 0.0).sum() + counter["t"]

        res = lr_finder(loss_fn, [x], [None], steps=30)
        assert res.diverged
        assert "never decreased" in res.diagnostic

    def test_immediate_nan_reports_divergence(self):
        x = parameter(np.ones(1))

        def loss_fn(_):
            return (x * 0.0).sum() + np.nan

        res = lr_finder(loss_fn, [x], [None], steps=30)
        assert res.diverged
        assert "non-finite" in res.diagnostic
        assert len(res.lrs) == 0

    def test_explosion_aborts_sweep_early(self):
        x = parameter(np.ones(1))
        script = iter([1.0, 0.9, 0.8] + [100.0] * 50)

        def loss_fn(_):
            return (x * 0.0).sum() + next(script)

        res = lr_finder(loss_fn, [x], [None], steps=50)
        assert len(res.lrs) < 50

    def test_argument_validation(self):
        prob = QuadraticProblem()
        with pytest.raises(ValueError, match="lr_lo"):
            lr_finder(prob.loss, [prob.x], [None], lr_lo=0.1, lr_hi=0.1)
        with pytest.raises(ValueError, match="steps"):
            lr_finder(prob.loss, [prob.x], [None], steps=1)


class TestTrainConfig:
    def test_effective_batch(self):
        assert TrainConfig(micro_batch=3, aggregate_steps=4).effective_batch == 12

    @pytest.mark.parametrize("kw", [
        {"plateau_factor": 0.0}, {"plateau_factor": 1.0},
        {"micro_batch": 0}, {"aggregate_steps": 0},
        {"loss_id": "iou"},
        {"betas": (1.0, 0.999)}, {"betas": (0.9, 1.0)}, {"betas": (-0.1, 0.999)},
        {"betas": (0.9,)}, {"lr": -1e-3}, {"lr": float("nan")}])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


class TestBatchLoss:
    def test_single_head_needs_only_the_onehot_target(self, rng):
        from types import SimpleNamespace
        recs = make_records(rng, 2)
        bare = [SimpleNamespace(image=r.image, mask=r.mask, onehot=r.onehot) for r in recs]
        loss, out = trainer_mod.batch_loss(tiny_model(), bare, "d1")
        ref, _ = trainer_mod.batch_loss(tiny_model(), recs, "d1")
        assert set(out.tasks()) == {"segmentation"}
        assert loss.item() == ref.item()


class TestEvaluateRecords:
    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            evaluate_records(tiny_model(), [], "d1", 2, 3)

    def test_mode_restored(self, rng):
        model = tiny_model()
        recs = make_records(rng, 2)
        model.train()
        evaluate_records(model, recs, "d1", 2, 3)
        assert model.training
        model.eval()
        evaluate_records(model, recs, "d1", 2, 3)
        assert not model.training


class TestTrainLoop:
    def test_history_shape_and_csv(self, rng, tmp_path):
        model = tiny_model()
        recs = make_records(rng, 6)
        cfg = TrainConfig(lr=1e-3, micro_batch=4, max_epochs=3, seed=0,
                          loss_id="d1")
        res = train(model, recs[:4], recs[4:], cfg)
        assert len(res.history) == 3
        assert not res.halted
        assert 0 <= res.best_epoch < 3

        path = tmp_path / "history.csv"
        history_to_csv(res.history, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "val_loss", "val_mcc", "lr"]
        assert len(rows) == 4
        assert float(rows[1][1]) == pytest.approx(res.history[0].train_loss)

    def test_zero_lr_leaves_weights_untouched(self, rng):
        model = tiny_model()
        recs = make_records(rng, 6)
        before = {k: v.value.copy() for k, v in model.named_parameters()}
        cfg = TrainConfig(lr=0.0, micro_batch=8, max_epochs=3, seed=0,
                          loss_id="d1")
        res = train(model, recs[:4], recs[4:], cfg)
        for name, p in model.named_parameters():
            assert np.array_equal(before[name], p.value), name
        # Same weights + full batch: discrete train metrics cannot move, and
        # the loss only wobbles with f32 summation order under the shuffle.
        mccs = [h.train_mcc for h in res.history]
        assert mccs == [mccs[0]] * len(mccs)
        losses = [h.train_loss for h in res.history]
        assert max(losses) - min(losses) < 1e-6

    def test_repeat_run_reproduces_trace(self, rng):
        recs = make_records(rng, 6)
        from atrousseg.augment import AugmentConfig
        cfg = TrainConfig(lr=1e-3, micro_batch=2, max_epochs=3, seed=11,
                          loss_id="tanimoto-complement",
                          augment=AugmentConfig())
        traces = []
        for _ in range(2):
            model = tiny_model(seed=5, head="cmtsk")
            res = train(model, recs[:4], recs[4:], cfg)
            traces.append([(h.train_loss, h.val_loss, h.val_mcc)
                           for h in res.history])
        assert traces[0] == traces[1]

    def test_plateau_schedule(self, rng, monkeypatch):
        # Scripted validation losses isolate the scheduler from numerics:
        # constant val loss never improves, so the LR must step down by the
        # plateau factor each `patience` epochs until max_reductions is hit.
        model = tiny_model()
        recs = make_records(rng, 3)
        fake_vals = iter([1.0] * 7)
        monkeypatch.setattr(trainer_mod, "evaluate_records",
                            lambda *a, **k: (next(fake_vals), 0.0))
        cfg = TrainConfig(lr=0.5, micro_batch=2, max_epochs=7,
                          plateau_patience=2, plateau_factor=0.1,
                          max_reductions=2, seed=0, loss_id="d1")
        res = train(model, recs[:2], recs[2:], cfg)
        assert [h.lr for h in res.history] == pytest.approx(
            [0.5, 0.5, 0.5, 0.05, 0.05, 0.005, 0.005])
        assert res.best_epoch == 0

    def test_best_state_restored(self, rng, monkeypatch):
        model = tiny_model()
        recs = make_records(rng, 3)
        script = iter([3.0, 1.0, 2.0, 2.5])
        snapshots = []

        def fake_eval(*a, **k):
            snapshots.append({k_: v.copy()
                              for k_, v in model.state_dict().items()})
            return next(script), 0.0

        monkeypatch.setattr(trainer_mod, "evaluate_records", fake_eval)
        cfg = TrainConfig(lr=0.05, micro_batch=2, max_epochs=4, seed=0,
                          loss_id="d1")
        res = train(model, recs[:2], recs[2:], cfg)
        assert res.best_epoch == 1
        assert res.best_val_loss == 1.0
        final = model.state_dict()
        for key, want in snapshots[1].items():
            assert np.array_equal(final[key], want), key

    def test_non_finite_loss_halts(self, rng):
        model = tiny_model()
        recs = make_records(rng, 3)
        recs[0].image[0, 0, 0] = np.nan
        cfg = TrainConfig(lr=1e-3, micro_batch=4, max_epochs=5, seed=0,
                          loss_id="d1")
        res = train(model, recs[:2], recs[2:], cfg)
        assert res.halted
        assert res.history == []
        for _, p in model.named_parameters():
            assert np.isfinite(p.value).all()

    def test_empty_splits_rejected(self, rng):
        model = tiny_model()
        recs = make_records(rng, 2)
        with pytest.raises(ValueError, match="non-empty"):
            train(model, [], recs, TrainConfig())
        with pytest.raises(ValueError, match="non-empty"):
            train(model, recs, [], TrainConfig())
