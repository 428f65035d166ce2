"""Architecture assembly: parameter budgets, head wiring, input validation,
and checkpoint round-trips."""

import json
import os

import numpy as np
import pytest

from atrousseg import fileio
from atrousseg.autodiff import Node, ShapeError, is_grad_enabled
from atrousseg.models import (ModelSpec, build_model, load_checkpoint,
                              param_count, save_checkpoint)
from atrousseg.trainer import Adam

# Frozen parameter budgets for the reference configurations (5 input
# channels, 6 classes, 32 initial filters), computed once by hand-walking
# the layer list and pinned here against regressions.
D6_PARAMS = 42_121_542
D7V1_PARAMS = 149_094_726
D7V2_PARAMS = 149_096_774


def tiny_spec(head="single", depth="d6", classes=3):
    return ModelSpec(depth=depth, initial_filters=4, n_classes=classes,
                     input_channels=3, head=head)


class TestModelSpec:
    def test_defaults(self):
        spec = ModelSpec()
        assert spec.depth == "d6" and spec.head == "single"
        assert spec.size_divisor == 32

    def test_d7_divisor(self):
        assert ModelSpec(depth="d7v1").size_divisor == 64
        assert ModelSpec(depth="d7v2").size_divisor == 64

    @pytest.mark.parametrize("kw", [
        {"depth": "d9"}, {"head": "triple"}, {"initial_filters": 0},
        {"n_classes": 1}, {"input_channels": 0},
    ])
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError):
            ModelSpec(**kw)


class TestParameterBudget:
    @pytest.mark.parametrize("depth,expected", [
        ("d6", D6_PARAMS), ("d7v1", D7V1_PARAMS), ("d7v2", D7V2_PARAMS)])
    def test_reference_counts(self, depth, expected):
        spec = ModelSpec(depth=depth, initial_filters=32, n_classes=6,
                         input_channels=5, head="single")
        assert param_count(build_model(spec, seed=0)) == expected

    def test_multitask_heads_cost_little(self):
        base = ModelSpec(initial_filters=32, n_classes=6, input_channels=5)
        single = param_count(build_model(base, seed=0))
        for head in ("mtsk", "cmtsk"):
            spec = ModelSpec(initial_filters=32, n_classes=6,
                             input_channels=5, head=head)
            extra = param_count(build_model(spec, seed=0)) - single
            assert 0 < extra < 0.05 * single


class TestForward:
    def test_single_head_output(self):
        model = build_model(tiny_spec(), seed=0)
        out = model(Node(np.random.default_rng(0).random((2, 3, 64, 64),
                                                         dtype=np.float32)))
        assert set(out.tasks()) == {"segmentation"}
        seg = out.segmentation.value
        assert seg.shape == (2, 3, 64, 64)
        assert np.abs(seg.sum(axis=1) - 1.0).max() < 1e-5

    @pytest.mark.parametrize("head,tasks", [
        ("mtsk", {"segmentation", "boundary", "distance", "color"}),
        ("cmtsk", {"segmentation", "boundary", "distance", "color"}),
    ])
    def test_multitask_outputs(self, head, tasks):
        model = build_model(tiny_spec(head), seed=0)
        x = Node(np.random.default_rng(1).random((1, 3, 64, 64), dtype=np.float32))
        out = model(x)
        assert set(out.tasks()) == tasks
        assert out.boundary.shape == (1, 3, 64, 64)
        assert out.distance.shape == (1, 3, 64, 64)
        assert out.color.shape == (1, 3, 64, 64)
        assert 0.0 <= out.boundary.value.min() and out.boundary.value.max() <= 1.0
        assert 0.0 <= out.distance.value.min() and out.distance.value.max() <= 1.0

    def test_rejects_bad_input_shapes(self):
        model = build_model(tiny_spec(), seed=0)
        with pytest.raises(ShapeError):
            model(Node(np.zeros((1, 3, 60, 64), dtype=np.float32)))  # not /32
        with pytest.raises(ShapeError):
            model(Node(np.zeros((1, 5, 64, 64), dtype=np.float32)))  # channels
        with pytest.raises(ShapeError):
            model(Node(np.zeros((3, 64, 64), dtype=np.float32)))     # rank

    def test_d7_requires_divisible_by_64(self):
        model = build_model(tiny_spec(depth="d7v1"), seed=0)
        with pytest.raises(ShapeError):
            model(Node(np.zeros((1, 3, 96, 96), dtype=np.float32)))
        out = model(Node(np.random.default_rng(2).random(
            (1, 3, 128, 128), dtype=np.float32)))
        assert out.segmentation.shape == (1, 3, 128, 128)

    def test_d7v2_forward(self):
        model = build_model(tiny_spec(depth="d7v2"), seed=0)
        out = model(Node(np.random.default_rng(3).random(
            (1, 3, 128, 128), dtype=np.float32)))
        assert out.segmentation.shape == (1, 3, 128, 128)

    def test_predict_leaves_state_alone(self):
        model = build_model(tiny_spec(), seed=0)
        model.train(True)
        before = {k: v.copy() for k, v in model.state_dict().items()}
        x = np.random.default_rng(4).random((1, 3, 64, 64), dtype=np.float32)
        out = model.predict(x)
        assert model.training
        assert set(out) == {"segmentation"}
        after = model.state_dict()
        assert all((after[k] == before[k]).all() for k in before)

    def test_evaluating_restores_mode_after_error(self):
        model = build_model(tiny_spec(), seed=0)
        model.train(True)
        with pytest.raises(RuntimeError):
            with model.evaluating():
                assert not model.training and not model.trunk.entry.training
                assert not is_grad_enabled()
                raise RuntimeError
        assert model.training and model.trunk.entry.training
        assert is_grad_enabled()


class TestHeadConditioning:
    """mtsk heads are independent; cmtsk conditions segmentation on the
    distance branch."""

    def _run_with_zeroed_distance(self, head):
        model = build_model(tiny_spec(head), seed=0)
        model.eval()
        x = np.random.default_rng(5).random((1, 3, 64, 64), dtype=np.float32)
        base = model.predict(x)["segmentation"]
        for name, p in model.named_parameters():
            if name.startswith("head.distance") or name.startswith("head.dist"):
                p.value[...] = 0.0
        zeroed = model.predict(x)["segmentation"]
        return base, zeroed

    def test_mtsk_segmentation_untouched(self):
        base, zeroed = self._run_with_zeroed_distance("mtsk")
        assert np.array_equal(base, zeroed)

    def test_cmtsk_segmentation_changes(self):
        base, zeroed = self._run_with_zeroed_distance("cmtsk")
        assert not np.array_equal(base, zeroed)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = build_model(tiny_spec("cmtsk"), seed=7)
        # make buffers non-trivial
        x = Node(np.random.default_rng(6).random((2, 3, 64, 64), dtype=np.float32))
        model.train(True)
        model(x)
        save_checkpoint(model, tmp_path)
        clone = load_checkpoint(tmp_path)
        assert clone.spec == model.spec
        src = model.state_dict()
        dst = clone.state_dict()
        assert set(src) == set(dst)
        for k in src:
            assert np.array_equal(src[k], dst[k]), k

    @staticmethod
    def fail_on_write(monkeypatch, n):
        """Make the n-th write_nct from here on raise."""
        calls, write = [], fileio.write_nct

        def flaky(path, array):
            calls.append(path)
            if len(calls) == n:
                raise OSError("disk full")
            write(path, array)

        monkeypatch.setattr(fileio, "write_nct", flaky)

    @staticmethod
    def assert_same_state(a, b):
        sa, sb = a.state_dict(), b.state_dict()
        assert set(sa) == set(sb) and all(np.array_equal(sa[k], sb[k]) for k in sa)

    def test_failed_write_leaves_no_checkpoint(self, tmp_path, monkeypatch):
        self.fail_on_write(monkeypatch, 5)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(build_model(tiny_spec(), seed=0), tmp_path / "ck")
        assert list(tmp_path.iterdir()) == []

    def test_failed_overwrite_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        first = build_model(tiny_spec(), seed=0)
        save_checkpoint(first, tmp_path / "ck")
        self.fail_on_write(monkeypatch, 5)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(build_model(tiny_spec(), seed=1), tmp_path / "ck")
        assert [p.name for p in tmp_path.iterdir()] == ["ck"]
        self.assert_same_state(load_checkpoint(tmp_path / "ck"), first)

    def test_failed_rename_restores_previous_checkpoint(self, tmp_path, monkeypatch):
        first = build_model(tiny_spec(), seed=0)
        save_checkpoint(first, tmp_path / "ck")
        calls, replace = [], os.replace

        def flaky(src, dst):  # the old checkpoint moves aside, the new one fails
            calls.append(src)
            if len(calls) == 2:
                raise OSError("rename failed")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", flaky)
        with pytest.raises(OSError, match="rename failed"):
            save_checkpoint(build_model(tiny_spec(), seed=1), tmp_path / "ck")
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["ck"]
        self.assert_same_state(load_checkpoint(tmp_path / "ck"), first)

    def test_refuses_directory_that_is_not_a_checkpoint(self, tmp_path):
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "history.csv").write_text("epoch\n")
        with pytest.raises(FileExistsError):
            save_checkpoint(build_model(tiny_spec(), seed=0), tmp_path / "run")
        assert [p.name for p in tmp_path.iterdir()] == ["run"]
        assert [p.name for p in (tmp_path / "run").iterdir()] == ["history.csv"]

    def test_refuses_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="working directory"):
            save_checkpoint(build_model(tiny_spec(), seed=0), ".")
        assert list(tmp_path.iterdir()) == []

    def test_overwrite_replaces_checkpoint(self, tmp_path):
        save_checkpoint(build_model(tiny_spec("cmtsk"), seed=0), tmp_path / "ck")
        second = build_model(tiny_spec(), seed=1)
        assert save_checkpoint(second, tmp_path / "ck") == tmp_path / "ck"
        assert [p.name for p in tmp_path.iterdir()] == ["ck"]
        clone = load_checkpoint(tmp_path / "ck")
        assert clone.spec == second.spec
        self.assert_same_state(clone, second)

    def test_load_rejects_missing_tensor(self, tmp_path):
        model = build_model(tiny_spec(), seed=0)
        save_checkpoint(model, tmp_path)
        victim = next(tmp_path.glob("*.nct"))
        victim.unlink()
        with pytest.raises((FileNotFoundError, KeyError)):
            load_checkpoint(tmp_path)

    def test_load_rejects_unexpected_entries(self, tmp_path):
        model = build_model(tiny_spec(), seed=0)
        state = dict(model.state_dict(), **{"extra.weight": np.zeros(3, np.float32)})
        with pytest.raises(KeyError, match=r"extra\.weight"):
            model.load_state_dict(state)
        save_checkpoint(model, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["tensors"]["extra.weight"] = next(iter(manifest["tensors"].values()))
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(KeyError, match=r"extra\.weight"):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("edit, match", [
        pytest.param(lambda m: m.pop("format"), "format", id="no-format"),
        pytest.param(lambda m: m.update(format="nct2"), "format", id="format-nct2"),
        pytest.param(lambda m: m.update(format=1), "format", id="format-1"),
        pytest.param(lambda m: m["spec"].update(colour=1), "colour", id="spec-field"),
    ])
    def test_load_rejects_bad_manifest(self, tmp_path, edit, match):
        save_checkpoint(build_model(tiny_spec(), seed=0), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        edit(manifest)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=match):
            load_checkpoint(tmp_path)

def is_tap_major(a) -> bool:
    """Whether an OIHW array lies in (k, k, cout, cin) memory order."""
    return a.transpose(2, 3, 0, 1).flags.c_contiguous


class TestConvWeightLayout:
    """Conv2d keeps its OIHW weights in tap-major memory through training
    state and checkpoints; the files stay C-ordered OIHW."""

    @staticmethod
    def conv_weights(model):
        return {name: p for name, p in model.named_parameters()
                if p.ndim == 4 and p.shape[2] == 3}

    def test_layout_survives_zero_grad_adam_and_load(self):
        model = build_model(tiny_spec(), seed=0)
        weights = self.conv_weights(model)
        assert weights and all(is_tap_major(p.value) for p in weights.values())
        opt = Adam(model.parameters())
        opt.zero_grad()
        model.train(True)
        x = np.random.default_rng(1).random((2, 3, 32, 32), dtype=np.float32)
        model(x).segmentation.sum().backward()
        opt.step()
        for name, p in weights.items():
            assert is_tap_major(p.grad), name
        for p, m, v in zip(opt.params, opt._m, opt._v):
            if p.ndim == 4 and p.shape[2] == 3:
                assert is_tap_major(m) and is_tap_major(v)
        model.load_state_dict(build_model(tiny_spec(), seed=1).state_dict())
        assert all(is_tap_major(p.value) for p in weights.values())

    def test_checkpoint_writes_oihw_bytes(self, tmp_path):
        model = build_model(tiny_spec(), seed=0)
        save_checkpoint(model, tmp_path)
        for name, p in self.conv_weights(model).items():
            stored = fileio.read_nct(tmp_path / f"{name}.nct")
            assert stored.shape == p.shape
            assert stored.tobytes() == np.ascontiguousarray(p.value).tobytes(), name
        clone = load_checkpoint(tmp_path)
        assert all(is_tap_major(p.value) for p in self.conv_weights(clone).values())


def tree_names(module, table, prefix=""):
    """Dotted names of ``module``'s ``table`` entries ("_params" or
    "_buffers"), the module's own first, then each child's in turn."""
    names = [prefix + name for name in getattr(module, table)]
    for name, child in module._modules.items():
        names += tree_names(child, table, prefix + name + ".")
    return names


def tree_modules(module):
    yield module
    for child in module._modules.values():
        yield from tree_modules(child)


class TestModuleTree:
    def test_state_dict_keys_follow_the_module_tree(self):
        model = build_model(tiny_spec("cmtsk"))
        params = tree_names(model, "_params")
        assert [name for name, _ in model.named_parameters()] == params
        assert [name for name, _ in model.named_buffers()] == tree_names(model, "_buffers")
        assert list(model.state_dict()) == params + tree_names(model, "_buffers")

    def test_eval_and_train_reach_every_descendant(self):
        model = build_model(tiny_spec("cmtsk"))
        modules = list(tree_modules(model))
        assert model.eval() is model
        assert not any(m.training for m in modules)
        assert model.train() is model
        assert all(m.training for m in modules)
        model.train(False)
        assert not any(m.training for m in modules)
