"""Command-line surface: happy paths, artifacts on disk, exit codes, and the
one-line error protocol on stderr."""

import argparse
import dataclasses
import json
import re

import numpy as np
import pytest

from atrousseg import evaluate, fileio, labels, pipeline, synth, trainer
from atrousseg.cli import build_parser, main
from atrousseg.config import load_config
from atrousseg.labels import derive_record
from atrousseg.models import param_count, build_model, ModelSpec, save_checkpoint
from atrousseg.trainer import TrainResult


def write_config(tmp_path, **extra):
    doc = {
        "model": {"depth": "d6", "initial_filters": 4, "n_classes": 3,
                  "input_channels": 3, "head": "cmtsk"},
        "train": {"lr": 0.005, "micro_batch": 2, "max_epochs": 2, "seed": 2,
                  "loss_id": "tanimoto-complement", "plateau_patience": 5},
        "data": {"kind": "synthetic", "size": 64, "n_classes": 3,
                 "n_images": 4, "seed": 1, "split": [0.5, 0.25, 0.25]},
        "out_dir": str(tmp_path / "run"),
    }
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def stderr_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    m = re.fullmatch(r'error kind=(\w+) msg="(.*)"', err)
    assert m, f"stderr line not in protocol form: {err!r}"
    return m.group(1), m.group(2)


class TestErrorProtocol:
    def test_missing_config_is_data_error(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "none.json")])
        assert code == 2
        kind, msg = stderr_error(capsys)
        assert kind == "data" and "none.json" in msg

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"trian": {}}))
        assert main(["train", "--config", str(path)]) == 1
        kind, msg = stderr_error(capsys)
        assert kind == "config" and "trian" in msg

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("{oops")
        assert main(["train", "--config", str(path)]) == 1
        assert stderr_error(capsys)[0] == "config"

    def test_bad_gt_flag_is_config_error(self, tmp_path, capsys):
        code = main(["loss-field", "--loss", "d1", "--gt", "1,0,1",
                     "--out", str(tmp_path / "f.csv")])
        assert code == 1
        assert stderr_error(capsys)[0] == "config"


class TestLossField:
    def test_grid_written(self, tmp_path, capsys):
        out = tmp_path / "field.csv"
        code = main(["loss-field", "--loss", "tanimoto-complement",
                     "--gt", "1,0", "--grid", "11", "--out", str(out)])
        assert code == 0
        assert "121 samples" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "px,py,value,gx,gy,laplacian"
        assert len(lines) == 122


class TestParamCount:
    def test_json_line_matches_library(self, capsys):
        code = main(["param-count", "--model", "d6", "--head", "single",
                     "--filters", "4", "--classes", "3", "--channels", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        spec = ModelSpec(depth="d6", initial_filters=4, n_classes=3,
                         input_channels=3, head="single")
        assert doc["param_count"] == param_count(build_model(spec, seed=0))
        assert doc["depth"] == "d6"


class TestEval:
    def test_identical_masks_score_one(self, tmp_path, capsys, rng):
        mask = rng.integers(0, 3, (20, 20)).astype(np.uint8)
        pred = tmp_path / "pred.pgm"
        ref = tmp_path / "ref.pgm"
        fileio.write_pgm(pred, mask)
        fileio.write_pgm(ref, mask)
        out = tmp_path / "eval"
        code = main(["eval", "--pred", str(pred), "--ref", str(ref),
                     "--out", str(out)])
        assert code == 0
        overall = json.loads(capsys.readouterr().out)
        assert overall["oa"] == 1.0 and overall["mcc"] == 1.0
        saved = json.loads((out / "metrics.json").read_text())
        assert saved["overall"] == overall
        emap = fileio.read_ppm(out / "error_map.ppm")
        assert (emap == [0, 200, 0]).all()  # everything correct -> green

    def test_shape_mismatch_is_data_error(self, tmp_path, capsys):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        fileio.write_pgm(a, np.zeros((4, 4), dtype=np.uint8))
        fileio.write_pgm(b, np.zeros((5, 4), dtype=np.uint8))
        code = main(["eval", "--pred", str(a), "--ref", str(b),
                     "--out", str(tmp_path / "e")])
        assert code == 2
        assert stderr_error(capsys)[0] == "data"


class TestSynthAndLabels:
    def test_synth_writes_dataset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, out_dir=str(tmp_path / "ds"))
        assert main(["synth", "--config", str(cfg)]) == 0
        assert "wrote 4 scenes" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert manifest["n_images"] == 4
        assert (tmp_path / "ds" / "scene_0003.ppm").is_file()

    def test_derive_labels_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, out_dir=str(tmp_path / "ds"))
        main(["synth", "--config", str(cfg)])
        out = tmp_path / "labels"
        code = main(["derive-labels", "--data", str(tmp_path / "ds"),
                     "--out", str(out), "--classes", "3"])
        assert code == 0
        onehot = fileio.read_nct(out / "record_0000.onehot.nct")
        assert onehot.shape == (3, 64, 64)
        assert np.allclose(onehot.sum(axis=0), 1.0)
        distance = fileio.read_nct(out / "record_0000.distance.nct")
        assert distance.shape == (3, 64, 64)
        assert distance.max() <= 1.0 + 1e-6

    @staticmethod
    def synth_dataset(tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["synth", "--config", str(write_config(tmp_path, out_dir=str(ds)))]) == 0
        capsys.readouterr()
        return ds

    def test_derive_labels_one_class_count_per_dataset(self, tmp_path, capsys):
        """Without --classes, a mask that lacks the dataset's largest class id
        still gets one plane per class of the dataset."""
        ds = self.synth_dataset(tmp_path, capsys)
        mask = fileio.read_pgm(ds / "scene_0001.pgm")
        assert mask.max() == 2
        fileio.write_pgm(ds / "scene_0001.pgm", np.where(mask == 2, 0, mask).astype(np.uint8))
        out = tmp_path / "labels"
        assert main(["derive-labels", "--data", str(ds), "--out", str(out)]) == 0
        for i in range(4):
            for name in ("onehot", "boundary", "distance"):
                assert fileio.read_nct(out / f"record_{i:04d}.{name}.nct").shape == (3, 64, 64)

    def test_derive_labels_workers_write_the_same_bytes_at_256px(self, tmp_path, capsys,
                                                                 monkeypatch):
        """derive-labels puts 256 px records on two threads; its files match
        derive_record's on one thread byte for byte."""
        data = {"kind": "synthetic", "size": 256, "n_classes": 6, "n_images": 4, "seed": 3,
                "split": [0.5, 0.25, 0.25]}
        ds = tmp_path / "ds"
        assert main(["synth", "--config", str(write_config(tmp_path, data=data,
                                                         out_dir=str(ds)))]) == 0
        out = tmp_path / "labels"
        assert main(["derive-labels", "--data", str(ds), "--out", str(out)]) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(files) == 16
        monkeypatch.setattr(labels, "_cpu_count", lambda: 1)
        want = tmp_path / "want"
        want.mkdir()
        for i, (image, mask) in enumerate(synth.load_dataset(ds)):
            rec = derive_record(image, mask, 6)
            for name in ("onehot", "boundary", "distance", "hsv"):
                fileio.write_nct(want / f"record_{i:04d}.{name}.nct", getattr(rec, name))
        assert files == {p.name: p.read_bytes() for p in want.iterdir()}

    def test_derive_labels_data_error_writes_nothing(self, tmp_path, capsys):
        ds = self.synth_dataset(tmp_path, capsys)
        out = tmp_path / "labels"
        code = main(["derive-labels", "--data", str(ds), "--out", str(out),
                     "--classes", "2"])  # the masks hold ids 0..2
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1, err
        assert err[0].startswith('error kind=data msg="mask contains class ids [2]'), err
        assert not out.exists()

    def test_derive_labels_missing_dataset(self, tmp_path, capsys):
        code = main(["derive-labels", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert stderr_error(capsys)[0] == "data"


class TestMalformedInput:
    @staticmethod
    def assert_one_data_error_line(argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith('error kind=data msg="')

    def test_short_nct_header(self, tmp_path, capsys):
        ckpt = tmp_path / "ck"
        save_checkpoint(build_model(ModelSpec(depth="d6", initial_filters=4, n_classes=3)), ckpt)
        (tmp_path / "t.nct").write_bytes(b"NCT1")
        self.assert_one_data_error_line(
            ["infer", "--checkpoint", str(ckpt), "--image", str(tmp_path / "t.nct"),
             "--out", str(tmp_path / "o")], capsys)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda m: m.update(format="nct2"), id="format"),
        pytest.param(lambda m: m["spec"].update(colour=1), id="spec-field"),
        pytest.param(lambda m: m["tensors"].update({"extra.w": next(iter(m["tensors"].values()))}),
                     id="extra-tensor"),
        pytest.param(lambda m: m.update(tensors=[]), id="tensors-list"),
    ])
    def test_bad_checkpoint_manifest(self, tmp_path, capsys, edit):
        ckpt = tmp_path / "ck"
        save_checkpoint(build_model(ModelSpec(depth="d6", initial_filters=4, n_classes=3)), ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        edit(manifest)
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        fileio.write_ppm(tmp_path / "t.ppm", np.zeros((32, 32, 3), np.uint8))
        self.assert_one_data_error_line(
            ["infer", "--checkpoint", str(ckpt), "--image", str(tmp_path / "t.ppm"),
             "--out", str(tmp_path / "o"), "--window", "32"], capsys)
        assert not (tmp_path / "o").exists()

    def test_checkpoint_manifest_not_an_object(self, tmp_path, capsys):
        ckpt = tmp_path / "ck"
        save_checkpoint(build_model(ModelSpec(depth="d6", initial_filters=4, n_classes=3)), ckpt)
        (ckpt / "manifest.json").write_text("[]")
        fileio.write_ppm(tmp_path / "t.ppm", np.zeros((32, 32, 3), np.uint8))
        self.assert_one_data_error_line(
            ["infer", "--checkpoint", str(ckpt), "--image", str(tmp_path / "t.ppm"),
             "--out", str(tmp_path / "o"), "--window", "32"], capsys)
        assert not (tmp_path / "o").exists()

    def test_pgm_header_larger_than_file(self, tmp_path, capsys):
        (tmp_path / "pred.pgm").write_bytes(b"P5\n200000 200000\n255\n")
        fileio.write_pgm(tmp_path / "ref.pgm", np.zeros((4, 4), np.uint8))
        self.assert_one_data_error_line(
            ["eval", "--pred", str(tmp_path / "pred.pgm"), "--ref", str(tmp_path / "ref.pgm"),
             "--out", str(tmp_path / "o")], capsys)
        assert not (tmp_path / "o").exists()

    def test_manifest_without_entries(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text('{"n_images": 1}')
        self.assert_one_data_error_line(
            ["derive-labels", "--data", str(tmp_path), "--out", str(tmp_path / "o")], capsys)

    @pytest.mark.parametrize("manifest", ['{"entries": [{}]}', '{"entries": [3]}',
                                          '{"entries": {}}'])
    def test_malformed_manifest_entries(self, tmp_path, capsys, manifest):
        (tmp_path / "manifest.json").write_text(manifest)
        self.assert_one_data_error_line(
            ["derive-labels", "--data", str(tmp_path), "--out", str(tmp_path / "o")], capsys)

    @pytest.mark.parametrize("command", ["synth", "train", "lr-find"])
    def test_synth_rejected_scene_recipe_is_config_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["data"]["size"] = 32
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith('error kind=config msg="size')

    def test_synth_checks_recipe_of_directory_config(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text('{"entries": []}')
        cfg = write_config(tmp_path, data={"kind": "directory", "path": str(tmp_path),
                                           "size": 32})
        assert main(["synth", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith('error kind=config msg="size')

    @pytest.mark.parametrize("command", ["train", "lr-find"])
    @pytest.mark.parametrize("model_key, data_key", [("n_classes", "n_classes"),
                                                     ("input_channels", "channels")])
    def test_model_data_mismatch_is_config_error(self, tmp_path, capsys, command,
                                                 model_key, data_key):
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["model"][model_key] = 4  # the data section has 3 classes and 3 channels
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith('error kind=config msg="')
        assert f"model.{model_key}" in err[0] and f"data.{data_key}" in err[0]
        assert not (tmp_path / "run" / "config.json").exists()

    @pytest.mark.parametrize("command", ["train", "lr-find"])
    def test_directory_channel_mismatch_is_config_error(self, tmp_path, capsys, command):
        ds = tmp_path / "ds"
        assert main(["synth", "--config", str(write_config(tmp_path, out_dir=str(ds)))]) == 0
        capsys.readouterr()
        cfg = write_config(tmp_path, data={"kind": "directory", "path": str(ds),
                                           "n_classes": 3, "split": [0.5, 0.25, 0.25]})
        doc = json.loads(cfg.read_text())
        doc["model"]["input_channels"] = 4  # the synthesized images have 3
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith('error kind=config msg="')
        assert "model.input_channels (4)" in err[0] and "(3)" in err[0]
        assert not (tmp_path / "run").exists()


def _run(command, *flags, section="data", **values):
    """argv builder: ``command`` on write_config's run, one section updated."""
    return _run_sections(command, *flags, **{section: values})


def _run_sections(command, *flags, **sections):
    """argv builder: ``command`` on write_config's run, each named section updated."""
    def make(tmp_path):
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        for section, values in sections.items():
            doc[section].update(values)
        cfg.write_text(json.dumps(doc))
        return [command, "--config", str(cfg), *flags]
    return make


def _entry_without_files(command):
    def make(tmp_path):
        (tmp_path / "manifest.json").write_text('{"entries": [{}]}')
        return _run(command, kind="directory", path=str(tmp_path))(tmp_path)
    return make


def _derive_below_largest_class(tmp_path):
    ds = tmp_path / "ds"
    assert main(["synth", "--config", str(write_config(tmp_path, out_dir=str(ds)))]) == 0
    return ["derive-labels", "--data", str(ds), "--out", str(tmp_path / "run"),
            "--classes", "2"]  # the synthesized masks hold class ids 0..2


def _loss_field_grid(n):
    return lambda tmp_path: ["loss-field", "--loss", "d1", "--grid", str(n),
                             "--out", str(tmp_path / "run" / "f.csv")]


def _loss_field_gt(gt):
    return lambda tmp_path: ["loss-field", "--loss", "d1", "--gt", gt,
                             "--out", str(tmp_path / "run" / "f.csv")]


def _out_is_a_file(make_argv, out="taken"):
    """``make_argv``'s argv with ``--out`` at or under ``taken``, an existing file."""
    def make(tmp_path):
        (tmp_path / "taken").write_text("")
        return [*make_argv(tmp_path), "--out", str(tmp_path / out)]
    return make


def _synth_dataset(tmp_path):
    ds = tmp_path / "ds"
    assert main(["synth", "--config", str(write_config(tmp_path, out_dir=str(ds)))]) == 0
    return ds


def _infer_inputs(tmp_path):
    save_checkpoint(build_model(ModelSpec(depth="d6", initial_filters=4, n_classes=3)),
                    tmp_path / "ck")
    fileio.write_ppm(tmp_path / "t.ppm", np.zeros((32, 32, 3), np.uint8))
    return ["infer", "--checkpoint", str(tmp_path / "ck"), "--image", str(tmp_path / "t.ppm"),
            "--window", "32"]


def _eval_inputs(tmp_path):
    for name in ("pred", "ref"):
        fileio.write_pgm(tmp_path / f"{name}.pgm", np.eye(4, dtype=np.uint8))
    return ["eval", "--pred", str(tmp_path / "pred.pgm"), "--ref", str(tmp_path / "ref.pgm")]


def _eval_metrics_json_is_a_directory(tmp_path):
    (tmp_path / "o" / "metrics.json").mkdir(parents=True)
    return [*_eval_inputs(tmp_path), "--out", str(tmp_path / "o")]


# JSON values that an integer config field refuses, by section and field
_NOT_INTEGERS = [("data", "size", 64.0), ("data", "size", 6.5), ("data", "n_images", 4.0),
                 ("data", "seed", 1.0), ("data", "shapes_per_class", 3.0),
                 ("data", "max_extent", {"2": 2.5}), ("train", "micro_batch", 2.0),
                 ("train", "max_epochs", 1.5), ("train", "seed", 2.0),
                 ("train", "seed", True), ("train", "aggregate_steps", 1.0),
                 ("train", "plateau_patience", "a"), ("model", "initial_filters", 4.0)]


class TestOneErrorLineBeforeAnyWrite:
    """Bad data, a model/data/split mismatch or a bad flag: one protocol line,
    the exit code of its kind, no traceback; train and lr-find write nothing."""

    @pytest.mark.parametrize("make_argv, kind, code", [
        pytest.param(_entry_without_files("train"), "data", 2, id="train-manifest-entry"),
        *(pytest.param(_run(command, **data), "config", 1, id=f"{command}-{name}")
          for command in ("train", "lr-find")
          for name, data in [("empty-train-part", {"split": [0.0, 0.5, 0.5]}),
                             ("2-images-3-way-split", {"n_images": 2}),
                             ("size-80-for-d6", {"size": 80}),
                             ("split-string", {"split": "abc"}),
                             ("split-non-numeric-entry", {"split": [0.5, "a", 0.5]}),
                             ("split-number", {"split": 5}),
                             ("split-null", {"split": None}),
                             ("split-sum-1.5", {"split": [0.5, 0.5, 0.5]})]),
        pytest.param(_run("train", split=[0.5, 0.0, 0.5]), "config", 1,
                     id="train-empty-val-part"),
        pytest.param(_run("train", "--epochs", "0"), "config", 1, id="train-epochs-0"),
        pytest.param(_run("train", section="train", betas=[1.0, 0.999]), "config", 1,
                     id="train-betas-1"),
        pytest.param(_run("train", section="train", seed=-1), "config", 1,
                     id="train-seed-negative"),
        pytest.param(_run("train", seed=-1), "config", 1, id="train-data-seed-negative"),
        *(pytest.param(_run(command, section="model", depth="d7v1"), "config", 1,
                       id=f"{command}-d7v1-size-64") for command in ("train", "lr-find")),
        # 64 px images leave d7v2 a 1x1 deepest plane; a one-image micro-batch
        # comes from micro_batch 1, or from 3 train images in micro-batches of 2
        *(pytest.param(_run_sections(command, model={"depth": "d7v2"}, **data), "config", 1,
                       id=f"{command}-d7v2-{name}")
          for command in ("train", "lr-find")
          for name, data in [("micro-batch-1", {"train": {"micro_batch": 1}}),
                             ("3-train-images", {"data": {"n_images": 6}})]),
        # every head's pyramid pooling splits initial_filters channels into 4 groups
        *(pytest.param(_run(command, section="model", initial_filters=3), "config", 1,
                       id=f"{command}-filters-3") for command in ("train", "lr-find")),
        pytest.param(_run("lr-find", "--steps", "1"), "config", 1, id="lr-find-steps-1"),
        pytest.param(_run("lr-find", "--lr-lo", "1", "--lr-hi", "0.1"), "config", 1,
                     id="lr-find-reversed-range"),
        pytest.param(_loss_field_grid(1), "config", 1, id="loss-field-grid-1"),
        pytest.param(_loss_field_grid(0), "config", 1, id="loss-field-grid-0"),
        pytest.param(_loss_field_gt("nan,0"), "config", 1, id="loss-field-gt-nan"),
        pytest.param(_loss_field_gt("2,-1"), "config", 1, id="loss-field-gt-outside"),
        pytest.param(_derive_below_largest_class, "data", 2, id="derive-labels-classes-2"),
        *(pytest.param(_run(command, section=section, **{key: value}), "config", 1,
                       id=f"{command}-{section}.{key}-{value!r}")
          for command in ("train", "lr-find") for section, key, value in _NOT_INTEGERS),
        # --out at an existing file, or (loss-field) under one
        *(pytest.param(_out_is_a_file(_run(command)), "data", 2, id=f"{command}-out-is-a-file")
          for command in ("synth", "train")),
        pytest.param(_out_is_a_file(_run("lr-find", "--steps", "3")), "data", 2,
                     id="lr-find-out-is-a-file"),
        pytest.param(_out_is_a_file(lambda tmp_path: ["derive-labels", "--data",
                                                      str(_synth_dataset(tmp_path))]),
                     "data", 2, id="derive-labels-out-is-a-file"),
        pytest.param(_out_is_a_file(_infer_inputs), "data", 2, id="infer-out-is-a-file"),
        pytest.param(_out_is_a_file(_eval_inputs), "data", 2, id="eval-out-is-a-file"),
        pytest.param(_out_is_a_file(lambda tmp_path: ["loss-field", "--loss", "d1"],
                                    out="taken/f.csv"),
                     "data", 2, id="loss-field-out-under-a-file"),
        pytest.param(_eval_metrics_json_is_a_directory, "data", 2,
                     id="eval-metrics-json-is-a-directory"),
    ])
    def test_one_error_line(self, tmp_path, capsys, make_argv, kind, code):
        argv = make_argv(tmp_path)
        capsys.readouterr()
        assert main(argv) == code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f'error kind={kind} msg="'), err
        if argv[0] in ("train", "lr-find"):
            assert not (tmp_path / "run").exists()

    # (module, function) pairs that hold each command's compute
    _INFER = [(evaluate, "sliding_window_inference")]
    _LR_FIND = [(pipeline, "build_records"), (trainer, "lr_finder")]

    @pytest.mark.parametrize("make_argv, computes", [
        pytest.param(_out_is_a_file(_infer_inputs), _INFER, id="infer-out-is-a-file"),
        pytest.param(_out_is_a_file(_infer_inputs, out="taken/sub"), _INFER,
                     id="infer-out-under-a-file"),
        pytest.param(_out_is_a_file(_run("lr-find", "--steps", "3")), _LR_FIND,
                     id="lr-find-out-is-a-file"),
        pytest.param(_out_is_a_file(_run("lr-find", "--steps", "3"), out="taken/sub"),
                     _LR_FIND, id="lr-find-out-under-a-file"),
    ])
    def test_out_refused_before_compute(self, tmp_path, capsys, monkeypatch, make_argv,
                                        computes):
        argv = make_argv(tmp_path)
        for module, name in computes:
            def not_called(*args, name=name, **kwargs):
                pytest.fail(f"{name} ran although --out cannot be a directory")
            monkeypatch.setattr(module, name, not_called)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith('error kind=data msg="'), err

    @pytest.mark.parametrize("gt", ["nan,0", "inf,0", "2,-1"])
    def test_loss_field_bad_gt_writes_nothing(self, tmp_path, gt):
        assert main(_loss_field_gt(gt)(tmp_path)) == 1
        assert not (tmp_path / "run").exists()


class TestFlagErrors:
    """A bad or missing flag, or no command, is one config line with exit 1,
    not argparse's usage block and exit 2; --help still exits 0."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["train", "--config", "c.json", "--model", "d9"], id="train-model-d9"),
        pytest.param(["infer", "--checkpoint", "ck", "--image", "t.ppm", "--out", "o",
                      "--window", "abc"], id="infer-window-abc"),
        pytest.param(["eval", "--pred", "p.pgm", "--ref", "r.pgm"], id="eval-without-out"),
        pytest.param(["segment"], id="unknown-command"),
        pytest.param([], id="no-command"),
    ])
    def test_one_config_line(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith('error kind=config msg="atrousseg'), err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0 and "--config" in capsys.readouterr().out

    def test_every_command_declares_its_kind(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert sub.choices
        for name, parser in sub.choices.items():
            assert callable(parser.get_default("func")), name
            assert parser.get_default("kind") in ("config", "data"), name


class TestPrepareRecords:
    """A one-image micro-batch whose deepest plane is 1x1 is refused up front:
    train-mode batch norm would see one value per channel there."""

    @pytest.mark.parametrize("depth, side, micro_batch, n_images, refused", [
        ("d6", 32, 2, 6, True),      # 3 train images: remainder 1
        ("d6", 32, 2, 4, False),     # 2 train images: one full micro-batch
        ("d6", 32, 1, 4, True),
        ("d6", 64, 1, 4, False),     # deepest plane 2x2
        ("d7v2", 64, 3, 8, True),    # 4 train images: remainder 1
        ("d7v2", 64, 3, 6, False),   # 3 train images: one full micro-batch
        ("d7v2", 128, 1, 4, False),
    ])
    def test_one_image_micro_batch_at_1x1(self, tmp_path, depth, side, micro_batch,
                                          n_images, refused):
        cfg = load_config(write_config(tmp_path))
        cfg = dataclasses.replace(
            cfg, model=dataclasses.replace(cfg.model, depth=depth),
            train=dataclasses.replace(cfg.train, micro_batch=micro_batch))
        rng = np.random.default_rng(0)
        records = [derive_record(rng.random((3, side, side)), rng.integers(0, 3, (side, side)), 3)
                   for _ in range(n_images)]
        if refused:
            with pytest.raises(ValueError, match="one-image micro-batch"):
                pipeline.prepare_records(cfg, records)
        else:
            pipeline.prepare_records(cfg, records)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One small end-to-end training run shared by the pipeline tests."""
    tmp_path = tmp_path_factory.mktemp("cli_train")
    cfg = write_config(tmp_path)
    code = main(["train", "--config", str(cfg)])
    assert code == 0
    return tmp_path


class TestTrainPipeline:
    def test_artifacts(self, trained_run):
        run = trained_run / "run"
        history = (run / "history.csv").read_text().strip().splitlines()
        assert history[0] == "epoch,train_loss,val_loss,val_mcc,lr"
        assert len(history) == 3  # header + 2 epochs
        summary = json.loads((run / "summary.json").read_text())
        assert summary["epochs_run"] == 2
        assert not summary["halted"]
        assert summary["param_count"] > 0
        manifest = json.loads((run / "checkpoint" / "manifest.json").read_text())
        assert manifest["format"] == "nct1"

    def test_summary_reports_the_restored_best_epoch(self, trained_run):
        summary = json.loads((trained_run / "run" / "summary.json").read_text())
        assert summary["final_val_loss"] == summary["best_val_loss"]

    def test_unvalidated_run_writes_null_metrics(self, tmp_path, monkeypatch):
        # a run that halts in epoch 0 has no validated epoch to report
        cfg = load_config(write_config(tmp_path))
        records = pipeline.build_records(cfg.data)
        halted = TrainResult(history=[], best_epoch=-1, best_val_loss=float("inf"),
                             halted=True)
        monkeypatch.setattr(pipeline, "train", lambda *args: halted)
        pipeline.run_training(cfg, records[:2], records[2:])

        def reject(constant):
            raise ValueError(f"{constant} is not valid JSON")

        summary = json.loads((tmp_path / "run" / "summary.json").read_text(),
                             parse_constant=reject)
        assert [summary[k] for k in ("best_val_loss", "final_val_loss", "final_val_mcc")] \
            == [None, None, None]

    def test_snapshot_rerun_reproduces_history(self, trained_run):
        run = trained_run / "run"
        rerun_out = trained_run / "rerun"
        code = main(["train", "--config", str(run / "config.json"),
                     "--out", str(rerun_out)])
        assert code == 0
        assert (rerun_out / "history.csv").read_text() == \
            (run / "history.csv").read_text()

    def test_infer_then_eval(self, trained_run, capsys):
        run = trained_run / "run"
        # reuse a training scene as the inference tile
        ds = trained_run / "ds"
        cfg = write_config(trained_run, out_dir=str(ds))
        main(["synth", "--config", str(cfg)])
        capsys.readouterr()

        out = trained_run / "infer"
        code = main(["infer", "--checkpoint", str(run / "checkpoint"),
                     "--image", str(ds / "scene_0000.ppm"),
                     "--out", str(out), "--window", "64"])
        assert code == 0
        probs = fileio.read_nct(out / "probabilities.nct")
        assert probs.shape == (3, 64, 64)
        assert np.allclose(probs.sum(axis=0), 1.0, atol=1e-5)
        pred = fileio.read_pgm(out / "prediction.pgm")
        assert pred.shape == (64, 64)
        assert (pred == probs.argmax(axis=0)).all()
        capsys.readouterr()

        code = main(["eval", "--pred", str(out / "prediction.pgm"),
                     "--ref", str(ds / "scene_0000.pgm"),
                     "--out", str(trained_run / "metrics")])
        assert code == 0
        overall = json.loads(capsys.readouterr().out)
        assert 0.0 <= overall["oa"] <= 1.0

    def test_corrupt_checkpoint_is_numeric_error(self, trained_run, capsys):
        run = trained_run / "run"
        import shutil
        broken = trained_run / "broken_ckpt"
        shutil.copytree(run / "checkpoint", broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        victim = sorted(manifest["tensors"].values())[0]
        arr = fileio.read_nct(broken / victim)
        fileio.write_nct(broken / victim, np.full_like(arr, np.nan))

        tile = trained_run / "corrupt_tile.ppm"
        fileio.write_ppm(tile, np.random.default_rng(0).integers(0, 256, (64, 64, 3)))
        code = main(["infer", "--checkpoint", str(broken), "--image", str(tile),
                     "--out", str(trained_run / "x"), "--window", "64"])
        assert code == 3
        kind, msg = stderr_error(capsys)
        assert kind == "numeric" and "non-finite" in msg


class TestLrFind:
    def test_curve_and_suggestion(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "sweep"
        code = main(["lr-find", "--config", str(cfg), "--out", str(out),
                     "--steps", "12", "--lr-lo", "1e-5", "--lr-hi", "1e-1"])
        assert code == 0
        assert "suggested lr" in capsys.readouterr().out
        curve = (out / "lr_curve.csv").read_text().strip().splitlines()
        assert curve[0] == "lr,loss,smoothed"
        assert len(curve) == 13
        doc = json.loads((out / "lr_suggestion.json").read_text())
        assert not doc["diverged"]
        assert doc["suggestion"] > 0

    def test_manifest_entry_without_files_is_data_error(self, tmp_path, capsys):
        assert main(_entry_without_files("lr-find")(tmp_path)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith('error kind=data msg="')
        assert not (tmp_path / "run").exists()

    def test_empty_val_part_is_accepted(self, tmp_path, capsys):
        argv = _run("lr-find", "--steps", "3", split=[0.5, 0.0, 0.5])(tmp_path)
        assert main(argv) == 0
        assert len((tmp_path / "run" / "lr_curve.csv").read_text().splitlines()) == 4
