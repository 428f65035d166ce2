"""Strict JSON config parsing, flag overrides, and snapshot round-trips."""

import json

import pytest

from atrousseg.augment import AugmentConfig
from atrousseg.config import (RunConfig, apply_overrides, load_config,
                              parse_config, snapshot, write_snapshot)


def full_document():
    return {
        "model": {"depth": "d6", "initial_filters": 8, "n_classes": 3,
                  "input_channels": 3, "head": "cmtsk"},
        "train": {"lr": 0.01, "betas": [0.9, 0.99], "micro_batch": 2,
                  "max_epochs": 5, "seed": 3, "loss_id": "d1"},
        "data": {"kind": "synthetic", "size": 64, "n_classes": 3,
                 "n_images": 4, "seed": 1, "split": [0.5, 0.25, 0.25],
                 "max_extent": {"2": 5}},
        "augment": {"scale_range": [0.8, 1.2], "flip_prob": 0.25},
        "out_dir": "runs/demo",
    }


class TestParse:
    def test_empty_document_gives_defaults(self):
        cfg = parse_config({})
        assert cfg.model.depth == "d6"
        assert cfg.train.loss_id == "tanimoto-complement"
        assert cfg.augment is None
        assert cfg.out_dir == "runs/out"

    def test_full_document(self):
        cfg = parse_config(full_document())
        assert cfg.model.head == "cmtsk"
        assert cfg.train.betas == (0.9, 0.99)          # list coerced to tuple
        assert cfg.data.split == (0.5, 0.25, 0.25)
        assert cfg.data.max_extent == {2: 5}           # keys back to ints
        assert cfg.augment == AugmentConfig(scale_range=(0.8, 1.2),
                                            flip_prob=0.25)

    def test_null_augment_section(self):
        assert parse_config({"augment": None}).augment is None

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="top-level"):
            parse_config({"modle": {}})

    def test_unknown_section_key_lists_allowed(self):
        with pytest.raises(ValueError, match="unknown keys.*'train'.*learning_rate"):
            parse_config({"train": {"learning_rate": 0.1}})

    def test_augment_seed_is_not_a_key(self):
        with pytest.raises(ValueError, match="unknown keys.*'augment'.*seed"):
            parse_config({"augment": {"seed": 1}})

    def test_scene_spec_follows_data_section(self):
        data = parse_config(full_document()).data
        spec = data.scene_spec()
        assert (spec.size, spec.n_classes, spec.n_images, spec.seed) == (64, 3, 4, 1)
        assert spec.max_extent == {2: 5} and spec.max_extent is not data.max_extent

    def test_runtime_only_field_rejected_in_file(self):
        with pytest.raises(ValueError, match="augment"):
            parse_config({"train": {"augment": {}}})

    def test_section_must_be_object(self):
        with pytest.raises(ValueError, match="must be an object"):
            parse_config({"train": 3})

    def test_root_must_be_object(self):
        with pytest.raises(ValueError, match="root"):
            parse_config([1, 2])

    def test_bad_out_dir(self):
        with pytest.raises(ValueError, match="out_dir"):
            parse_config({"out_dir": ""})

    def test_section_values_validated_by_dataclass(self):
        with pytest.raises(ValueError, match="loss id"):
            parse_config({"train": {"loss_id": "jaccard"}})

    @pytest.mark.parametrize("split", [[0.5, 0.5, 0.5], [0.5, "a", 0.5], "abc", None])
    def test_split_checked_before_any_data_is_read(self, split):
        # the directory is never opened: the split fails at parse time
        with pytest.raises(ValueError, match="data.split"):
            parse_config({"data": {"kind": "directory", "path": "missing", "split": split}})


class TestLoad:
    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(full_document()))
        cfg = load_config(path)
        assert cfg.train.max_epochs == 5

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="config file"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_config(path)

    def test_directory_kind_requires_existing_dataset(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(
            {"data": {"kind": "directory", "path": str(tmp_path / "ds")}}))
        with pytest.raises(FileNotFoundError, match="dataset directory"):
            load_config(path)
        (tmp_path / "ds").mkdir()
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_config(path)

    def test_directory_kind_requires_path(self):
        with pytest.raises(ValueError, match="requires data.path"):
            parse_config({"data": {"kind": "directory"}})


class TestOverrides:
    def test_flags_win(self):
        cfg = parse_config(full_document())
        out = apply_overrides(cfg, seed=99, epochs=50, model="d7v1",
                              head="mtsk", loss="tanimoto", out_dir="runs/x")
        assert out.train.seed == 99
        assert out.train.max_epochs == 50
        assert out.model.depth == "d7v1" and out.model.head == "mtsk"
        assert out.train.loss_id == "tanimoto"
        assert out.out_dir == "runs/x"
        # untouched fields carried over
        assert out.train.lr == cfg.train.lr
        assert out.augment == cfg.augment
        assert cfg.train.seed == 3  # original untouched

    def test_none_changes_nothing(self):
        cfg = parse_config(full_document())
        out = apply_overrides(cfg)
        assert out.model == cfg.model and out.train == cfg.train
        assert out.out_dir == cfg.out_dir

    def test_bad_values_rejected(self):
        cfg = parse_config({})
        with pytest.raises(ValueError, match="depth"):
            apply_overrides(cfg, model="d8")
        with pytest.raises(ValueError, match="head"):
            apply_overrides(cfg, head="quad")


class TestSnapshot:
    def test_snapshot_is_reloadable(self):
        cfg = parse_config(full_document())
        doc = snapshot(cfg)
        json.dumps(doc)  # must be serializable as-is
        again = parse_config(doc)
        assert again == cfg

    def test_split_values_keep_their_type(self):
        doc = snapshot(parse_config({"data": {"split": [1, 0, 0]}}))
        assert json.dumps(doc["data"]["split"]) == "[1, 0, 0]"

    def test_snapshot_survives_default_config(self):
        cfg = RunConfig()
        assert parse_config(snapshot(cfg)) == cfg

    def test_write_snapshot_sorted_keys(self, tmp_path):
        path = tmp_path / "config.json"
        write_snapshot(parse_config(full_document()), path)
        doc = json.loads(path.read_text())
        assert list(doc) == sorted(doc)
        assert parse_config(doc).train.max_epochs == 5
