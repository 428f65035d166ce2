"""Synthetic scene generator: determinism, shape replay, class balance,
and dataset round-trips."""

import json

import numpy as np
import pytest

from atrousseg.synth import Scene, SceneSpec, generate, load_dataset, write_dataset


def replay_mask(size, shapes):
    """Re-draw a scene's mask from its recorded shape list."""
    mask = np.zeros((size, size), dtype=np.int64)
    for class_id, kind, params in shapes:
        if kind == "background":
            continue
        if kind == "rect":
            r, c, rh, rw = params
            mask[r:r + rh, c:c + rw] = class_id
        elif kind == "disk":
            cy, cx, rad = params
            yy, xx = np.ogrid[:size, :size]
            mask[(yy - cy) ** 2 + (xx - cx) ** 2 <= rad * rad] = class_id
        elif kind == "stripe":
            axis, pos, thick = params
            if axis == "h":
                mask[pos:pos + thick, :] = class_id
            else:
                mask[:, pos:pos + thick] = class_id
        else:
            raise AssertionError(f"unexpected kind {kind}")
    return mask


class TestSceneSpec:
    @pytest.mark.parametrize("kw", [
        {"size": 32}, {"n_classes": 2}, {"channels": 5}, {"n_images": 0},
        {"shapes_per_class": 0}, {"seed": -1}])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            SceneSpec(**kw)

    def test_defaults(self):
        spec = SceneSpec()
        assert spec.size == 96 and spec.channels == 3


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate(SceneSpec(n_images=3, seed=42))
        b = generate(SceneSpec(n_images=3, seed=42))
        for sa, sb in zip(a, b):
            assert (sa.image == sb.image).all()
            assert (sa.mask == sb.mask).all()
            assert sa.shapes == sb.shapes
        c = generate(SceneSpec(n_images=3, seed=43))
        assert any((sa.mask != sc.mask).any() for sa, sc in zip(a, c))

    def test_basic_invariants(self):
        spec = SceneSpec(size=64, n_classes=4, n_images=4, seed=7)
        for scene in generate(spec):
            assert scene.image.shape == (3, 64, 64)
            assert scene.image.dtype == np.float32
            assert 0.0 <= scene.image.min() and scene.image.max() <= 1.0
            assert scene.mask.shape == (64, 64)
            assert set(np.unique(scene.mask)) <= set(range(4))
            assert len(np.unique(scene.mask)) >= 2

    def test_shape_list_replays_mask_exactly(self):
        spec = SceneSpec(size=96, n_classes=5, n_images=6, seed=3,
                         max_extent={2: 7})
        for scene in generate(spec):
            assert (replay_mask(96, scene.shapes) == scene.mask).all()

    def test_capped_class_stays_rare(self):
        spec = SceneSpec(size=96, n_classes=4, n_images=8, seed=0,
                         max_extent={3: 5})
        fractions = [float((s.mask == 3).mean()) for s in generate(spec)]
        assert max(fractions) < 0.02

    def test_height_channel_separates_last_class(self):
        spec = SceneSpec(size=64, channels=4, n_classes=3, n_images=3, seed=9)
        for scene in generate(spec):
            assert scene.image.shape[0] == 4
            height = scene.image[3]
            on = scene.mask == 2
            if on.any() and (~on).any():
                assert height[on].mean() > 0.6
                assert height[~on].mean() < 0.35

    def test_colors_shared_across_scenes(self):
        # Class colors are drawn once per dataset, so the mean color of a
        # class region should agree between scenes (up to pixel noise).
        scenes = generate(SceneSpec(size=96, n_classes=3, n_images=4, seed=1))
        per_scene = []
        for scene in scenes:
            on = scene.mask == 1
            if on.sum() > 30:
                per_scene.append(scene.image[:3, on].mean(axis=1))
        assert len(per_scene) >= 2
        spread = np.ptp(np.stack(per_scene), axis=0)
        assert (spread < 0.05).all()


class TestDatasetIo:
    def test_rgb_round_trip_is_lossy_only_by_quantization(self, tmp_path):
        scenes = generate(SceneSpec(size=64, n_images=2, seed=5))
        write_dataset(scenes, tmp_path, spec=SceneSpec(size=64, n_images=2, seed=5))
        pairs = load_dataset(tmp_path)
        assert len(pairs) == 2
        for scene, (image, mask) in zip(scenes, pairs):
            assert (mask == scene.mask).all()
            assert image.dtype == np.float32
            assert np.abs(image - scene.image).max() <= 0.5 / 255.0 + 1e-6

    def test_four_channel_round_trip_is_exact(self, tmp_path):
        spec = SceneSpec(size=64, channels=4, n_images=2, seed=5)
        scenes = generate(spec)
        write_dataset(scenes, tmp_path, spec=spec)
        pairs = load_dataset(tmp_path)
        for scene, (image, mask) in zip(scenes, pairs):
            assert image.shape == (4, 64, 64)
            assert (image == scene.image).all()
            assert (mask == scene.mask).all()

    def test_manifest_records_spec(self, tmp_path):
        import json
        spec = SceneSpec(size=64, n_images=1, seed=12, max_extent={2: 6})
        write_dataset(generate(spec), tmp_path, spec=spec)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["n_images"] == 1
        assert manifest["spec"]["seed"] == 12
        assert manifest["spec"]["max_extent"] == {"2": 6}

    def test_write_without_spec_still_loads(self, tmp_path):
        scenes = generate(SceneSpec(size=64, n_images=1, seed=2))
        write_dataset(scenes, tmp_path)
        assert len(load_dataset(tmp_path)) == 1

    def test_manifest_without_entries_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"n_images": 1}')
        with pytest.raises(ValueError, match="manifest.json.*entries"):
            load_dataset(tmp_path)

    def test_entries_not_a_list_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"entries": {}}')
        with pytest.raises(ValueError, match="manifest.json.*'entries' list"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("entries, bad", [
        ([{}], 0),
        ([3], 0),
        ([{"image": "scene_0000.ppm"}], 0),
        ([{"image": "scene_0000.ppm", "mask": "scene_0000.pgm"}, {"mask": "scene_0000.pgm"}], 1),
        ([{"image": 1, "mask": "scene_0000.pgm"}], 0),
        ([{"image": "scene_0000.ppm", "mask": "scene_0000.pgm", "tensor": None}], 0),
    ])
    def test_malformed_entry_rejected(self, tmp_path, entries, bad):
        write_dataset(generate(SceneSpec(size=64, n_images=1, seed=2)), tmp_path)
        (tmp_path / "manifest.json").write_text(json.dumps({"entries": entries}))
        with pytest.raises(ValueError, match=rf"manifest.json.*entry {bad}\b"):
            load_dataset(tmp_path)
