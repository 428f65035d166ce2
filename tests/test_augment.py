"""Warp/flip behavior and the patch-split bookkeeping guarantees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from atrousseg.augment import (AugmentConfig, PatchRef, _affine_warp,
                               augment_record, extract_patches, patch_grid,
                               random_affine, random_flip, split_dataset)
from atrousseg.labels import derive_record, one_hot


@pytest.fixture
def record(rng):
    image = rng.random((3, 32, 32)).astype(np.float32)
    mask = rng.integers(0, 3, (32, 32))
    return derive_record(image, mask, 3)


class TestAffine:
    def test_identity(self, record):
        out = _affine_warp(record, 0.0, (11.0, 23.0), 1.0)
        assert np.allclose(out.image, record.image, atol=1e-6)
        assert (out.mask == record.mask).all()

    def test_half_turn_is_point_reflection(self, record):
        c = (15.5, 15.5)
        once = _affine_warp(record, 180.0, c, 1.0)
        assert (once.mask == record.mask[::-1, ::-1]).all()
        twice = _affine_warp(once, 180.0, c, 1.0)
        assert (twice.mask == record.mask).all()

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_no_new_labels(self, seed):
        rng = np.random.default_rng(7)
        rec = derive_record(rng.random((3, 24, 24)).astype(np.float32),
                            rng.integers(0, 3, (24, 24)), 3)
        out = random_affine(rec, AugmentConfig(), np.random.default_rng(seed))
        assert set(np.unique(out.mask)) <= set(np.unique(rec.mask))

    def test_shapes_never_change(self, record):
        out = random_affine(record, AugmentConfig(), np.random.default_rng(3))
        for field in ("image", "mask", "onehot", "boundary", "distance", "hsv"):
            assert getattr(out, field).shape == getattr(record, field).shape

    def test_derived_channels_rederived(self, record):
        out = random_affine(record, AugmentConfig(), np.random.default_rng(3))
        again = derive_record(out.image, out.mask, 3)
        assert (out.boundary == again.boundary).all()
        assert np.allclose(out.distance, again.distance)

    def test_reproducible_under_seed(self, record):
        cfg = AugmentConfig()
        a = augment_record(record, cfg, np.random.default_rng(99))
        b = augment_record(record, cfg, np.random.default_rng(99))
        assert (a.image == b.image).all() and (a.mask == b.mask).all()

    @pytest.mark.parametrize("angle,scale", [(0.0, 1.0), (37.0, 0.8), (200.0, 1.25),
                                             (333.3, 1.0)])
    def test_image_equals_float64_round_trip(self, rng, angle, scale):
        rec = derive_record(rng.random((4, 24, 20)).astype(np.float32),
                            rng.integers(0, 3, (24, 20)), 3)
        center = (9.3, 12.6)
        out = _affine_warp(rec, angle, center, scale)
        theta = np.deg2rad(angle)
        matrix = np.array([[np.cos(theta), -np.sin(theta)],
                           [np.sin(theta), np.cos(theta)]]) / scale
        offset = np.asarray(center) - matrix @ np.asarray(center)
        want = np.stack([
            ndimage.affine_transform(ch.astype(np.float64), matrix, offset=offset,
                                     order=1, mode="mirror")
            for ch in rec.image
        ]).astype(np.float32)
        assert out.image.dtype == np.float32 and out.image.shape == (4, 24, 20)
        assert out.image.tobytes() == want.tobytes()


class TestFlip:
    def test_p_zero_is_identity(self, record):
        assert random_flip(record, np.random.default_rng(0), p=0.0) is record

    def test_double_flip_restores(self, record):
        once = random_flip(record, np.random.default_rng(1), p=1.0)
        twice = random_flip(once, np.random.default_rng(2), p=1.0)
        assert (twice.mask == record.mask).all()
        assert np.allclose(twice.image, record.image)

    def test_flip_commutes_with_one_hot(self, rng):
        mask = rng.integers(0, 4, (10, 10))
        rec = derive_record(rng.random((3, 10, 10)).astype(np.float32), mask, 4)
        flipped = random_flip(rec, np.random.default_rng(5), p=1.0)
        assert (flipped.onehot == one_hot(flipped.mask, 4)).all()


class TestAugmentConfig:
    def test_defaults(self):
        cfg = AugmentConfig()
        assert cfg.scale_range == (0.75, 1.33) and cfg.flip_prob == 0.5

    @pytest.mark.parametrize("kw", [
        {"scale_range": (0.0, 1.0)}, {"scale_range": (2.0, 1.0)},
        {"flip_prob": 1.5}, {"flip_prob": -0.1}])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            AugmentConfig(**kw)


class TestPatches:
    def test_offset_enumeration(self):
        offs = patch_grid(512, 512, size=256, stride=128)
        assert len(offs) == 9
        assert offs[0] == (0, 0) and offs[-1] == (256, 256)

    def test_exact_fit_single_patch(self):
        assert patch_grid(256, 256) == [(0, 0)]

    def test_adjacent_overlap(self):
        offs = patch_grid(512, 256, size=256, stride=128)
        rows = [r for r, _ in offs]
        assert rows == [0, 128, 256]  # each overlaps the next by 128 rows

    def test_undersized_tile_rejected(self):
        with pytest.raises(ValueError, match="smaller"):
            patch_grid(200, 512)

    def test_extract_concrete_windows(self, rng):
        tile = rng.random((2, 384, 384))
        patches = extract_patches(tile, size=256, stride=128)
        assert len(patches) == 4
        assert patches[0].shape == (2, 256, 256)
        assert (patches[-1] == tile[:, 128:, 128:]).all()


class TestSplit:
    def test_ten_groups_eight_one_one(self):
        patches = [PatchRef(t, 0, 0, 256) for t in range(10)]
        tr, va, te = split_dataset(patches, seed=4)
        assert (len(tr), len(va), len(te)) == (8, 1, 1)

    def test_deterministic(self):
        patches = [PatchRef(t, 0, 0, 64) for t in range(12)]
        assert split_dataset(patches, seed=9) == split_dataset(patches, seed=9)

    def test_footprints_disjoint(self):
        patches = [PatchRef(t, r, c, 256)
                   for t in range(5) for r, c in patch_grid(512, 512)]
        tr, va, te = split_dataset(patches, seed=1)

        def pixels(split):
            out = set()
            for p in split:
                out.update((p.tile_id, i, j)
                           for i in range(p.row, p.row + p.size, 64)
                           for j in range(p.col, p.col + p.size, 64))
            return out

        assert not pixels(tr) & pixels(va)
        assert not pixels(va) & pixels(te)
        assert not pixels(tr) & pixels(te)
        assert len(tr) + len(va) + len(te) == len(patches)

    def test_overlapping_patches_travel_together(self):
        # stride < size keeps all of a tile's patches in one group
        patches = [PatchRef(0, r, c, 256) for r, c in patch_grid(512, 512)]
        tr, va, te = split_dataset(patches + [PatchRef(1, 0, 0, 256),
                                              PatchRef(2, 0, 0, 256)], seed=0)
        tile0 = [p.tile_id == 0 for p in tr + va + te]
        for split in (tr, va, te):
            ids = {p.tile_id for p in split}
            assert not ({0} < ids and len([p for p in split if p.tile_id == 0]) < 9)
        assert sum(tile0) == 9

    def test_too_few_groups_rejected(self):
        with pytest.raises(ValueError, match="groups"):
            split_dataset([PatchRef(0, 0, 0, 64), PatchRef(1, 0, 0, 64)])

    def test_ratio_validation(self):
        patches = [PatchRef(t, 0, 0, 64) for t in range(5)]
        with pytest.raises(ValueError, match="ratios"):
            split_dataset(patches, ratios=(0.5, 0.5, 0.5))
