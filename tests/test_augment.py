"""Warp and flip behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from atrousseg.augment import (AugmentConfig, _affine_warp, augment_record,
                               random_affine, random_flip)
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

