"""Ground-truth derivation oracles: hand enumerations, brute-force boundary
and distance scans, color round-trips, a byte digest of derived scenes, and
the two-thread per-plane helper."""

import concurrent.futures
import hashlib
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from atrousseg import augment, labels, synth
from atrousseg.labels import (PARALLEL_MIN_PX, derive_record, for_each_plane, get_boundary, get_distance,
                              hsv_to_rgb, one_hot, rgb_to_hsv)

CROSS = ((-1, 0), (1, 0), (0, -1), (0, 1))


def brute_force_boundary(mask: np.ndarray) -> np.ndarray:
    """Per-pixel loops: on-pixels with an off 4-neighbor (the frame border
    counts as off), then one dilation with the 3x3 cross."""
    m = np.asarray(mask).astype(bool)
    h, w = m.shape

    def inside(i, j):
        return 0 <= i < h and 0 <= j < w

    edge = np.zeros((h, w), dtype=bool)
    for i in range(h):
        for j in range(w):
            edge[i, j] = m[i, j] and not all(
                inside(i + di, j + dj) and m[i + di, j + dj] for di, dj in CROSS)
    out = np.zeros((h, w), dtype=np.uint8)
    for i in range(h):
        for j in range(w):
            out[i, j] = edge[i, j] or any(
                inside(i + di, j + dj) and edge[i + di, j + dj] for di, dj in CROSS)
    return out


def brute_force_distance(mask: np.ndarray) -> np.ndarray:
    """O(N^2 M) nearest-off-pixel scan; the frame border counts as off."""
    m = np.asarray(mask).astype(bool)
    h, w = m.shape
    offs = np.argwhere(~m)
    out = np.zeros((h, w), dtype=np.float64)
    for i in range(h):
        for j in range(w):
            if not m[i, j]:
                continue
            best = min(i + 1, j + 1, h - i, w - j) ** 2
            if len(offs):
                d2 = ((offs[:, 0] - i) ** 2 + (offs[:, 1] - j) ** 2).min()
                best = min(best, int(d2))
            out[i, j] = np.sqrt(float(best))
    return out


def where_chain_hsv(image) -> np.ndarray:
    """RGB -> HSV by three full-plane np.where passes on a float64 copy; the
    hue owner ranks red, then green, then blue."""
    img = np.asarray(image, dtype=np.float64)
    r, g, b = img
    maxc = np.max(img, axis=0)
    minc = np.min(img, axis=0)
    delta = maxc - minc
    safe = np.where(delta > 0, delta, 1.0)
    h = np.zeros_like(maxc)
    h = np.where((maxc == r) & (delta > 0), ((g - b) / safe) % 6.0, h)
    h = np.where((maxc == g) & (delta > 0) & (maxc != r), (b - r) / safe + 2.0, h)
    h = np.where((maxc == b) & (delta > 0) & (maxc != r) & (maxc != g),
                 (r - g) / safe + 4.0, h)
    h = h / 6.0
    s = np.where(maxc > 0, delta / np.where(maxc > 0, maxc, 1.0), 0.0)
    return np.stack([h, s, maxc])


class TestOneHot:
    def test_constant_mask(self):
        oh = one_hot(np.zeros((3, 3), dtype=int), 4)
        assert (oh[0] == 1).all() and (oh[1:] == 0).all()

    def test_round_trip(self, rng):
        m = rng.integers(0, 5, (6, 7))
        assert (one_hot(m, 5).argmax(axis=0) == m).all()

    def test_channel_sums_count_pixels(self, rng):
        m = rng.integers(0, 3, (4, 4))
        oh = one_hot(m, 3)
        for k in range(3):
            assert oh[k].sum() == (m == k).sum()

    def test_sums_to_one_per_pixel(self, rng):
        oh = one_hot(rng.integers(0, 4, (5, 5)), 4)
        assert (oh.sum(axis=0) == 1).all()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="class ids"):
            one_hot(np.array([[0, 3]]), 3)
        with pytest.raises(ValueError):
            one_hot(np.array([[-1, 0]]), 3)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            one_hot(np.zeros((2, 2)), 3)


class TestBoundary:
    def test_all_zero(self):
        assert (get_boundary(np.zeros((5, 5), dtype=int)) == 0).all()

    def test_all_one_six_by_six(self):
        # Border counts as off, so the outer ring is boundary; one cross
        # dilation then reaches one pixel further in, leaving a 2x2 hole.
        b = get_boundary(np.ones((6, 6), dtype=int))
        expected = np.ones((6, 6), dtype=np.uint8)
        expected[2:4, 2:4] = 0
        assert (b == expected).all()

    def test_single_pixel_becomes_cross(self):
        m = np.zeros((5, 5), dtype=int)
        m[2, 2] = 1
        b = get_boundary(m)
        expected = np.zeros((5, 5), dtype=np.uint8)
        expected[2, 1:4] = 1
        expected[1:4, 2] = 1
        assert (b == expected).all()

    def test_detection_is_a_fixed_property(self, rng):
        # The 4-neighbourhood, the cross dilation and the off border look the
        # same from every side, so the boundary commutes with the 8 rotations
        # and flips of the mask; a rule that skips one neighbour or one shift
        # does not.
        block = np.zeros((9, 11), dtype=int)
        block[1:5, 2:9] = 1
        masks = [block] + [(rng.random(shape) < p).astype(int)
                           for shape, p in [((12, 12), 0.5), ((7, 10), 0.85), ((1, 6), 0.7)]]
        for m in masks:
            b = get_boundary(m)
            for flip in (False, True):
                for k in range(4):
                    def turn(a):
                        return np.rot90(a.T if flip else a, k)
                    assert np.array_equal(get_boundary(turn(m)), turn(b)), (m, flip, k)

    def test_binary_output(self, rng):
        b = get_boundary((rng.random((9, 9)) > 0.4).astype(int))
        assert set(np.unique(b)) <= {0, 1}

    def test_matches_brute_force_exactly(self, rng):
        for _ in range(60):
            h, w = rng.integers(1, 20, 2)
            m = (rng.random((h, w)) < rng.uniform(0.1, 0.95)).astype(int)
            b = get_boundary(m)
            assert b.dtype == np.uint8
            assert np.array_equal(b, brute_force_boundary(m))


class TestDistance:
    def test_all_zero(self):
        assert (get_distance(np.zeros((4, 4), dtype=int)) == 0).all()

    def test_centered_block_hand_values(self):
        m = np.zeros((5, 5), dtype=int)
        m[1:4, 1:4] = 1
        raw = get_distance(m, normalize=False)
        assert raw[2, 2] == 2.0
        assert raw[1, 2] == 1.0 and raw[2, 1] == 1.0
        norm = get_distance(m)
        assert norm[2, 2] == 1.0
        assert norm[1, 2] == 0.5 and norm[3, 2] == 0.5

    def test_positive_iff_on_pixel(self, rng):
        m = (rng.random((10, 10)) > 0.5).astype(int)
        raw = get_distance(m, normalize=False)
        assert ((raw > 0) == (m == 1)).all()

    def test_matches_brute_force_exactly(self, rng):
        for _ in range(25):
            m = (rng.random((16, 16)) < rng.uniform(0.2, 0.9)).astype(int)
            assert (get_distance(m, normalize=False) == brute_force_distance(m)).all()

    def test_all_on_has_interior_plateau(self):
        d = get_distance(np.ones((7, 7), dtype=int), normalize=False)
        assert d.argmax() == 3 * 7 + 3  # most interior pixel

    # The transform runs on the on-pixels' bounding box inside one off ring;
    # these planes put that box against each side and corner of the frame.
    @pytest.mark.parametrize("shape, boxes", [
        pytest.param((12, 9), [(0, 4, 2, 6)], id="top"),
        pytest.param((12, 9), [(8, 12, 2, 6)], id="bottom"),
        pytest.param((12, 9), [(3, 8, 0, 3)], id="left"),
        pytest.param((12, 9), [(3, 8, 6, 9)], id="right"),
        pytest.param((12, 9), [(0, 4, 0, 3)], id="top-left"),
        pytest.param((12, 9), [(0, 4, 5, 9)], id="top-right"),
        pytest.param((12, 9), [(7, 12, 0, 3)], id="bottom-left"),
        pytest.param((12, 9), [(7, 12, 5, 9)], id="bottom-right"),
        pytest.param((12, 9), [(1, 4, 1, 3), (8, 11, 5, 8)], id="two-blobs"),
        pytest.param((12, 9), [(5, 6, 4, 5)], id="single-pixel"),
        pytest.param((12, 9), [(0, 1, 8, 9)], id="single-corner-pixel"),
        pytest.param((12, 9), [(0, 12, 0, 9)], id="full"),
        pytest.param((12, 9), [], id="empty"),
        pytest.param((1, 9), [(0, 1, 2, 7)], id="1xN"),
        pytest.param((9, 1), [(2, 9, 0, 1)], id="Nx1"),
        pytest.param((1, 9), [(0, 1, 0, 9)], id="1xN-full"),
        pytest.param((1, 1), [(0, 1, 0, 1)], id="1x1-on"),
        pytest.param((1, 1), [], id="1x1-off"),
    ])
    def test_crop_edge_cases_match_brute_force(self, shape, boxes):
        m = np.zeros(shape, dtype=bool)
        for r0, r1, c0, c1 in boxes:
            m[r0:r1, c0:c1] = True
        ref = brute_force_distance(m)
        raw = get_distance(m, normalize=False)
        assert raw.dtype == np.float64 and np.array_equal(raw, ref)
        lo, hi = ref.min(), ref.max()
        norm = (ref - lo) / (hi - lo) if hi > lo else np.zeros_like(ref)
        assert np.array_equal(get_distance(m), norm)


class TestColor:
    @pytest.mark.parametrize("rgb,hsv", [
        ((1.0, 0.0, 0.0), (0.0, 1.0, 1.0)),
        ((0.0, 1.0, 0.0), (1 / 3, 1.0, 1.0)),
        ((0.0, 0.0, 1.0), (2 / 3, 1.0, 1.0)),
        ((0.5, 0.5, 0.5), (0.0, 0.0, 0.5)),
    ])
    def test_known_conversions(self, rgb, hsv):
        img = np.array(rgb).reshape(3, 1, 1)
        assert np.allclose(rgb_to_hsv(img).ravel(), hsv, atol=1e-12)

    @given(arrays(np.float64, (3, 4, 5), elements=st.floats(0.0, 1.0)))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, img):
        back = hsv_to_rgb(rgb_to_hsv(img))
        assert np.abs(back - img).max() < 1e-6

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            rgb_to_hsv(np.zeros((4, 4)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_where_chain_bit_for_bit(self, dtype, rng):
        img = rng.random((3, 16, 16)).astype(dtype)
        img[:, 0, 0] = (0.7, 0.7, 0.2)    # r = g = max
        img[:, 0, 1] = (0.2, 0.7, 0.7)    # g = b = max
        img[:, 0, 2] = (0.7, 0.2, 0.7)    # r = b = max
        img[:, 0, 3] = (0.4, 0.4, 0.4)    # grey
        img[:, 0, 4] = 0.0                # black
        img[:, 0, 5] = (0.9, 0.1, 0.5)    # red owns a negative g - b
        for c in range(3):
            img[c, 1, c] = np.nan
        got = rgb_to_hsv(img)
        want = where_chain_hsv(img)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert (got[0, 1, :3] == 0.0).all()


class TestDeriveRecord:
    def test_two_class_split_boundaries_mirror(self):
        mask = np.zeros((8, 8), dtype=int)
        mask[:, 4:] = 1
        img = np.random.default_rng(0).random((3, 8, 8)).astype(np.float32)
        rec = derive_record(img, mask, 2)
        assert (rec.boundary[0] == rec.boundary[1][:, ::-1]).all()

    def test_invariants_hold_on_random_masks(self, rng):
        for _ in range(20):
            mask = rng.integers(0, 3, (12, 12))
            img = rng.random((3, 12, 12)).astype(np.float32)
            rec = derive_record(img, mask, 3)
            assert np.allclose(rec.onehot.sum(axis=0), 1.0)
            assert (rec.distance[rec.onehot == 0] == 0).all()
            assert set(np.unique(rec.boundary)) <= {0.0, 1.0}
            assert rec.hsv.min() >= 0.0 and rec.hsv.max() <= 1.0

    def test_extra_channels_ride_along(self, rng):
        img = rng.random((5, 8, 8)).astype(np.float32)
        rec = derive_record(img, rng.integers(0, 3, (8, 8)), 3)
        assert rec.image.shape == (5, 8, 8)
        assert rec.hsv.shape == (3, 8, 8)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="match"):
            derive_record(rng.random((3, 8, 8)), np.zeros((9, 9), dtype=int), 2)

    def test_seeded_scenes_digest(self):
        # Bytes, dtypes and shapes of every target of three seeded 256 px
        # six-class scenes, derived and augmented; pins label derivation
        # bit for bit.
        digest = hashlib.sha256()
        scenes = synth.generate(synth.SceneSpec(size=256, n_classes=6, n_images=3, seed=15))
        for i, scene in enumerate(scenes):
            rec = derive_record(scene.image, scene.mask, 6)
            aug = augment.augment_record(rec, augment.AugmentConfig(),
                                         np.random.default_rng(i))
            for r in (rec, aug):
                for name in ("image", "mask", "onehot", "boundary", "distance", "hsv"):
                    a = getattr(r, name)
                    digest.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
                    digest.update(a.tobytes())
        assert digest.hexdigest() == (
            "a522d317806d77c9a0b4950253ea1468deddefd888fc0a18ffb2d313465923df")


def _set_cpus(monkeypatch, n):
    """Make this process see n CPUs, as the helper counts them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _run_with_timeout(fn, seconds=20.0):
    """Run fn on a daemon thread; fail if it has not returned in time."""
    done = []
    t = threading.Thread(target=lambda: done.append(fn()), daemon=True)
    t.start()
    t.join(seconds)
    assert done, f"still running after {seconds} s"
    return done[0]


class TestForEachPlane:
    def test_one_cpu_and_two_give_the_same_bytes(self, monkeypatch):
        if labels._cpu_count() < 2:
            pytest.skip("needs two CPUs")
        scenes = synth.generate(synth.SceneSpec(size=256, n_classes=6, n_images=2, seed=4))

        def records():
            out = []
            for i, scene in enumerate(scenes):
                rec = derive_record(scene.image, scene.mask, 6)
                aug = augment.augment_record(rec, augment.AugmentConfig(),
                                             np.random.default_rng(i))
                out += [getattr(r, name).tobytes() for r in (rec, aug) for name in vars(r)]
            return out

        two = records()
        assert labels._worker is not None  # the 256 px planes took the threaded path
        _set_cpus(monkeypatch, 1)
        assert labels._cpu_count() == 1
        assert records() == two

    def test_every_item_runs_and_the_first_error_in_item_order_wins(self, monkeypatch):
        _set_cpus(monkeypatch, 2)
        ran = set()

        def fn(i):
            # Slow items keep both threads busy; item 1 raises after item 3.
            time.sleep({1: 0.1, 3: 0.0}.get(i, 0.02))
            ran.add(i)
            if i == 1:
                raise KeyError(i)
            if i == 3:
                raise ValueError(i)

        with pytest.raises(KeyError):
            for_each_plane(fn, 6, PARALLEL_MIN_PX)
        assert ran == set(range(6))

    def test_serial_path_also_runs_every_item(self):
        ran = []

        def fn(i):
            ran.append(i)
            raise ValueError(i)

        with pytest.raises(ValueError, match="0"):
            for_each_plane(fn, 3, PARALLEL_MIN_PX - 1)
        assert ran == [0, 1, 2]

    def test_nested_calls_return(self, monkeypatch):
        _set_cpus(monkeypatch, 2)
        out = np.zeros((4, 4))

        def outer(i):
            def inner(j):
                out[i, j] = i * 4 + j
            for_each_plane(inner, 4, PARALLEL_MIN_PX)

        _run_with_timeout(lambda: for_each_plane(outer, 4, PARALLEL_MIN_PX))
        assert (out.ravel() == np.arange(16)).all()
        # A call made on the worker thread itself runs there inline: it
        # submits nothing to the worker.
        worker = labels._shared_worker()
        submits, on_worker = [], []

        class CountingWorker:
            def submit(self, *args):
                submits.append(args)
                return worker.submit(*args)

        monkeypatch.setattr(labels, "_worker", CountingWorker())
        _run_with_timeout(lambda: worker.submit(for_each_plane, lambda j: on_worker.append(
            threading.get_ident()), 4, PARALLEL_MIN_PX).result())
        assert on_worker == [labels._worker_ident] * 4
        assert submits == []

    def test_concurrent_callers_start_one_worker(self, monkeypatch):
        _set_cpus(monkeypatch, 2)
        monkeypatch.setattr(labels, "_worker", None)
        monkeypatch.setattr(labels, "_worker_ident", None)
        made = []

        class SlowExecutor(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                time.sleep(0.05)  # both callers reach the lock meanwhile
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SlowExecutor)
        start = threading.Barrier(2)

        def call():
            start.wait()
            for_each_plane(lambda i: None, 4, PARALLEL_MIN_PX)

        callers = [threading.Thread(target=call) for _ in range(2)]
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(20)
            assert len(made) == 1
        finally:
            for pool in made:
                pool.shutdown()

    def test_many_callers_each_run_every_item_once(self, monkeypatch):
        """More callers than CPUs, switching threads often: each call runs
        each of its items exactly once, whichever thread takes it."""
        _set_cpus(monkeypatch, 2)
        n_callers, n_calls, n_items = 6, 20, 7
        counts = np.zeros((n_callers, n_calls, n_items), dtype=np.int64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def caller(c):
                for k in range(n_calls):
                    def item(i):
                        counts[c, k, i] += 1
                    for_each_plane(item, n_items, PARALLEL_MIN_PX)

            threads = [threading.Thread(target=caller, args=(c,)) for c in range(n_callers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert (counts == 1).all()
