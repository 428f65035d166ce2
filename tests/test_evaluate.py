"""Windowed inference, padding, confusion metrics, and error maps."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atrousseg import fileio
from atrousseg.evaluate import (ERROR_CORRECT, ERROR_IGNORED, ERROR_INCORRECT,
                                ConfusionMatrix, confusion, error_map,
                                _as_predict, f1_from_precision_recall, metrics, reflect_pad,
                                sliding_window_inference, write_error_map)


class TestReflectPad:
    @given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 12),
           st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_when_pad_fits(self, h, w, pt, pb, pl, pr):
        arr = np.arange(h * w, dtype=float).reshape(h, w)
        got = reflect_pad(arr, pt, pb, pl, pr)
        if h > 1 and w > 1 and max(pt, pb) < h and max(pl, pr) < w:
            want = np.pad(arr, ((pt, pb), (pl, pr)), mode="reflect")
            assert (got == want).all()
        assert got.shape == (h + pt + pb, w + pl + pr)

    def test_wide_pad_keeps_mirroring(self):
        row = np.array([[1.0, 2.0, 3.0]])
        got = reflect_pad(row, 0, 0, 4, 0)[0]
        # walking left from the edge: 3 2 1 2 3 2 1 ... (period 4)
        assert got.tolist() == [1.0, 2.0, 3.0, 2.0, 1.0, 2.0, 3.0]

    def test_single_pixel_axis_replicates(self):
        got = reflect_pad(np.array([[7.0]]), 2, 1, 2, 2)
        assert got.shape == (4, 5) and (got == 7.0).all()

    def test_leading_axes_untouched(self, rng):
        arr = rng.random((3, 4, 5))
        got = reflect_pad(arr, 1, 1, 2, 2)
        assert got.shape == (3, 6, 9)
        assert (got[:, 1:5, 2:7] == arr).all()


def brute_force_window_average(tile, window, stride, stat):
    """Per-pixel mean of ``stat(patch)`` over every covering window.

    Offsets considered: all stride multiples o with o <= t <= o + window - 1
    for pixel t along each axis, taken over the reflect-padded canvas.
    Returns (output, counts).
    """
    c, ht, wt = tile.shape
    lead = window - stride
    pad_b = stride * ((ht - 1) // stride) + window - ht
    pad_r = stride * ((wt - 1) // stride) + window - wt
    if ht == 1 and wt == 1:
        canvas = np.tile(tile, (1, 1 + lead + pad_b, 1 + lead + pad_r))
    else:
        canvas = np.stack([np.pad(ch, ((lead, pad_b), (lead, pad_r)),
                                  mode="reflect") for ch in tile])
    out = np.zeros((ht, wt))
    counts = np.zeros((ht, wt), dtype=int)
    for i in range(ht):
        for j in range(wt):
            vals = []
            for orow in range(-lead, i + 1, stride):
                if not (orow <= i <= orow + window - 1):
                    continue
                for ocol in range(-lead, j + 1, stride):
                    if not (ocol <= j <= ocol + window - 1):
                        continue
                    patch = canvas[:, orow + lead:orow + lead + window,
                                   ocol + lead:ocol + lead + window]
                    vals.append(stat(patch))
            out[i, j] = np.mean(vals)
            counts[i, j] = len(vals)
    return out, counts


class _PatchMeanStub:
    """Fake model: every output pixel carries the mean of its input window."""

    def __init__(self):
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        m = float(np.mean(x))
        return np.full((1, 2) + x.shape[-2:], m)


def canvas_sliding_window_inference(tile, model, window: int = 256,
                                    stride: int | None = None) -> np.ndarray:
    """The padded-canvas implementation that the tile accumulator replaced."""
    arr = np.asarray(tile)
    if arr.ndim != 3:
        raise ValueError(f"tile must be (C, H, W), got shape {arr.shape}")
    c, ht, wt = arr.shape
    if ht < 1 or wt < 1:
        raise ValueError("tile must be at least 1x1")
    stride = window // 4 if stride is None else stride
    if stride < 1 or window % stride:
        raise ValueError(f"stride {stride} must divide window {window}")
    predict = _as_predict(model)

    # Offsets are all stride multiples o with o <= t <= o + window - 1 for
    # some tile pixel t; each pixel then sees exactly window/stride offsets
    # per axis.  The canvas is padded to hold the extreme windows.
    lead = window - stride
    off_rows = np.arange(-lead, stride * ((ht - 1) // stride) + 1, stride)
    off_cols = np.arange(-lead, stride * ((wt - 1) // stride) + 1, stride)
    pad_bottom = int(off_rows[-1]) + window - ht
    pad_right = int(off_cols[-1]) + window - wt
    canvas = reflect_pad(arr, lead, pad_bottom, lead, pad_right)

    acc = None
    for orow in off_rows + lead:          # canvas coordinates
        for ocol in off_cols + lead:
            patch = canvas[:, orow:orow + window, ocol:ocol + window]
            probs = np.asarray(predict(patch[None].astype(arr.dtype, copy=False)))
            if (probs.ndim != 4 or probs.shape[0] != 1
                    or probs.shape[-2:] != (window, window)):
                raise ValueError(
                    f"model must map (1,C,{window},{window}) to (1,K,{window},{window}), "
                    f"got output shape {probs.shape}")
            if acc is None:
                acc = np.zeros((probs.shape[1],) + canvas.shape[-2:], dtype=np.float64)
            acc[:, orow:orow + window, ocol:ocol + window] += probs[0]
    return acc[:, lead:lead + ht, lead:lead + wt] / (window // stride) ** 2


class _PositionStub:
    """Fake model whose every output pixel depends on every input pixel of
    its window, on the pixel's own input values and on the window's place in
    the call sequence; output in the input's dtype."""

    def __init__(self, n_classes=3):
        self.n_classes = n_classes
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        planes = [x[0, k % x.shape[1]] * (k + 1) for k in range(self.n_classes)]
        out = np.stack(planes)[None] + x.sum() / x.size + 0.37 * self.calls
        return out.astype(x.dtype)


class TestSlidingWindow:
    @pytest.mark.parametrize("shape,window,stride", [
        ((1, 5, 7), 4, 2), ((2, 8, 8), 4, 1), ((1, 1, 1), 4, 2),
        ((1, 9, 3), 6, 3), ((3, 4, 11), 4, 4)])
    def test_matches_brute_force(self, rng, shape, window, stride):
        tile = rng.random(shape)
        stub = _PatchMeanStub()
        got = sliding_window_inference(tile, stub, window=window, stride=stride)
        want, counts = brute_force_window_average(tile, window, stride,
                                                  lambda p: float(np.mean(p)))
        views = (window // stride) ** 2
        assert (counts == views).all()  # uniform coverage for any tile size
        assert got.shape == (2,) + shape[1:]
        assert np.allclose(got[0], want, atol=1e-10)
        per_axis = window // stride
        assert stub.calls == ((per_axis + (shape[1] - 1) // stride)
                              * (per_axis + (shape[2] - 1) // stride))

    @given(c=st.integers(1, 3), ht=st.integers(1, 40), wt=st.integers(1, 40),
           pair=st.sampled_from([(4, 1), (4, 2), (4, 4), (6, 2), (6, 3), (8, 2), (8, 8),
                                (15, 5), (16, 4)]),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2 ** 16))
    @example(c=1, ht=1, wt=1, pair=(4, 2), dtype=np.float32, seed=0)
    @example(c=2, ht=1, wt=40, pair=(8, 2), dtype=np.float64, seed=1)
    @example(c=3, ht=40, wt=1, pair=(6, 3), dtype=np.float32, seed=2)
    @example(c=1, ht=3, wt=2, pair=(16, 4), dtype=np.float64, seed=3)
    @settings(max_examples=40, deadline=None)
    def test_bits_equal_padded_canvas_reference(self, c, ht, wt, pair, dtype, seed):
        window, stride = pair
        tile = np.random.default_rng(seed).normal(size=(c, ht, wt)).astype(dtype)
        got = sliding_window_inference(tile, _PositionStub(), window=window, stride=stride)
        want = canvas_sliding_window_inference(tile, _PositionStub(), window=window,
                                               stride=stride)
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_holds_the_accumulator_and_a_window(self, rng):
        # a 3-band f32 tile, two classes: the padded-canvas path held the
        # canvas, a canvas-sized accumulator and the divided crop at once
        c, ht, wt, window, stride, k = 3, 512, 640, 128, 64, 2
        tile = rng.random((c, ht, wt), dtype=np.float32)
        model = lambda x: np.full((1, k) + x.shape[-2:], x[0, 0, 0, 0], np.float32)
        tracemalloc.start()
        try:
            out = sliding_window_inference(tile, model, window=window, stride=stride)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        strip = c * window * wt * tile.itemsize
        window_f64 = k * window * window * 8
        assert out.shape == (k, ht, wt)
        assert peak <= out.nbytes + strip + 4 * window_f64, peak / out.nbytes

    def test_constant_model_gives_constant_field(self, rng):
        tile = rng.random((2, 13, 6))
        model = lambda x: np.full((1, 3) + x.shape[-2:], 0.25)
        out = sliding_window_inference(tile, model, window=8, stride=2)
        assert out.shape == (3, 13, 6)
        assert np.allclose(out, 0.25, atol=1e-12)

    def test_probability_rows_still_sum_to_one(self, rng):
        def model(x):
            z = rng.normal(size=(1, 4) + x.shape[-2:])
            e = np.exp(z - z.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        out = sliding_window_inference(rng.random((1, 10, 10)), model,
                                       window=4, stride=2)
        assert np.allclose(out.sum(axis=0), 1.0, atol=1e-9)

    def test_dict_predict_models_supported(self, rng):
        class Stub:
            def predict(self, x):
                return {"segmentation": np.full((1, 2) + x.shape[-2:], 0.5),
                        "boundary": np.zeros((1, 2) + x.shape[-2:])}

        out = sliding_window_inference(rng.random((1, 4, 4)), Stub(),
                                       window=4, stride=2)
        assert np.allclose(out, 0.5)

    def test_validation(self, rng):
        tile = rng.random((1, 8, 8))
        model = _PatchMeanStub()
        with pytest.raises(ValueError, match="divide"):
            sliding_window_inference(tile, model, window=8, stride=3)
        with pytest.raises(ValueError, match="C, H, W"):
            sliding_window_inference(rng.random((8, 8)), model, window=4)
        bad = lambda x: np.zeros((1, 3, 2, 2))
        with pytest.raises(ValueError, match="model must map"):
            sliding_window_inference(tile, bad, window=4, stride=2)


def pooled_mcc_oracle(pred, ref, n_classes):
    """One-vs-rest counts pooled over classes, then the phi coefficient."""
    tp = fp = fn = tn = 0
    for k in range(n_classes):
        p, r = pred == k, ref == k
        tp += int((p & r).sum())
        fp += int((p & ~r).sum())
        fn += int((~p & r).sum())
        tn += int((~p & ~r).sum())
    den = np.sqrt(float(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    return (tp * tn - fp * fn) / den if den else 0.0


class TestConfusion:
    def test_hand_counts(self):
        cm = confusion([0, 0, 1, 1], [0, 1, 1, 1])
        assert cm.counts.tolist() == [[1, 1], [0, 2]]
        assert cm.total == 4 and cm.n_classes == 2

    def test_rows_are_predictions(self):
        cm = confusion([1, 1, 1], [0, 0, 2])
        assert cm.counts[1, 0] == 2 and cm.counts[1, 2] == 1
        assert cm.counts.sum(axis=1)[1] == 3

    def test_ignore_label(self):
        cm = confusion([0, 1, 0], [0, 255, 1], n_classes=2, ignore=255)
        assert cm.total == 2

    def test_uint8_masks_do_not_wrap(self, rng):
        pred = rng.integers(0, 200, 100).astype(np.uint8)
        ref = rng.integers(0, 200, 100).astype(np.uint8)
        cm = confusion(pred, ref, n_classes=200)
        assert cm.total == 100
        assert cm.counts[pred[0], ref[0]] >= 1

    def test_explicit_class_count_pads(self):
        assert confusion([0], [0], n_classes=5).counts.shape == (5, 5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="class ids"):
            confusion([0, 3], [0, 1], n_classes=2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            confusion([0, 1], [0, 1, 1])

    def test_addition_pools_counts(self):
        a = confusion([0, 1], [0, 1], n_classes=2)
        b = confusion([1, 1], [0, 1], n_classes=2)
        assert (a + b).counts.tolist() == [[1, 0], [1, 2]]
        with pytest.raises(ValueError, match="class counts"):
            a + confusion([0], [0], n_classes=3)


class TestMetrics:
    def test_reference_f1_anchor(self):
        assert f1_from_precision_recall(0.9538, 0.9735) == pytest.approx(
            0.9635, abs=5e-4)
        assert f1_from_precision_recall(0.0, 0.0) == 0.0

    def test_per_class_against_manual_counts(self, rng):
        pred = rng.integers(0, 4, 500)
        ref = rng.integers(0, 4, 500)
        m = metrics(confusion(pred, ref, 4))
        for k in range(4):
            tp = int(((pred == k) & (ref == k)).sum())
            pk = int((pred == k).sum())
            rk = int((ref == k).sum())
            row = m["per_class"][k]
            assert row["precision"] == pytest.approx(tp / pk)
            assert row["recall"] == pytest.approx(tp / rk)
            assert row["support"] == rk
            assert row["f1"] == pytest.approx(
                f1_from_precision_recall(row["precision"], row["recall"]))

    def test_overall_accuracy(self, rng):
        pred = rng.integers(0, 3, 300)
        ref = rng.integers(0, 3, 300)
        m = metrics(confusion(pred, ref, 3))
        assert m["overall"]["oa"] == pytest.approx((pred == ref).mean())

    @given(st.integers(2, 5), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_mcc_matches_pooled_oracle(self, k, seed):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, k, 200)
        ref = rng.integers(0, k, 200)
        got = metrics(confusion(pred, ref, k))["overall"]["mcc"]
        assert got == pytest.approx(pooled_mcc_oracle(pred, ref, k), abs=1e-12)

    def test_perfect_and_inverted(self):
        ref = np.array([0, 0, 1, 1])
        assert metrics(confusion(ref, ref, 2))["overall"]["mcc"] == pytest.approx(1.0)
        assert metrics(confusion(1 - ref, ref, 2))["overall"]["mcc"] == pytest.approx(-1.0)

    def test_exclude_reshapes_avg_f1_only(self, rng):
        pred = rng.integers(0, 3, 300)
        ref = rng.integers(0, 3, 300)
        cm = confusion(pred, ref, 3)
        full = metrics(cm)
        part = metrics(cm, exclude={0})
        f1s = [c["f1"] for c in full["per_class"]]
        assert part["overall"]["avg_f1"] == pytest.approx(np.mean(f1s[1:]))
        assert part["overall"]["oa"] == full["overall"]["oa"]
        assert part["per_class"] == full["per_class"]

    def test_absent_class_flags_zero_division(self):
        m = metrics(confusion([0, 0], [0, 0], n_classes=2))
        assert m["overall"]["zero_division"]
        assert m["per_class"][1]["f1"] == 0.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            metrics(ConfusionMatrix(np.zeros((2, 2), dtype=np.int64)))


class TestErrorMap:
    def test_tri_state_values(self):
        pred = np.array([[0, 1], [2, 2]])
        ref = np.array([[0, 2], [2, 9]])
        emap = error_map(pred, ref, ignore=9)
        assert emap.tolist() == [[ERROR_CORRECT, ERROR_INCORRECT],
                                 [ERROR_CORRECT, ERROR_IGNORED]]

    def test_no_ignore_keeps_two_states(self):
        emap = error_map([0, 1], [1, 1])
        assert set(emap.tolist()) <= {ERROR_CORRECT, ERROR_INCORRECT}

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            error_map(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_written_colors(self, tmp_path):
        emap = np.array([[0, 1, 2]], dtype=np.uint8)
        path = tmp_path / "err.ppm"
        write_error_map(path, emap)
        img = fileio.read_ppm(path)
        assert img.shape == (1, 3, 3)
        assert img[0, 0].tolist() == [0, 200, 0]
        assert img[0, 1].tolist() == [220, 0, 0]
        assert img[0, 2].tolist() == [255, 255, 255]
