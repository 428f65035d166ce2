"""Seamless sliding-window inference over large rasters, confusion-matrix
metrics, and error maps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fileio


def reflect_pad(tile, pad_top: int, pad_bottom: int, pad_left: int, pad_right: int):
    """Reflect-pad the last two axes; the edge pixel is not duplicated.

    Pads wider than the tile itself mirror back and forth; a 1-pixel axis
    repeats its pixel.
    """
    arr = np.asarray(tile)
    lead = ((0, 0),) * (arr.ndim - 2)
    return np.pad(arr, lead + ((pad_top, pad_bottom), (pad_left, pad_right)),
                  mode="reflect")


def _as_predict(model):
    if callable(model) and not hasattr(model, "predict"):
        return model

    return lambda x: model.predict(x)["segmentation"]


def sliding_window_inference(tile, model, window: int = 256,
                             stride: int | None = None) -> np.ndarray:
    """Average model probabilities over a dense grid of overlapping windows.

    The model is run at every stride-multiple offset whose window still
    touches the tile (C, Ht, Wt), so every tile pixel is covered by exactly
    (window/stride)^2 windows regardless of where it sits — (window=256,
    stride=64) means 16 views per pixel.  Windows reaching past the edge read
    the reflect-padded tile.  The result is the per-pixel arithmetic mean,
    (K, Ht, Wt) float64.  Windows run in row-major offset order.

    What it holds: one float64 (K, Ht, Wt) accumulator, one row strip and one
    window, with no padded canvas.  Each window is gathered from the tile
    through reflect index maps, adds only its overlap with the tile, and the
    accumulator is divided in place and returned.
    """
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
    # per axis.  Entry o + lead of an index map is the tile row (column) that
    # padded coordinate o reads, mirrored as reflect_pad mirrors the tile.
    lead = window - stride
    off_rows = range(-lead, stride * ((ht - 1) // stride) + 1, stride)
    off_cols = range(-lead, stride * ((wt - 1) // stride) + 1, stride)
    row_map = _reflect_index(ht, lead, off_rows[-1] + window - ht)
    col_map = _reflect_index(wt, lead, off_cols[-1] + window - wt)

    # take() buffers its out= under mode="raise"; the maps are in range
    strip = np.empty((c, window, wt), dtype=arr.dtype)
    acc = None
    for orow in off_rows:
        np.take(arr, row_map[orow + lead:orow + lead + window], axis=1, out=strip, mode="clip")
        r0, r1 = max(orow, 0), min(orow + window, ht)
        for ocol in off_cols:
            patch = np.take(strip, col_map[ocol + lead:ocol + lead + window], axis=2)
            probs = np.asarray(predict(patch[None]))
            if (probs.ndim != 4 or probs.shape[0] != 1
                    or probs.shape[-2:] != (window, window)):
                raise ValueError(
                    f"model must map (1,C,{window},{window}) to (1,K,{window},{window}), "
                    f"got output shape {probs.shape}")
            if acc is None:
                acc = np.zeros((probs.shape[1], ht, wt), dtype=np.float64)
            c0, c1 = max(ocol, 0), min(ocol + window, wt)
            acc[:, r0:r1, c0:c1] += probs[0, :, r0 - orow:r1 - orow, c0 - ocol:c1 - ocol]
    acc /= (window // stride) ** 2
    return acc


def _reflect_index(n: int, before: int, after: int) -> np.ndarray:
    """Tile index of each coordinate of an axis of length n reflect-padded by
    ``before`` and ``after``."""
    return reflect_pad(np.arange(n)[None], 0, 0, before, after)[0]


@dataclass
class ConfusionMatrix:
    """counts[pred][ref]; rows are predictions, columns the reference."""
    counts: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if self.counts.shape != other.counts.shape:
            raise ValueError("confusion matrices have different class counts")
        return ConfusionMatrix(self.counts + other.counts)


def confusion(pred_mask, ref_mask, n_classes: int | None = None,
              ignore: int | None = None) -> ConfusionMatrix:
    """Count pixel pairs; reference pixels equal to ``ignore`` are skipped."""
    pred = np.asarray(pred_mask).ravel().astype(np.int64)
    ref = np.asarray(ref_mask).ravel().astype(np.int64)
    if pred.shape != ref.shape:
        raise ValueError(f"shape mismatch: pred {np.asarray(pred_mask).shape} "
                         f"vs ref {np.asarray(ref_mask).shape}")
    if ignore is not None:
        keep = ref != ignore
        pred, ref = pred[keep], ref[keep]
    if n_classes is None:
        n_classes = int(max(pred.max(initial=-1), ref.max(initial=-1))) + 1
    if pred.size and (pred.min() < 0 or pred.max() >= n_classes
                      or ref.min() < 0 or ref.max() >= n_classes):
        raise ValueError(f"class ids outside [0, {n_classes})")
    counts = np.bincount(pred * n_classes + ref,
                         minlength=n_classes * n_classes).reshape(n_classes, n_classes)
    return ConfusionMatrix(counts)


def _safe_div(num: float, den: float) -> tuple[float, bool]:
    if den == 0:
        return 0.0, True
    return num / den, False


def f1_from_precision_recall(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def metrics(cm: ConfusionMatrix, exclude: frozenset | set = frozenset()) -> dict:
    """Per-class precision/recall/F1 plus OA, micro-pooled MCC and avg_F1.

    Degenerate denominators yield 0 with a ``zero_division`` flag rather
    than NaN.  ``exclude`` removes classes (by id) from avg_F1 only.
    """
    counts = cm.counts.astype(np.float64)
    total = counts.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    tp = np.diag(counts)
    fp = counts.sum(axis=1) - tp   # predicted J, reference other
    fn = counts.sum(axis=0) - tp
    tn = total - tp - fp - fn

    per_class = []
    flagged = False
    for j in range(cm.n_classes):
        precision, f1_ = _safe_div(tp[j], tp[j] + fp[j])
        recall, f2_ = _safe_div(tp[j], tp[j] + fn[j])
        flagged |= f1_ or f2_
        per_class.append({
            "precision": precision,
            "recall": recall,
            "f1": f1_from_precision_recall(precision, recall),
            "support": int(tp[j] + fn[j]),
        })

    oa = float(tp.sum() / total)
    stp, sfp, sfn, stn = tp.sum(), fp.sum(), fn.sum(), tn.sum()
    mcc_den = np.sqrt((stp + sfp) * (stp + sfn) * (stn + sfp) * (stn + sfn))
    mcc, fm = _safe_div(stp * stn - sfp * sfn, mcc_den)
    flagged |= fm
    kept = [p["f1"] for j, p in enumerate(per_class) if j not in exclude]
    avg_f1 = float(np.mean(kept)) if kept else 0.0

    return {
        "per_class": per_class,
        "overall": {"oa": oa, "mcc": float(mcc), "avg_f1": avg_f1,
                    "zero_division": bool(flagged)},
    }


ERROR_CORRECT, ERROR_INCORRECT, ERROR_IGNORED = 0, 1, 2
_ERROR_COLORS = np.array([[0, 200, 0], [220, 0, 0], [255, 255, 255]], dtype=np.uint8)


def error_map(pred_mask, ref_mask, ignore: int | None = None) -> np.ndarray:
    """Tri-state plane: 0 correct, 1 incorrect, 2 ignored."""
    pred = np.asarray(pred_mask)
    ref = np.asarray(ref_mask)
    if pred.shape != ref.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs ref {ref.shape}")
    out = np.where(pred == ref, ERROR_CORRECT, ERROR_INCORRECT).astype(np.uint8)
    if ignore is not None:
        out[ref == ignore] = ERROR_IGNORED
    return out


def write_error_map(path, emap) -> None:
    """Serialize an error map as PPM: green correct, red incorrect, white ignored."""
    fileio.write_ppm(path, _ERROR_COLORS[np.asarray(emap)])
