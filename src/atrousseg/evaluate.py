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

    The tile (C, Ht, Wt) is reflect-padded and the model is run at every
    stride-multiple offset whose window still touches the tile, so every
    tile pixel is covered by exactly (window/stride)^2 windows regardless of
    where it sits — (window=256, stride=64) means 16 views per pixel.  The
    result is the per-pixel arithmetic mean, cropped back to (K, Ht, Wt).
    Windows run in row-major offset order with f64 accumulation.
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


def mcc_from_masks(pred_mask, ref_mask, n_classes: int) -> float:
    return metrics(confusion(pred_mask, ref_mask, n_classes))["overall"]["mcc"]


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
