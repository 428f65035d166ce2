"""End-to-end assembly: dataset construction, the one train/val/test split
of whole records, the checked prelude shared by `train` and `lr-find`, and
the training entry point."""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from . import fileio, synth
from .config import DataConfig, RunConfig, check_split, write_snapshot
from .labels import SampleRecord, derive_record
from .models import build_model, param_count, save_checkpoint
from .trainer import history_to_csv, micro_batches, train


def build_records(data: DataConfig) -> list[SampleRecord]:
    """Materialize SampleRecords from a synthetic recipe or a directory."""
    if data.kind == "synthetic":
        pairs = [(s.image, s.mask) for s in synth.generate(data.scene_spec())]
    else:
        pairs = synth.load_dataset(data.path)
    return [derive_record(img, mask, data.n_classes) for img, mask in pairs]


def split_records(records, ratios=(0.8, 0.1, 0.1), seed: int = 0):
    """Split records into (train, val, test) lists: a permutation seeded by
    ``seed`` is cut into counts that follow ``ratios`` by largest remainder,
    and every non-zero ratio keeps at least one record."""
    check_split(ratios)
    n = len(records)
    needed = sum(1 for r in ratios if r > 0)
    if n < needed:
        raise ValueError(f"only {n} records for {needed} non-empty splits")
    order = np.random.default_rng(seed).permutation(n)

    quota = [r * n for r in ratios]
    counts = [int(q) for q in quota]
    rema = sorted(range(3), key=lambda i: (quota[i] - counts[i], -i), reverse=True)
    for i in rema[: n - sum(counts)]:
        counts[i] += 1
    for i, r in enumerate(ratios):
        if r > 0 and counts[i] == 0:
            counts[i] += 1
            counts[int(np.argmax(counts))] -= 1

    bounds = np.cumsum([0, *counts])
    return tuple([records[i] for i in order[lo:hi]] for lo, hi in zip(bounds, bounds[1:]))


def check_model_fits(cfg: RunConfig, records) -> None:
    """Model and data must agree on classes, and on the loaded images' channels
    and sides; directory data shows its image shapes only once it is loaded."""
    if cfg.model.n_classes != cfg.data.n_classes:
        raise ValueError(f"model.n_classes ({cfg.model.n_classes}) must equal "
                         f"data.n_classes ({cfg.data.n_classes})")
    want = cfg.model.input_channels
    data_key = ("data.channels" if cfg.data.kind == "synthetic"
                else "the channel count of the data's images")
    for got in sorted({r.image.shape[0] for r in records}):
        if got != want:
            raise ValueError(f"model.input_channels ({want}) must equal {data_key} ({got})")
    for h, w in sorted({r.image.shape[1:] for r in records}):
        cfg.model.check_image_size(h, w)


def prepare_records(cfg: RunConfig, records):
    """Check a run's records against its model and split them into (train,
    val); val may be empty.  A model, data, split and micro-batch that do
    not fit raise ValueError."""
    check_model_fits(cfg, records)
    train_recs, val_recs, _ = split_records(records, cfg.data.split, cfg.data.seed)
    if not train_recs:
        raise ValueError("split produced an empty train set; "
                         "increase data.n_images or adjust data.split")
    # train and lr-find both cut the train part with micro_batches
    mb, div = cfg.train.micro_batch, cfg.model.size_divisor
    if (any(len(chunk) == 1 for chunk in micro_batches(train_recs, mb))
            and any(r.image.shape[1:] == (div, div) for r in train_recs)):
        raise ValueError(
            f"train.micro_batch {mb} leaves a one-image micro-batch of the "
            f"{len(train_recs)} train images, and a {div}x{div} image has a 1x1 "
            f"deepest {cfg.model.depth} plane: train-mode batch norm needs more "
            f"than one value per channel")
    return train_recs, val_recs


def run_training(cfg: RunConfig, train_recs, val_recs):
    """Train on the records of ``prepare_records``; writes snapshot, history
    CSV, checkpoint, metrics.

    An empty val part is refused before anything is written.  The summary's
    final val loss and MCC are those of the restored best epoch, or null when
    no epoch was validated.  Returns the TrainResult.
    """
    if not val_recs:
        raise ValueError("split produced an empty val set; "
                         "increase data.n_images or adjust data.split")
    out = fileio.ensure_dir(cfg.out_dir)
    write_snapshot(cfg, out / "config.json")

    train_cfg = dataclasses.replace(cfg.train, augment=cfg.augment)
    model = build_model(cfg.model, seed=cfg.train.seed)
    result = train(model, train_recs, val_recs, train_cfg)

    history_to_csv(result.history, out / "history.csv")
    save_checkpoint(model, out / "checkpoint")
    best = result.history[result.best_epoch] if result.best_epoch >= 0 else None
    val_loss, val_mcc = (best.val_loss, best.val_mcc) if best else (None, None)
    summary = {
        "epochs_run": len(result.history),
        "best_epoch": result.best_epoch,
        "best_val_loss": val_loss,
        "final_val_loss": val_loss,
        "final_val_mcc": val_mcc,
        "halted": result.halted,
        "param_count": param_count(model),
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return result

