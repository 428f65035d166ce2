"""The benchmark's workloads.

Each workload is a closed loop in one process: the benchmark runs one work
unit, waits for it, checks its outputs, and starts the next.  Inputs come
only from the workload seed.  Between pieces of work a unit calls ``ref``,
which times a fixed reference block (reference.py); its time is kept out of
the unit's seconds and recorded so that the unit can be scaled to the
host's speed at the time.  Every call into atrousseg goes through a
module attribute (``labels.derive_record``, ``evaluate.sliding_window_inference``)
so that the tracer's wrappers see it.

- ``train-toy``: one-epoch ``trainer.train`` calls on the configs/toy.json
  model and data recipe with augmentation on; ten calls in a row train one
  model.  The only workload with backward, train-mode
  batch norm and Adam; at 64 px about a third of conv MACs read padding.
- ``infer-tile``: 16-view sliding-window inference over a 256 px tile with
  a checkpoint-loaded model.  Forward only, eval-mode batch norm, batch-1
  windows on large planes.
- ``label-prep``: label derivation, NCT writes and augmentation of 256 px
  six-class scenes.  No model runs; scipy does the work.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from atrousseg import augment, evaluate, fileio, labels, models, pipeline, synth, trainer
from atrousseg.config import load_config
from reference import no_reference, reference_seconds

TARGETS = ("onehot", "boundary", "distance", "hsv")


@dataclass
class Rep:
    """One timed work-unit batch: what ran, how long it took, what failed."""
    seconds: float
    items: int
    units: int
    attempted: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    stages: dict[str, float] = field(default_factory=dict)
    traced: bool = False
    ref_seconds: list[float] = field(default_factory=list)


def _no_span(name):
    return nullcontext()


def median_rate(reps, count: str = "items", stage: str | None = None) -> float:
    """Median over reps of ``count`` (items or units) per second of ``stage``
    (the whole rep by default); reps without a positive time are skipped."""
    rates = []
    for r in reps:
        seconds = r.seconds if stage is None else r.stages.get(stage, 0.0)
        if seconds > 0:
            rates.append(getattr(r, count) / seconds)
    return statistics.median(rates) if rates else 0.0


def median_ref_rate(reps) -> float:
    """Median over reps of items per reference-second (see reference.py).

    Timing each rep against the reference blocks sampled around and during
    it cancels most of the host's speed swings.
    """
    rates = [r.items / reference_seconds(r.seconds, r.ref_seconds)
             for r in reps if r.seconds > 0 and r.ref_seconds]
    return statistics.median(rates) if rates else 0.0


class TrainToy:
    """One-epoch ``trainer.train`` calls on the toy recipe.

    Each call is one work unit, so a run times many short units.  ``epochs``
    calls in a row train one freshly built model, each call with its own
    seed (so its own shuffle and augmentation); then a new model starts.
    """

    name = "train-toy"
    # With augmentation the epoch loss is noisy.  Over seeds 0-23 the tenth
    # call's train loss stayed below the first's by at least 0.11.
    epochs = 10

    def __init__(self, root: Path, seed: int, tmp: Path):
        self.cfg = load_config(root / "configs" / "toy.json")
        self.seed = seed
        self.model = None
        self.history: list[tuple[float, float]] = []
        self.first_history = None
        self.loss_final = float("nan")

    def setup(self) -> None:
        data = dataclasses.replace(self.cfg.data, seed=self.seed)
        records = pipeline.build_records(data)
        self.train_recs, self.val_recs, _ = pipeline.split_records(records, data.split, data.seed)
        self.train_cfg = dataclasses.replace(self.cfg.train, max_epochs=1,
                                             augment=augment.AugmentConfig())

    def _call_cfg(self, call: int):
        return dataclasses.replace(self.train_cfg, seed=self.seed * 100 + call)

    def warmup(self) -> None:
        trainer.train(models.build_model(self.cfg.model, seed=self.seed),
                      self.train_recs, self.val_recs, self._call_cfg(0))

    def run_unit(self, span=_no_span, ref=no_reference) -> Rep:
        if self.model is None or len(self.history) == self.epochs:
            self.model = models.build_model(self.cfg.model, seed=self.seed)
            self.history = []
        cfg = self._call_cfg(len(self.history))
        t0 = time.perf_counter()
        result = trainer.train(self.model, self.train_recs, self.val_recs, cfg)
        seconds = time.perf_counter() - t0

        epochs = [(h.train_loss, h.val_loss) for h in result.history]
        errors = []
        if result.halted or not epochs:
            errors.append("training halted on a non-finite loss")
        elif not np.isfinite(epochs).all():
            errors.append(f"non-finite epoch loss: {epochs}")
        if errors:
            self.model = None  # start the next unit on a fresh model
        else:
            self.history += epochs
            self.loss_final = epochs[-1][0]
        if len(self.history) == self.epochs:
            if not self.history[-1][0] < self.history[0][0]:
                errors.append(f"last-epoch train loss not below the first: {self.history}")
            if self.first_history is None:
                self.first_history = self.history
            elif self.history != self.first_history:
                errors.append("a repeat of the same seeded run gave a different loss history")
        return Rep(seconds=seconds, items=len(epochs) * len(self.train_recs),
                   units=len(epochs), attempted=1, failed=int(bool(errors)), errors=errors)

    def named(self, reps) -> dict:
        return {"train_img_per_s": (median_rate(reps), "img/s"),
                "train_loss_final": (self.loss_final, "loss")}


class InferTile:
    """Sliding-window inference of one synthetic tile per work unit."""

    name = "infer-tile"
    size, window, stride, n_classes = 256, 256, 64, 4

    def __init__(self, root: Path, seed: int, tmp: Path):
        self.seed = seed
        self.ckpt = tmp / "checkpoint"

    def setup(self) -> None:
        scene = synth.generate(synth.SceneSpec(
            size=self.size, n_classes=self.n_classes, n_images=1, channels=3,
            seed=self.seed))[0]
        self.tile, self.mask = scene.image, scene.mask
        spec = models.ModelSpec(depth="d6", initial_filters=4, n_classes=self.n_classes,
                                input_channels=3, head="cmtsk")
        models.save_checkpoint(models.build_model(spec, seed=self.seed), self.ckpt)
        self.model = models.load_checkpoint(self.ckpt)

    def expected_windows(self) -> int:
        # Stride multiples o with o <= pixel <= o + window - 1 for some pixel.
        per_axis = (self.size - 1) // self.stride + self.window // self.stride
        return per_axis * per_axis

    def warmup(self) -> None:
        self.model.predict(self.tile[None, :, :self.window, :self.window])

    def run_unit(self, span=_no_span, ref=no_reference) -> Rep:
        calls = 0
        ref_s = 0.0

        def predict(x):
            nonlocal calls, ref_s
            calls += 1
            ref_s += ref()
            return self.model.predict(x)["segmentation"]

        t0 = time.perf_counter()
        probs = evaluate.sliding_window_inference(self.tile, predict, window=self.window,
                                                  stride=self.stride)
        evaluate.confusion(probs.argmax(axis=0), self.mask, self.n_classes)
        seconds = time.perf_counter() - t0 - ref_s

        errors = []
        if probs.shape != (self.n_classes, self.size, self.size):
            errors.append(f"output shape {probs.shape}")
        elif not np.isfinite(probs).all():
            errors.append("non-finite probabilities")
        elif np.abs(probs.sum(axis=0) - 1.0).max() > 1e-4:
            errors.append(f"probabilities sum off 1 by {np.abs(probs.sum(axis=0) - 1.0).max()}")
        if calls != self.expected_windows():
            errors.append(f"{calls} predict calls, expected {self.expected_windows()}")
        return Rep(seconds=seconds, items=self.size * self.size, units=1, attempted=1,
                   failed=int(bool(errors)), errors=errors)

    def named(self, reps) -> dict:
        return {"infer_px_per_s": (median_rate(reps), "px/s")}


class LabelPrep:
    """Derive, write and augment every scene of a fixed set once per unit."""

    name = "label-prep"
    size, n_classes, n_scenes = 256, 6, 12

    def __init__(self, root: Path, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.aug_cfg = augment.AugmentConfig()

    def setup(self) -> None:
        self.scenes = synth.generate(synth.SceneSpec(
            size=self.size, n_classes=self.n_classes, n_images=self.n_scenes,
            channels=3, seed=self.seed))
        self.tmp.mkdir(parents=True, exist_ok=True)

    def warmup(self) -> None:
        scene = self.scenes[0]
        rec = labels.derive_record(scene.image, scene.mask, self.n_classes)
        fileio.write_nct(self.tmp / "warmup.nct", rec.onehot)
        augment.augment_record(rec, self.aug_cfg, np.random.default_rng(0))

    def run_unit(self, span=_no_span, ref=no_reference) -> Rep:
        label_s = augment_s = 0.0
        errors = []
        failed = 0
        for i, scene in enumerate(self.scenes):
            stem = self.tmp / f"record_{i:04d}"
            # The same generator per scene index keeps every unit identical work.
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, i)))
            ref()
            with span("perfbench.record"):
                t0 = time.perf_counter()
                rec = labels.derive_record(scene.image, scene.mask, self.n_classes)
                for name in TARGETS:
                    fileio.write_nct(f"{stem}.{name}.nct", getattr(rec, name))
                t1 = time.perf_counter()
                aug = augment.augment_record(rec, self.aug_cfg, rng)
                t2 = time.perf_counter()
            label_s += t1 - t0
            augment_s += t2 - t1
            name = TARGETS[i % len(TARGETS)]
            problems = (_record_errors(rec) + _record_errors(aug)
                        + _readback_errors(f"{stem}.{name}.nct", getattr(rec, name)))
            errors += [f"scene {i}: {p}" for p in problems]
            failed += bool(problems)
        n = len(self.scenes)
        return Rep(seconds=label_s + augment_s, items=n, units=n, attempted=n, failed=failed,
                   errors=errors, stages={"labels": label_s, "augment": augment_s})

    def named(self, reps) -> dict:
        return {"labels_rec_per_s": (median_rate(reps, stage="labels"), "rec/s"),
                "augment_rec_per_s": (median_rate(reps, stage="augment"), "rec/s")}


def _record_errors(rec) -> list[str]:
    errors = []
    if not np.array_equal(rec.onehot.sum(axis=0), np.ones(rec.mask.shape)):
        errors.append("one-hot planes do not sum to 1")
    if not np.isin(rec.boundary, (0, 1)).all():
        errors.append("boundary outside {0, 1}")
    for name in ("distance", "hsv"):
        plane = getattr(rec, name)
        if not (np.isfinite(plane).all() and plane.min() >= 0 and plane.max() <= 1):
            errors.append(f"{name} outside [0, 1]")
    return errors


def _readback_errors(path, written) -> list[str]:
    back = fileio.read_nct(path)
    if not np.array_equal(back, np.asarray(written, dtype="<f4")):
        return [f"NCT read-back of {Path(path).name} differs from what was written"]
    return []


WORKLOADS = {w.name: w for w in (TrainToy, InferTile, LabelPrep)}
