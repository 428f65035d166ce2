"""Optimization loop: Adam, gradient aggregation across micro-batches, an
LR range finder, and plateau-scheduled training with best-checkpoint
tracking."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .augment import AugmentConfig, augment_record
from .autodiff import Node
from .evaluate import confusion, metrics
from .losses import LOSS_IDS, multitask_loss


class Adam(object):
    """Bias-corrected Adam over a list of parameter Nodes (epsilon 1e-8)."""

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999)):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.t = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g.shape != p.value.shape:
                raise ValueError(f"gradient shape {g.shape} drifted from "
                                 f"parameter shape {p.value.shape}")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.value -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + 1e-8)


def micro_batches(records, size: int) -> list:
    """``records`` cut in order into chunks of ``size``; the last may be shorter."""
    return [records[lo:lo + size] for lo in range(0, len(records), size)]


def aggregate_gradients(loss_fn, params, batches) -> float:
    """Accumulate the gradient of the size-weighted mean loss over batches.

    ``loss_fn(batch)`` must return a scalar loss Node (already averaged over
    the batch).  A batch weighs ``len(batch)``, or 1 when it has no length.
    Gradients land additively in ``params``; the return value is the
    aggregate loss.  One optimizer step per aggregation window.
    """
    sizes = [len(b) if hasattr(b, "__len__") else 1 for b in batches]
    total = float(sum(sizes))
    for p in params:
        p.zero_grad()
    agg = 0.0
    for batch, n in zip(batches, sizes):
        loss = loss_fn(batch) * (n / total)
        loss.backward()
        agg += loss.item()
    return agg


@dataclass
class LrFinderResult:
    lrs: np.ndarray
    losses: np.ndarray
    smoothed: np.ndarray
    suggestion: float
    diverged: bool
    diagnostic: str = ""


def lr_finder(loss_fn, params, batches, lr_lo: float = 1e-6, lr_hi: float = 1.0,
              steps: int = 100) -> LrFinderResult:
    """Sweep the learning rate geometrically and report the steepest descent.

    One Adam step per LR value, cycling through ``batches``; the loss
    curve is EMA-smoothed (bias-corrected).  The sweep aborts once the
    smoothed loss exceeds 4x its running minimum.  Parameters are restored
    afterwards, but not the batch-norm running statistics that the
    train-mode forwards update.
    """
    if not lr_lo < lr_hi:
        raise ValueError(f"need lr_lo < lr_hi, got {lr_lo} >= {lr_hi}")
    if steps < 2:
        raise ValueError("lr_finder needs at least 2 steps")
    params = list(params)
    saved = [p.value.copy() for p in params]
    opt = Adam(params, lr=lr_lo)
    ratio = (lr_hi / lr_lo) ** (1.0 / (steps - 1))

    lrs, losses, smoothed = [], [], []
    ema, best, smoothing = 0.0, np.inf, 0.98
    try:
        for t in range(steps):
            opt.lr = lr_lo * ratio ** t
            value = aggregate_gradients(loss_fn, params, [batches[t % len(batches)]])
            if not np.isfinite(value):
                break
            opt.step()
            ema = smoothing * ema + (1.0 - smoothing) * value
            sm = ema / (1.0 - smoothing ** (t + 1))
            lrs.append(opt.lr)
            losses.append(value)
            smoothed.append(sm)
            best = min(best, sm)
            if sm > 4.0 * best:
                break
    finally:
        for p, w in zip(params, saved):
            p.value[...] = w

    lrs = np.asarray(lrs)
    losses = np.asarray(losses)
    smoothed = np.asarray(smoothed)
    if len(lrs) < 2:
        return LrFinderResult(lrs, losses, smoothed, lr_lo, True,
                              "loss went non-finite before the sweep could measure a slope")
    slope = np.gradient(smoothed, np.log(lrs))
    if slope.min() >= 0:
        return LrFinderResult(lrs, losses, smoothed, float(lrs[0]), True,
                              "loss never decreased over the sweep; model diverges "
                              "at every probed learning rate")
    return LrFinderResult(lrs, losses, smoothed, float(lrs[int(np.argmin(slope))]),
                          False)


@dataclass
class TrainConfig:
    lr: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.999)
    micro_batch: int = 2
    aggregate_steps: int = 1
    max_epochs: int = 100
    plateau_patience: int = 10
    plateau_factor: float = 0.1
    max_reductions: int = 3
    seed: int = 0
    loss_id: str = "tanimoto-complement"
    augment: AugmentConfig | None = None

    def __post_init__(self):
        if not self.lr >= 0.0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if len(self.betas) != 2 or not all(0.0 <= b < 1.0 for b in self.betas):
            raise ValueError(f"betas must be two values in [0, 1), got {self.betas}")
        if not (0.0 < self.plateau_factor < 1.0):
            raise ValueError(f"plateau_factor must lie in (0, 1), got {self.plateau_factor}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.micro_batch < 1 or self.aggregate_steps < 1:
            raise ValueError("micro_batch and aggregate_steps must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.loss_id not in LOSS_IDS:
            raise ValueError(f"unknown loss id {self.loss_id!r}; choose from {LOSS_IDS}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_mcc: float
    lr: float
    train_mcc: float


@dataclass
class TrainResult:
    history: list[EpochStats]
    best_epoch: int
    best_val_loss: float
    halted: bool = False


def history_to_csv(history, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "val_mcc", "lr"])
        for row in history:
            writer.writerow([row.epoch, f"{row.train_loss:.10g}",
                             f"{row.val_loss:.10g}", f"{row.val_mcc:.10g}",
                             f"{row.lr:.10g}"])


# Record field each head is trained against.
_TARGET_FIELDS = {"segmentation": "onehot", "boundary": "boundary",
                  "distance": "distance", "color": "hsv"}


def batch_loss(model, records, loss_id):
    """Forward one micro-batch of records; returns (multitask loss, model output).

    Only the targets of the model's own heads are stacked.
    """
    out = model(Node(np.stack([r.image for r in records])))
    targets = {task: np.stack([getattr(r, _TARGET_FIELDS[task]) for r in records])
               for task in out.tasks()}
    return multitask_loss(out, targets, loss_id=loss_id), out


def _add_confusion(cm, out, records, n_classes):
    """``cm`` plus the confusion of one micro-batch: segmentation argmax vs. masks."""
    c = confusion(out.segmentation.value.argmax(axis=1),
                  np.stack([r.mask for r in records]), n_classes)
    return c if cm is None else cm + c


def evaluate_records(model, records, loss_id, micro_batch, n_classes):
    """Eval-mode loss and micro-pooled MCC over a record list."""
    if not records:
        raise ValueError("evaluate_records needs at least one record")
    cm, loss_sum = None, 0.0
    with model.evaluating():
        for chunk in micro_batches(records, micro_batch):
            loss, out = batch_loss(model, chunk, loss_id)
            loss_sum += loss.item() * len(chunk)
            cm = _add_confusion(cm, out, chunk, n_classes)
    mcc = metrics(cm)["overall"]["mcc"]
    return loss_sum / len(records), mcc


def train(model, train_records, val_records, cfg: TrainConfig) -> TrainResult:
    """Plateau-scheduled Adam training; the model ends at the best-val state.

    Per epoch: seeded shuffle, optional augmentation (fresh generator per
    sample, derived from (seed, epoch, index) so runs are bit-reproducible),
    one Adam step per ``aggregate_steps`` consecutive micro-batches of the
    shuffled order, then eval-mode validation loss and MCC.  A non-finite
    loss halts training and restores the best checkpoint.
    """
    if not train_records or not val_records:
        raise ValueError("train() needs non-empty train and val record lists")
    n_classes = train_records[0].n_classes
    params = model.parameters()
    opt = Adam(params, lr=cfg.lr, betas=cfg.betas)

    best_state = {k: v.copy() for k, v in model.state_dict().items()}
    best_val, best_epoch = np.inf, -1
    stale, reductions = 0, 0
    history: list[EpochStats] = []
    halted = False

    def sample(i, epoch):
        if cfg.augment is None:
            return train_records[i]
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, epoch, int(i))))
        return augment_record(train_records[i], cfg.augment, rng)

    for epoch in range(cfg.max_epochs):
        model.train()
        order = np.random.default_rng(
            np.random.SeedSequence((cfg.seed, epoch))).permutation(len(train_records))
        chunks = micro_batches(order, cfg.micro_batch)
        epoch_loss, seen = 0.0, 0
        cm = None
        for lo in range(0, len(chunks), cfg.aggregate_steps):
            micro = [[sample(i, epoch) for i in chunk]
                     for chunk in chunks[lo:lo + cfg.aggregate_steps]]
            n = sum(map(len, micro))

            def forward(chunk):
                nonlocal cm
                loss, out = batch_loss(model, chunk, cfg.loss_id)
                cm = _add_confusion(cm, out, chunk, n_classes)
                return loss

            agg = aggregate_gradients(forward, params, micro)
            if not np.isfinite(agg):
                halted = True
                break
            opt.step()
            epoch_loss += agg * n
            seen += n
        if halted:
            break

        train_mcc = metrics(cm)["overall"]["mcc"]
        val_loss, val_mcc = evaluate_records(
            model, val_records, cfg.loss_id, cfg.micro_batch, n_classes)
        history.append(EpochStats(epoch=epoch, train_loss=epoch_loss / seen,
                                  val_loss=val_loss, val_mcc=val_mcc,
                                  lr=opt.lr, train_mcc=train_mcc))

        if val_loss < best_val:
            best_val, best_epoch, stale = val_loss, epoch, 0
            best_state = {k: v.copy() for k, v in model.state_dict().items()}
        else:
            stale += 1
            if stale >= cfg.plateau_patience and reductions < cfg.max_reductions:
                opt.lr *= cfg.plateau_factor
                reductions += 1
                stale = 0

    model.load_state_dict(best_state)
    return TrainResult(history=history, best_epoch=best_epoch,
                       best_val_loss=float(best_val), halted=halted)
