"""Command-line surface.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 numerical
failure.  Failures print exactly one machine-parsable line on stderr:
``error kind=<config|data|numeric> msg="..."``.

``main`` owns the mapping: a bad or missing flag is ``config``, any OSError
is ``data``, and a ValueError or KeyError takes the ``kind`` its command
declares in ``build_parser``; only a step whose kind differs says so itself.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import evaluate, fileio, losses, pipeline, synth
from .config import apply_overrides, load_config
from .labels import check_sample, derive_record
from .models import DEPTHS, HEADS, ModelSpec, build_model, load_checkpoint, param_count
from .trainer import batch_loss, lr_finder, micro_batches


class CliError(Exception):
    CODES = {"config": 1, "data": 2, "numeric": 3}

    def __init__(self, kind: str, message):
        super().__init__(str(message))
        self.kind = kind
        self.code = self.CODES[kind]


@contextmanager
def _reraise(kind: str, *types):
    """Report an exception of ``types`` raised in the body as a CliError of ``kind``."""
    try:
        yield
    except types as exc:
        raise CliError(kind, exc) from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError("config", f"{self.prog}: {message}")


def _load_run_config(args):
    flags = {k: getattr(args, k, None) for k in ("seed", "epochs", "model", "head", "loss")}
    with _reraise("config", TypeError):
        return apply_overrides(load_config(args.config), out_dir=args.out, **flags)


def _checked_records(cfg):
    """(train, val) records: unreadable data is a data error, and a model,
    data and split that do not fit are a config error (the commands' kind)."""
    with _reraise("data", ValueError):
        records = pipeline.build_records(cfg.data)
    return pipeline.prepare_records(cfg, records)


def cmd_synth(args) -> int:
    cfg = _load_run_config(args)
    spec = cfg.data.scene_spec()
    out = fileio.ensure_dir(Path(cfg.out_dir))
    synth.write_dataset(synth.generate(spec), out, spec)
    print(f"wrote {spec.n_images} scenes to {out}")
    return 0


def cmd_derive_labels(args) -> int:
    # one class count for the whole dataset, and every pair checked against
    # it, before --out is created
    pairs = synth.load_dataset(args.data)
    n_classes = args.classes
    if n_classes is None:
        n_classes = max((int(mask.max()) for _, mask in pairs), default=0) + 1
    for image, mask in pairs:
        check_sample(image, mask, n_classes)
    out = fileio.ensure_dir(args.out)

    def derive_one(item):
        i, (image, mask) = item
        rec = derive_record(image, mask, n_classes)
        stem = out / f"record_{i:04d}"
        for name in ("onehot", "boundary", "distance", "hsv"):
            fileio.write_nct(f"{stem}.{name}.nct", getattr(rec, name))
        return i

    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        done = list(pool.map(derive_one, enumerate(pairs)))
    print(f"derived labels for {len(done)} records under {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    train_recs, val_recs = _checked_records(cfg)
    result = pipeline.run_training(cfg, train_recs, val_recs)
    if result.halted:
        raise CliError("numeric",
                       f"non-finite loss after epoch {len(result.history)}; "
                       f"best checkpoint (epoch {result.best_epoch}) restored and saved")
    last = result.history[-1]
    print(f"trained {len(result.history)} epochs; "
          f"best val loss {result.best_val_loss:.6f} at epoch {result.best_epoch}; "
          f"final val MCC {last.val_mcc:.4f}; artifacts in {Path(cfg.out_dir)}")
    return 0


def cmd_lr_find(args) -> int:
    cfg = _load_run_config(args)
    train_recs, _ = _checked_records(cfg)
    model = build_model(cfg.model, seed=cfg.train.seed)
    batches = micro_batches(train_recs, cfg.train.micro_batch)

    def loss_fn(chunk):
        return batch_loss(model, chunk, cfg.train.loss_id)[0]

    res = lr_finder(loss_fn, model.parameters(), batches, lr_lo=args.lr_lo,
                    lr_hi=args.lr_hi, steps=args.steps)
    out = fileio.ensure_dir(Path(cfg.out_dir))
    with open(out / "lr_curve.csv", "w") as fh:
        fh.write("lr,loss,smoothed\n")
        for row in zip(res.lrs, res.losses, res.smoothed):
            fh.write(",".join(f"{v:.10g}" for v in row) + "\n")
    with open(out / "lr_suggestion.json", "w") as fh:
        json.dump({"suggestion": res.suggestion, "diverged": res.diverged,
                   "diagnostic": res.diagnostic}, fh, indent=2)
    if res.diverged:
        raise CliError("numeric", f"lr finder diverged: {res.diagnostic}")
    print(f"suggested lr: {res.suggestion:.3e} (curve: {out / 'lr_curve.csv'})")
    return 0


def cmd_infer(args) -> int:
    model = load_checkpoint(args.checkpoint)
    tile = fileio.read_image(args.image)
    probs = evaluate.sliding_window_inference(tile, model, window=args.window)
    if not all(np.isfinite(plane).all() for plane in probs):
        raise CliError("numeric", "non-finite probabilities produced during inference")
    out = fileio.ensure_dir(args.out)
    fileio.write_nct(out / "probabilities.nct", probs)
    # argmax over the leading axis copies all of probs first; a row at a time
    # copies a row
    pred = np.empty(probs.shape[1:], dtype=np.uint8)
    for i in range(pred.shape[0]):
        pred[i] = probs[:, i].argmax(axis=0)
    fileio.write_pgm(out / "prediction.pgm", pred)
    print(f"wrote probabilities and prediction to {out}")
    return 0


def cmd_eval(args) -> int:
    pred = fileio.read_pgm(args.pred)
    ref = fileio.read_pgm(args.ref)
    cm = evaluate.confusion(pred, ref, ignore=args.ignore)
    result = evaluate.metrics(cm, exclude=set(args.exclude or []))
    out = fileio.ensure_dir(args.out)
    with open(out / "metrics.json", "w") as fh:
        json.dump(result, fh, indent=2)
    evaluate.write_error_map(out / "error_map.ppm",
                             evaluate.error_map(pred, ref, ignore=args.ignore))
    print(json.dumps(result["overall"]))
    return 0


def cmd_loss_field(args) -> int:
    gt = tuple(float(v) for v in args.gt.split(","))
    if len(gt) != 2:
        raise ValueError("--gt expects two comma-separated values, e.g. 1,0")
    field = losses.field_sample(args.loss, l=gt, grid_n=args.grid)
    out = Path(args.out)
    if out.parent != Path(""):
        fileio.ensure_dir(out.parent)
    losses.field_to_csv(field, out)
    print(f"wrote {args.grid * args.grid} samples to {out}")
    return 0


def cmd_param_count(args) -> int:
    spec = ModelSpec(depth=args.model, initial_filters=args.filters,
                     n_classes=args.classes, input_channels=args.channels,
                     head=args.head)
    model = build_model(spec, seed=0)
    print(json.dumps({"depth": spec.depth, "head": spec.head,
                      "initial_filters": spec.initial_filters,
                      "input_channels": spec.input_channels,
                      "n_classes": spec.n_classes,
                      "param_count": param_count(model)}))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_config_flags(p, with_overrides: bool = True):
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--out", help="output directory (overrides config out_dir)")
    if with_overrides:
        p.add_argument("--seed", type=int)
        p.add_argument("--epochs", type=int)
        p.add_argument("--model", choices=DEPTHS)
        p.add_argument("--head", choices=HEADS)
        p.add_argument("--loss", choices=losses.LOSS_IDS)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="atrousseg",
        description="Multitask semantic segmentation with atrous residual encoders")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_config_flags(p, with_overrides=False)
    p.set_defaults(func=cmd_synth, kind="config")

    p = sub.add_parser("derive-labels", help="derive target channels for a dataset")
    p.add_argument("--data", required=True, help="dataset directory (manifest.json)")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int,
                   help="class count (default: the largest class id in any mask, plus one)")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.set_defaults(func=cmd_derive_labels, kind="data")

    p = sub.add_parser("train", help="train a model per config")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train, kind="config")

    p = sub.add_parser("lr-find", help="learning-rate range sweep")
    _add_config_flags(p)
    p.add_argument("--lr-lo", type=float, default=1e-6)
    p.add_argument("--lr-hi", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=100)
    p.set_defaults(func=cmd_lr_find, kind="config")

    p = sub.add_parser("infer", help="sliding-window inference over a tile")
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.add_argument("--image", required=True, help="input tile (.ppm or .nct)")
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=256)
    p.set_defaults(func=cmd_infer, kind="data")

    p = sub.add_parser("eval", help="metrics between predicted and reference masks")
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--ignore", type=int)
    p.add_argument("--exclude", type=int, nargs="*",
                   help="class ids excluded from avg_F1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval, kind="data")

    p = sub.add_parser("loss-field", help="sample a loss surface on [0,1]^2")
    p.add_argument("--loss", required=True, choices=losses.LOSS_IDS)
    p.add_argument("--gt", default="1,0", help="ground-truth pair in [0, 1], e.g. 1,0")
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(func=cmd_loss_field, kind="config")

    p = sub.add_parser("param-count", help="parameter count for a model spec")
    p.add_argument("--model", default="d6", choices=DEPTHS)
    p.add_argument("--head", default="single", choices=HEADS)
    p.add_argument("--filters", type=int, default=32)
    p.add_argument("--classes", type=int, default=6)
    p.add_argument("--channels", type=int, default=3)
    p.set_defaults(func=cmd_param_count, kind="config")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with _reraise("data", OSError), _reraise(args.kind, ValueError, KeyError):
            return args.func(args)
    except CliError as exc:
        msg = str(exc).replace('"', "'").replace("\n", " ")
        print(f'error kind={exc.kind} msg="{msg}"', file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
