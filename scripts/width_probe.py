"""Memory and time of one training step at the paper's width.

Builds a d6 trunk with 32 initial filters and the conditioned multitask
(cmtsk) head, derives the targets of one synthetic 256 px scene, and runs

  * one batch-1 train step: forward with the multitask loss, then backward;
  * one eval-mode forward of a single window (no graph is recorded);
  * the optimizer's part of the step: ``Adam.step`` on those gradients,
    then the ``zero_grad`` that starts the next step.

It prints the wall seconds of each phase and of the full step (forward,
backward and optimizer), the CPU seconds (user plus system, all threads) of
forward, backward, the eval window and ``Adam.step`` next to them, so that
work on a second CPU shows, the absolute sum and a SHA-256 digest of every
parameter gradient and a digest of the parameters after the Adam step (so
two builds can be checked for bit-identical gradients and updates),
``eval_sha256``, a digest of the eval window's outputs (so that a change to
inference numerics shows as a new value), the process's peak RSS from
``getrusage`` after the backward pass and at the end,
``graph_mb_at_backward``, the MB of op values that the records of the
recorded graph save when backward starts (``autodiff.owned_bytes``), with
its breakdown by the op whose record saves each array,
``graph_other_mb_at_backward``, the MB of the other arrays that the
backward closures hold (the input batch, loss targets, argmax indices and
per-channel statistics; the parameters are left out), by op, and the minor
page faults (``ru_minflt``) taken during forward plus backward, the eval
window, ``Adam.step`` and ``zero_grad``.  Forward and backward run under
perfbench's tracer (``perfbench/optrace.py``), which
gives the per-op table ``train_step_ops``: calls, forward and backward ms
and share of forward plus backward for each nnops op, each conv2d class and
the autodiff arithmetic.  A run takes about 12 s and 2 GB; pin BLAS to one
thread for comparable numbers:

    OPENBLAS_NUM_THREADS=1 python3 scripts/width_probe.py
"""

from __future__ import annotations

import collections
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from atrousseg.autodiff import owned_bytes
from atrousseg.labels import derive_record
from atrousseg.models import ModelSpec, build_model
from atrousseg.synth import SceneSpec, generate
from atrousseg.trainer import Adam, batch_loss

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import optrace  # noqa: E402

FILTERS, SIZE, SEED, CLASSES = 32, 256, 0, 6


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux, bytes on macOS
    scale = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale / 2**20


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def sha256_hex(arrays) -> str:
    """SHA-256 of the arrays' bytes in C order, one after another."""
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def timed(fn) -> tuple[float, float, int]:
    """Wall seconds, CPU seconds and minor page faults of one call of fn."""
    f0, c0, t0 = minor_faults(), cpu_seconds(), time.perf_counter()
    fn()
    return time.perf_counter() - t0, cpu_seconds() - c0, minor_faults() - f0


def block(a: np.ndarray) -> np.ndarray:
    """The array whose memory ``a`` views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def closure_arrays(fn):
    """The arrays that the closure ``fn`` holds, through the closures, lists
    and tuples it holds."""
    stack, seen = [fn], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif callable(obj):
            stack.extend(cell.cell_contents for cell in getattr(obj, "__closure__", None) or ())


def graph_census(root, params) -> tuple[float, dict, float, dict]:
    """MB of op values that the records of the graph under ``root`` save, in
    total and by the op whose record saves each array, named from its
    backward closure ("batch_norm.<locals>.backward"; the tracer keeps the
    name); then the MB of the other arrays the closures hold, in total and
    by op, memory that ``params`` view left out."""
    held = owned_bytes(root)
    counted = {id(block(a)) for rec, _ in held for a in rec.saved}
    counted |= {id(block(p.value)) for p in params}
    mb, records, other = collections.Counter(), collections.Counter(), collections.Counter()
    for rec, size in held:
        op = rec.backward.__qualname__.split(".<locals>.")[-2]
        mb[op] += size / 2**20
        records[op] += 1
        for a in closure_arrays(rec.backward):
            if id(block(a)) not in counted:
                counted.add(id(block(a)))
                other[op] += block(a).nbytes / 2**20
    return (round(sum(mb.values()), 1),
            {op: {"mb": round(v, 1), "records": records[op]} for op, v in mb.most_common()},
            round(sum(other.values()), 1),
            {op: round(v, 2) for op, v in other.most_common()})


def op_table(tracer: optrace.Tracer, step_s: float) -> dict:
    """Calls, forward and backward ms and train-step share of each traced op."""
    metrics = optrace.layer_metrics(tracer, optrace.Tracer(), units=1,
                                    unit_seconds=step_s, overhead_frac=0.0)
    ops = ([f"nnops.{op}" for op in optrace.NN_OPS]
           + [f"nnops.conv2d.{cls}" for cls in optrace.CONV_CLASSES] + ["autodiff.arith"])
    table = {}
    for op in ops:
        if metrics[f"{op}.calls"]:
            fwd, bwd = metrics[f"{op}.fwd_ms"], metrics[f"{op}.bwd_ms"]
            table[op] = {"calls": int(metrics[f"{op}.calls"]),
                         "fwd_ms": round(fwd, 1), "bwd_ms": round(bwd, 1),
                         "step_share": round((fwd + bwd) / (step_s * 1e3), 3)}
    return table


def main() -> None:
    scene = generate(SceneSpec(size=SIZE, n_classes=CLASSES, n_images=1, seed=SEED))[0]
    record = derive_record(scene.image, scene.mask, CLASSES)
    model = build_model(ModelSpec(depth="d6", initial_filters=FILTERS,
                                  n_classes=CLASSES, input_channels=3, head="cmtsk"),
                        seed=SEED)
    params = model.parameters()

    tracer = optrace.Tracer()
    with tracer.installed():
        f0, c0, t0 = minor_faults(), cpu_seconds(), time.perf_counter()
        loss, _ = batch_loss(model, [record], "tanimoto-complement")
        t1, c1 = time.perf_counter(), cpu_seconds()
        graph_mb, graph_by_op, other_mb, other_by_op = graph_census(loss, params)  # untimed
        t2, c2 = time.perf_counter(), cpu_seconds()
        loss.backward()
        t3, c3, f1 = time.perf_counter(), cpu_seconds(), minor_faults()
    step_rss = peak_rss_mb()
    step_s = (t1 - t0) + (t3 - t2)

    grads = [np.ascontiguousarray(p.grad) for p in params]  # C order: layout-free sums
    grad_abs_sum = sum(float(np.abs(g).sum(dtype=np.float64)) for g in grads)
    grad_digest = sha256_hex(grads)
    del grads

    outputs = {}
    eval_s, eval_cpu_s, eval_flt = timed(
        lambda: outputs.update(model.predict(record.image[None])))
    eval_digest = sha256_hex(outputs[task] for task in sorted(outputs))
    del outputs

    opt = Adam(params)
    adam_s, adam_cpu_s, adam_flt = timed(opt.step)
    updated_digest = sha256_hex(p.value for p in params)
    zero_s, _, zero_flt = timed(opt.zero_grad)

    print(json.dumps({
        "loss": f"{loss.item():.17g}",
        "forward_s": round(t1 - t0, 3), "backward_s": round(t3 - t2, 3),
        "adam_step_s": round(adam_s, 3), "zero_grad_s": round(zero_s, 3),
        "full_step_s": round(step_s + adam_s + zero_s, 3),
        "eval_window_s": round(eval_s, 3),
        "forward_cpu_s": round(c1 - c0, 3), "backward_cpu_s": round(c3 - c2, 3),
        "eval_window_cpu_s": round(eval_cpu_s, 3), "adam_step_cpu_s": round(adam_cpu_s, 3),
        "grad_abs_sum": f"{grad_abs_sum:.17g}", "grad_sha256": grad_digest,
        "param_sha256_after_adam": updated_digest, "eval_sha256": eval_digest,
        "peak_rss_mb_after_step": round(step_rss, 1),
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "graph_mb_at_backward": graph_mb, "graph_at_backward_by_op": graph_by_op,
        "graph_other_mb_at_backward": other_mb, "graph_other_at_backward_by_op": other_by_op,
        "minflt_train_step": f1 - f0, "minflt_eval_window": eval_flt,
        "minflt_adam_step": adam_flt, "minflt_zero_grad": zero_flt,
        "train_step_ops": op_table(tracer, step_s),
    }, indent=2))


if __name__ == "__main__":
    main()
