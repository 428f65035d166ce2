"""Outside-in tracing: time atrousseg's public functions by wrapping them.

Nothing in ``src/`` knows about this module.  :meth:`Tracer.install` replaces
module and class attributes (``atrousseg.nnops.conv2d``, ``Node.backward``,
``Adam.step``, ...) with wrappers that record a span around the original
call; :meth:`Tracer.uninstall` puts the originals back.  A wrapped op that
returns a graph node also gets its backward closure wrapped, so per-op
backward time is measured at the node the op created.

Callers inside ``src/`` reach the wrapped functions because they look them
up as module attributes at call time (``nnops.conv2d(...)``).  Functions
imported by name into another module (``trainer.augment_record``) are
separate bindings and are wrapped there too, under the same span name.

Spans are kept in memory as ``[name id, start, end, parent, request]`` and
written out once at the end of a run; self times and per-layer metrics are
derived from them afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from dataclasses import dataclass

import numpy as np

NN_OPS = ("conv2d", "batch_norm", "relu", "sigmoid", "softmax_channel",
          "max_pool_grid", "nearest_upsample", "concat_channels", "channel_slice")
CONV_CLASSES = ("k1s1", "k1s2", "k3d1", "k3d3", "k3d15", "k3d31")
ARITH = ("add", "mul", "div", "power", "reduce_sum")

# (module, attribute, span name, time the returned node's backward closure)
WRAPS = (
    *[("atrousseg.nnops", op, f"nnops.{op}", True) for op in NN_OPS if op != "conv2d"],
    *[("atrousseg.autodiff", op, f"autodiff.{op}", True) for op in ARITH],
    ("atrousseg.autodiff", "Node.backward", "autodiff.backward", False),
    ("atrousseg.models", "SegmentationModel.forward", "models.forward", False),
    ("atrousseg.models", "SegmentationModel.predict", "evaluate.predict", False),
    ("atrousseg.models", "load_checkpoint", "models.load_checkpoint", False),
    ("atrousseg.models", "save_checkpoint", "models.save_checkpoint", False),
    ("atrousseg.trainer", "multitask_loss", "losses.multitask_loss", False),
    ("atrousseg.trainer", "aggregate_gradients", "trainer.step", False),
    ("atrousseg.trainer", "Adam.step", "trainer.adam_step", False),
    ("atrousseg.trainer", "evaluate_records", "trainer.evaluate_records", False),
    ("atrousseg.trainer", "confusion", "evaluate.confusion", False),
    ("atrousseg.trainer", "augment_record", "augment.augment_record", False),
    ("atrousseg.evaluate", "confusion", "evaluate.confusion", False),
    ("atrousseg.evaluate", "sliding_window_inference", "evaluate.sliding_window", False),
    ("atrousseg.augment", "augment_record", "augment.augment_record", False),
    ("atrousseg.augment", "random_affine", "augment.random_affine", False),
    ("atrousseg.augment", "random_flip", "augment.random_flip", False),
    ("atrousseg.augment", "derive_record", "augment.rederive", False),
    ("atrousseg.labels", "derive_record", "labels.derive_record", False),
    ("atrousseg.labels", "one_hot", "labels.one_hot", False),
    ("atrousseg.labels", "get_boundary", "labels.get_boundary", False),
    ("atrousseg.labels", "get_distance", "labels.get_distance", False),
    ("atrousseg.labels", "rgb_to_hsv", "labels.rgb_to_hsv", False),
    ("atrousseg.fileio", "write_nct", "fileio.write_nct", False),
)

# Spans that open a request: a train step (forward, loss and backward of one
# optimizer window), an inference window, or a label-prep record.
REQUEST_SPANS = ("trainer.step", "evaluate.predict", "perfbench.record")


def _resolve(module: str, attr: str):
    """Return (owner, name) for 'func' or 'Class.method' inside ``module``."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def conv_class(kernel: int, stride: int, dilation: int) -> str:
    """Short class name of a convolution: k1s1, k1s2, k3d1, k3d15, ..."""
    name = f"k{kernel}"
    if kernel > 1:
        name += f"d{dilation}"
    if kernel == 1 or stride != 1:
        name += f"s{stride}"
    return name


def _valid_taps(n_in: int, n_out: int, kernel: int, stride: int, dilation: int) -> int:
    # (output index, tap) pairs along one axis whose input index is inside
    # [0, n_in), under conv2d's "same" padding (extra pixel trailing).
    before = (kernel - 1) * dilation // 2
    valid = 0
    for t in range(kernel):
        off = t * dilation - before
        lo = max(0, -(off // stride))                       # o * stride + off >= 0
        hi = min(n_out - 1, (n_in - 1 - off) // stride)     # o * stride + off < n_in
        valid += max(0, hi - lo + 1)
    return valid


def padding_macs(x_shape, w_shape, stride: int, dilation: int) -> tuple[int, int]:
    """(MACs reading only zero padding, all MACs) of one conv2d forward."""
    n, cin, h, w = x_shape
    cout, _, k, _ = w_shape
    ho, wo = -(-h // stride), -(-w // stride)
    taps = ho * wo * k * k
    inside = (_valid_taps(h, ho, k, stride, dilation)
              * _valid_taps(w, wo, k, stride, dilation))
    per_tap = n * cin * cout
    return (taps - inside) * per_tap, taps * per_tap


@dataclass
class ConvStats:
    """Totals for one conv2d key (input shape, weight shape, dilation, stride)."""
    padded_macs_per_call: int
    macs_per_call: int
    calls: int = 0
    bwd_calls: int = 0
    fwd_s: float = 0.0
    bwd_s: float = 0.0
    flops: int = 0
    bytes: int = 0


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.conv: dict[tuple, ConvStats] = {}
        self._request_ids = {self.name_id(n) for n in REQUEST_SPANS}
        self._stack: list[int] = []
        self._request = -1
        self._request_span = -1
        self._n_requests = 0
        self._saved: list[tuple] = []
        self.nct_bytes = 0

    # -- spans -----------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if self._request < 0 and nid in self._request_ids:
            self._request, self._request_span = self._n_requests, idx
            self._n_requests += 1
        self._stack.append(idx)
        self.spans.append([nid, time.perf_counter(), 0.0, parent, self._request])
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        if idx == self._request_span:
            self._request = self._request_span = -1

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.end(idx)

    # -- wrappers --------------------------------------------------------
    def _timed(self, fn, nid: int, bwd_nid: int | None):
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            idx = begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(idx)
            if bwd_nid is not None and out._backward is not None:
                out._backward = self._timed(out._backward, bwd_nid, None)
            return out

        return functools.wraps(fn)(wrapper)

    def _timed_conv(self, fn):
        begin, end, conv, name_id = self.begin, self.end, self.conv, self.name_id

        def conv2d(x, w, b=None, stride=1, dilation=1):
            key = (tuple(x.shape), tuple(w.shape), dilation, stride)
            stats = conv.get(key)
            if stats is None:
                stats = conv[key] = ConvStats(*padding_macs(*key[:2], stride, dilation))
            cls = conv_class(w.shape[2], stride, dilation)
            idx = begin(name_id(f"nnops.conv2d.{cls}"))
            try:
                out = fn(x, w, b, stride=stride, dilation=dilation)
            finally:
                end(idx)
            span = self.spans[idx]
            stats.calls += 1
            stats.fwd_s += span[2] - span[1]
            xv, wv = np.asarray(getattr(x, "value", x)), np.asarray(getattr(w, "value", w))
            bias_bytes = 0 if b is None else np.asarray(getattr(b, "value", b)).nbytes
            stats.flops += 2 * stats.macs_per_call
            stats.bytes += xv.nbytes + wv.nbytes + bias_bytes + out.value.nbytes
            closure = out._backward
            if closure is None:
                return out
            bwd_nid = name_id(f"nnops.conv2d.{cls}.backward")
            x_grad, w_grad = getattr(x, "requires_grad", False), getattr(w, "requires_grad", False)

            def backward(g):
                bidx = begin(bwd_nid)
                try:
                    closure(g)
                finally:
                    end(bidx)
                bspan = self.spans[bidx]
                stats.bwd_calls += 1
                stats.bwd_s += bspan[2] - bspan[1]
                stats.flops += 2 * stats.macs_per_call * (x_grad + w_grad)
                stats.bytes += (np.asarray(g).nbytes + xv.nbytes + wv.nbytes
                                + x_grad * xv.nbytes + w_grad * wv.nbytes)

            out._backward = backward
            return out

        return functools.wraps(fn)(conv2d)

    def _counted_write(self, fn):
        def write_nct(path, array):
            fn(path, array)
            self.nct_bytes += os.path.getsize(path)

        return functools.wraps(fn)(write_nct)

    def install(self) -> None:
        """Swap every traced attribute for its timing wrapper."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            owner, name = _resolve("atrousseg.nnops", "conv2d")
            self._patch(owner, name, self._timed_conv(getattr(owner, name)))
            for module, attr, span, with_bwd in WRAPS:
                owner, name = _resolve(module, attr)
                fn = getattr(owner, name)
                if span == "fileio.write_nct":
                    fn = self._counted_write(fn)
                bwd = self.name_id(span + ".backward") if with_bwd else None
                self._patch(owner, name, self._timed(fn, self.name_id(span), bwd))
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, name, wrapper) -> None:
        # vars() gives the raw function of a class attribute, not a bound method.
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        """Restore every attribute that :meth:`install` replaced."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ----------------------------------------------------------
    def dump(self) -> dict:
        """Spans as plain lists: times in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["name", "start_us", "end_us", "parent", "request"],
            "names": self.names,
            "spans": [[nid, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p, r]
                      for nid, s, e, p, r in self.spans],
        }

    def conv_table(self) -> list[dict]:
        """One row per (input shape, weight shape, dilation, stride), slowest first."""
        rows = []
        for (xs, ws, dil, stride), st in self.conv.items():
            rows.append({
                "input_shape": list(xs), "weight_shape": list(ws),
                "dilation": dil, "stride": stride,
                "class": conv_class(ws[2], stride, dil),
                "calls": st.calls, "bwd_calls": st.bwd_calls,
                "fwd_ms": st.fwd_s * 1e3, "bwd_ms": st.bwd_s * 1e3,
                "padding_mac_frac": st.padded_macs_per_call / st.macs_per_call,
                "gflop": st.flops / 1e9,
            })
        rows.sort(key=lambda r: r["fwd_ms"] + r["bwd_ms"], reverse=True)
        return rows


def span_totals(tracer: Tracer) -> tuple[dict, dict, dict]:
    """Per span name: (call count, total seconds, total self seconds).

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because the program is single-threaded.
    """
    if not tracer.spans:
        return {}, {}, {}
    arr = np.array([s[:4] for s in tracer.spans], dtype=np.float64)
    nid, dur, parent = arr[:, 0].astype(np.int64), arr[:, 2] - arr[:, 1], arr[:, 3].astype(np.int64)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    k = len(tracer.names)
    counts = np.bincount(nid, minlength=k)
    totals = np.bincount(nid, weights=dur, minlength=k)
    selfs = np.bincount(nid, weights=dur - child, minlength=k)
    names = tracer.names
    return ({names[i]: int(counts[i]) for i in range(k)},
            {names[i]: float(totals[i]) for i in range(k)},
            {names[i]: float(selfs[i]) for i in range(k)})


def per_layer_catalog() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order.

    ``calls`` and ``*_ms`` are per work unit (a train-toy epoch, an
    infer-tile tile or a label-prep record), except the two checkpoint
    timings, which are per call during set-up.
    """
    cat = []

    def op(prefix):
        cat.extend([(f"{prefix}.calls", "count", "lower"), (f"{prefix}.fwd_ms", "ms", "lower"),
                    (f"{prefix}.bwd_ms", "ms", "lower")])

    for name in NN_OPS:
        op(f"nnops.{name}")
    for cls in CONV_CLASSES:
        op(f"nnops.conv2d.{cls}")
    cat += [
        ("nnops.conv2d.padding_mac_frac", "ratio", "lower"),
        ("nnops.conv2d.gflop", "GFLOP", "lower"),
        ("nnops.conv2d.min_mb", "MB", "lower"),
        ("nnops.conv2d.flop_per_byte", "FLOP/B", "higher"),
        ("nnops.conv2d.gflop_per_s", "GFLOP/s", "higher"),
        ("nnops.conv2d.request_share", "ratio", "lower"),
        ("autodiff.backward_ms", "ms", "lower"),
        ("autodiff.backward_self_ms", "ms", "lower"),
    ]
    op("autodiff.arith")
    cat += [(f"models.{m}", "ms", "lower") for m in
            ("forward_ms", "forward_self_ms", "load_checkpoint_ms", "save_checkpoint_ms")]
    cat += [("losses.multitask_loss_ms", "ms", "lower")]
    cat += [(f"trainer.{m}", "ms", "lower") for m in
            ("step_ms", "adam_step_ms", "evaluate_records_ms", "epoch_other_ms")]
    cat += [(f"augment.{m}", "ms", "lower") for m in
            ("augment_record_ms", "random_affine_ms", "rederive_ms", "random_flip_ms")]
    cat += [(f"labels.{m}", "ms", "lower") for m in
            ("derive_record_ms", "one_hot_ms", "get_boundary_ms", "get_distance_ms",
             "rgb_to_hsv_ms")]
    cat += [
        ("evaluate.sliding_window_ms", "ms", "lower"),
        ("evaluate.predict_calls", "count", "lower"),
        ("evaluate.predict_ms", "ms", "lower"),
        ("evaluate.tiling_self_ms", "ms", "lower"),
        ("evaluate.confusion_ms", "ms", "lower"),
        ("fileio.write_nct_ms", "ms", "lower"),
        ("fileio.mb_written", "MB", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return cat


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(unit: Tracer, setup: Tracer, units: int, unit_seconds: float,
                  overhead_frac: float) -> dict[str, float]:
    """Derive every per-layer metric of :func:`per_layer_catalog`.

    ``unit`` holds the spans of the traced work units (``units`` of them,
    ``unit_seconds`` of wall time in all); ``setup`` those of the traced
    set-ups, which only the checkpoint timings use.
    """
    counts, totals, selfs = span_totals(unit)
    per = 1.0 / units

    def ms(name, table=totals):
        return table.get(name, 0.0) * 1e3 * per

    def calls(name):
        return counts.get(name, 0) * per

    m: dict[str, float] = {}

    def op(prefix, fwd_names):
        m[f"{prefix}.calls"] = sum(calls(n) for n in fwd_names)
        m[f"{prefix}.fwd_ms"] = sum(ms(n) for n in fwd_names)
        m[f"{prefix}.bwd_ms"] = sum(ms(n + ".backward") for n in fwd_names)

    conv_names = [n for n in unit.names if n.startswith("nnops.conv2d.")
                  and not n.endswith(".backward")]
    for name in NN_OPS:
        op(f"nnops.{name}", conv_names if name == "conv2d" else [f"nnops.{name}"])
    for cls in CONV_CLASSES:
        op(f"nnops.conv2d.{cls}", [f"nnops.conv2d.{cls}"])

    stats = list(unit.conv.values())
    padded = sum(s.padded_macs_per_call * s.calls for s in stats)
    macs = sum(s.macs_per_call * s.calls for s in stats)
    flops = sum(s.flops for s in stats)
    nbytes = sum(s.bytes for s in stats)
    conv_s = sum(s.fwd_s + s.bwd_s for s in stats)
    m["nnops.conv2d.padding_mac_frac"] = _ratio(padded, macs)
    m["nnops.conv2d.gflop"] = flops / 1e9 * per
    m["nnops.conv2d.min_mb"] = nbytes / 1e6 * per
    m["nnops.conv2d.flop_per_byte"] = _ratio(flops, nbytes)
    m["nnops.conv2d.gflop_per_s"] = _ratio(flops / 1e9, conv_s)
    m["nnops.conv2d.request_share"] = _request_share(unit)

    m["autodiff.backward_ms"] = ms("autodiff.backward")
    m["autodiff.backward_self_ms"] = ms("autodiff.backward", selfs)
    op("autodiff.arith", [f"autodiff.{a}" for a in ARITH])

    s_counts, s_totals, _ = span_totals(setup)
    m["models.forward_ms"] = ms("models.forward")
    m["models.forward_self_ms"] = ms("models.forward", selfs)
    for name in ("load_checkpoint", "save_checkpoint"):
        span = f"models.{name}"
        m[f"models.{name}_ms"] = _ratio(s_totals.get(span, 0.0) * 1e3, s_counts.get(span, 0))
    m["losses.multitask_loss_ms"] = ms("losses.multitask_loss")

    for name in ("step", "adam_step", "evaluate_records"):
        m[f"trainer.{name}_ms"] = ms(f"trainer.{name}")
    m["trainer.epoch_other_ms"] = 0.0
    if counts.get("trainer.step"):
        inside = sum(m[f"trainer.{n}_ms"] for n in ("step", "adam_step", "evaluate_records"))
        m["trainer.epoch_other_ms"] = (unit_seconds * 1e3 * per - inside
                                       - ms("augment.augment_record"))

    for name in ("augment_record", "random_affine", "rederive", "random_flip"):
        m[f"augment.{name}_ms"] = ms(f"augment.{name}")
    for name in ("derive_record", "one_hot", "get_boundary", "get_distance", "rgb_to_hsv"):
        m[f"labels.{name}_ms"] = ms(f"labels.{name}")

    m["evaluate.sliding_window_ms"] = ms("evaluate.sliding_window")
    m["evaluate.predict_calls"] = calls("evaluate.predict")
    m["evaluate.predict_ms"] = ms("evaluate.predict")
    m["evaluate.tiling_self_ms"] = ms("evaluate.sliding_window", selfs)
    m["evaluate.confusion_ms"] = ms("evaluate.confusion")
    m["fileio.write_nct_ms"] = ms("fileio.write_nct")
    m["fileio.mb_written"] = unit.nct_bytes / 1e6 * per
    m["trace.overhead_frac"] = overhead_frac
    return m


def _request_share(tracer: Tracer) -> float:
    """Share of request time (train step, inference window) spent in conv2d."""
    conv_ids = {i for i, n in enumerate(tracer.names) if n.startswith("nnops.conv2d.")}
    request_ids = tracer._request_ids
    conv_s = request_s = 0.0
    for nid, start, end, _, req in tracer.spans:
        if req < 0:
            continue
        if nid in conv_ids:
            conv_s += end - start
        elif nid in request_ids:
            request_s += end - start
    return _ratio(conv_s, request_s)
