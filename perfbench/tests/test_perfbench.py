"""Tests of the benchmark's own machinery: tracing must not change results,
must undo itself, and its shape-derived counters must be exact.

    python3 -m pytest perfbench/tests -q
"""

import json
import time

import numpy as np
import pytest

import optrace
import reference
import run
import workloads
from atrousseg import labels, losses, models, nnops
from atrousseg.autodiff import Node

ROOT = run.ROOT


def _loss_and_grads(seed=0):
    spec = models.ModelSpec(depth="d6", initial_filters=4, n_classes=3, head="cmtsk")
    model = models.build_model(spec, seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.random((2, 3, 32, 32)).astype(np.float32)
    recs = [labels.derive_record(x[i], rng.integers(0, 3, (32, 32)), 3) for i in range(2)]
    targets = {"segmentation": np.stack([r.onehot for r in recs]),
               "boundary": np.stack([r.boundary for r in recs]),
               "distance": np.stack([r.distance for r in recs]),
               "color": np.stack([r.hsv for r in recs])}
    out = model(Node(x))
    loss = losses.multitask_loss(out, targets)
    loss.backward()
    state = {k: v.copy() for k, v in model.state_dict().items()}
    grads = {k: p.grad.copy() for k, p in model.named_parameters()}
    return loss.value.copy(), out.arrays(), grads, state


def _current_attributes():
    attrs = [("atrousseg.nnops", "conv2d")] + [(m, a) for m, a, _, _ in optrace.WRAPS]
    return {(m, a): vars(owner)[name]
            for m, a in attrs for owner, name in [optrace._resolve(m, a)]}


def test_wrapped_ops_are_bit_identical_and_unwrap_restores():
    originals = _current_attributes()
    plain = _loss_and_grads()
    tracer = optrace.Tracer()
    with tracer.installed():
        assert nnops.conv2d is not originals[("atrousseg.nnops", "conv2d")]
        traced = _loss_and_grads()
    restored = _current_attributes()
    assert all(restored[key] is fn for key, fn in originals.items())

    assert np.array_equal(plain[0], traced[0])
    for p, t in zip(plain[1:], traced[1:]):
        assert p.keys() == t.keys()
        for key in p:
            assert p[key].dtype == t[key].dtype
            assert np.array_equal(p[key], t[key]), key
    counts, _, _ = optrace.span_totals(tracer)
    assert counts["nnops.conv2d.k3d1"] > 0 and counts["nnops.conv2d.k3d1.backward"] > 0
    assert counts["autodiff.backward"] == 1 and counts["models.forward"] == 1


def _padding_brute_force(h, w, k, stride, dilation):
    before = (k - 1) * dilation // 2
    ho, wo = -(-h // stride), -(-w // stride)
    padded = 0
    for r in range(ho):
        for c in range(wo):
            for i in range(k):
                for j in range(k):
                    rr = r * stride - before + i * dilation
                    cc = c * stride - before + j * dilation
                    padded += not (0 <= rr < h and 0 <= cc < w)
    return padded, ho * wo * k * k


SHAPES = [(8, 8, 3, 1, 1), (7, 5, 3, 1, 2), (8, 8, 3, 2, 1), (9, 9, 1, 2, 1),
          (8, 8, 1, 1, 1), (8, 8, 3, 1, 15), (4, 4, 3, 1, 31), (6, 10, 3, 2, 3),
          (5, 5, 3, 2, 8), (16, 16, 3, 1, 8), (1, 1, 3, 1, 1)]


@pytest.mark.parametrize("h,w,k,stride,dilation", SHAPES)
def test_padding_macs_match_brute_force(h, w, k, stride, dilation):
    n, cin, cout = 2, 3, 5
    padded, taps = _padding_brute_force(h, w, k, stride, dilation)
    got = optrace.padding_macs((n, cin, h, w), (cout, cin, k, k), stride, dilation)
    assert got == (padded * n * cin * cout, taps * n * cin * cout)


@pytest.mark.parametrize("h,w,k,stride,dilation", SHAPES)
def test_padding_convention_matches_conv2d(h, w, k, stride, dilation):
    # All-ones input and kernel: each output counts the taps inside the plane.
    out = nnops.conv2d(np.ones((1, 1, h, w)), np.ones((1, 1, k, k)),
                       stride=stride, dilation=dilation).value
    padded, taps = optrace.padding_macs((1, 1, h, w), (1, 1, k, k), stride, dilation)
    assert taps - padded == int(round(out.sum()))


def test_self_time_and_request_ids():
    tracer = optrace.Tracer()
    with tracer.span("outside"):
        with tracer.span("perfbench.record"):
            with tracer.span("child"):
                time.sleep(0.002)
            time.sleep(0.002)
    with tracer.span("perfbench.record"):
        pass
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names == ["outside", "perfbench.record", "child", "perfbench.record"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, -1]
    assert [s[4] for s in tracer.spans] == [-1, 0, 0, 1]
    counts, totals, selfs = optrace.span_totals(tracer)
    req0 = tracer.spans[1][2] - tracer.spans[1][1]
    child = tracer.spans[2][2] - tracer.spans[2][1]
    assert selfs["outside"] == pytest.approx(totals["outside"] - req0)
    assert selfs["perfbench.record"] == pytest.approx(totals["perfbench.record"] - child)
    assert counts["perfbench.record"] == 2


def test_benchmark_json_matches_the_catalogs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        optrace.per_layer_catalog()
    empty = optrace.layer_metrics(optrace.Tracer(), optrace.Tracer(), units=1,
                                  unit_seconds=1.0, overhead_frac=0.0)
    assert set(empty) == {name for name, _, _ in optrace.per_layer_catalog()}


def test_reference_scaling_cancels_a_uniform_slowdown():
    fast = workloads.Rep(seconds=2.0, items=10, units=1, attempted=1,
                         ref_seconds=[0.01, 0.012, 0.014])
    slow = workloads.Rep(seconds=3.0, items=10, units=1, attempted=1,
                         ref_seconds=[0.015, 0.018, 0.021])
    assert workloads.median_ref_rate([fast]) == pytest.approx(workloads.median_ref_rate([slow]))
    # At one block per 1/REF_BLOCKS_PER_S s, reference-seconds are wall seconds.
    idle = 1.0 / reference.REF_BLOCKS_PER_S
    assert reference.reference_seconds(2.5, [idle, idle]) == pytest.approx(2.5)
    block = reference.Reference()
    assert block() > 0 and len(block.samples) == 1
