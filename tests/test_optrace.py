"""perfbench's tracer wraps atrousseg functions by module and attribute
name.  Installing it here means that deleting or renaming a traced
attribute fails this suite, not only a traced benchmark run."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import optrace  # noqa: E402

from atrousseg import labels, trainer  # noqa: E402
from atrousseg.models import ModelSpec, build_model  # noqa: E402

TRACED = [("atrousseg.nnops", "conv2d")] + [(m, a) for m, a, _, _ in optrace.WRAPS]


def traced_attributes():
    return [vars(owner)[name] for owner, name in
            (optrace._resolve(module, attr) for module, attr in TRACED)]


@pytest.fixture(scope="module")
def traced_step():
    """(attributes before, during and after install, span call counts) of
    one traced train step of a toy-width d6 cmtsk model."""
    rng = np.random.default_rng(1234)
    before = traced_attributes()
    tracer = optrace.Tracer()
    with tracer.installed():
        during = traced_attributes()
        model = build_model(ModelSpec(depth="d6", initial_filters=4, n_classes=3,
                                      input_channels=3, head="cmtsk"))
        records = [labels.derive_record(rng.random((3, 32, 32)),
                                        rng.integers(0, 3, (32, 32)), 3)
                   for _ in range(2)]
        # through the module attributes, which are what the tracer replaces
        trainer.aggregate_gradients(
            lambda chunk: trainer.batch_loss(model, chunk, "tanimoto-complement")[0],
            model.parameters(), [records])
    return before, during, traced_attributes(), optrace.span_totals(tracer)[0]


def test_tracer_wraps_every_attribute_and_restores_them(traced_step):
    before, during, after, calls = traced_step
    assert all(now is not old for now, old in zip(during, before))
    assert all(now is old for now, old in zip(after, before))
    for span in ("trainer.step", "models.forward", "losses.multitask_loss",
                 "labels.derive_record", "nnops.batch_norm.backward", "nnops.conv2d.k3d1"):
        assert calls.get(span, 0) > 0, span


def test_fused_batch_norm_relu_and_block_sums_stay_traced(traced_step):
    """Batch norm rectifies in place and each ResBlockA sums its branches in
    one add node; both stay under names the tracer wraps.  Per forward, the
    62 atrous-branch and 4 regression-branch ReLUs live inside batch_norm;
    the 6 that Combine applies remain."""
    calls = traced_step[3]
    for span in ("nnops.batch_norm", "nnops.batch_norm.backward",
                 "autodiff.add", "autodiff.add.backward"):
        assert calls.get(span, 0) > 0, span
    assert calls["models.forward"] == 1
    assert calls["nnops.relu"] == 6
