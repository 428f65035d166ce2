"""Acceptance gate: ten numbered checks, one verdict line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the checklist.
Every check is self-contained: oracles are recomputed here from first
principles (finite differences, exhaustive scans, closed-form anchors)
rather than imported from the other suites.  The three training-based
checks share one 12-scene synthetic dataset and tiny d6 models; the whole
file finishes in a few minutes on a laptop CPU.
"""

import json
import math
import time

import numpy as np
import pytest
from conftest import numeric_gradient, rel_err

from atrousseg import autodiff, losses, nnops
from atrousseg.augment import AugmentConfig
from atrousseg.autodiff import Node
from atrousseg.cli import main
from atrousseg.evaluate import f1_from_precision_recall, sliding_window_inference
from atrousseg.labels import derive_record, get_distance
from atrousseg.models import ModelSpec, MultiHeadOutput, build_model, param_count
from atrousseg.synth import SceneSpec, generate
from atrousseg.trainer import TrainConfig, train


def _verdict(number, message):
    print(f"criterion {number}: PASS -- {message}")


# ---------------------------------------------------------------------------
# criterion 1: finite-difference integrity of every op and every loss
# ---------------------------------------------------------------------------


def _fd_worst(forward, params):
    """Max relative error between backprop and central differences.

    ``forward`` maps a dict of Nodes to a scalar Node; ``params`` holds the
    f64 arrays to differentiate with respect to.
    """
    nodes = {k: Node(np.asarray(v, dtype=np.float64), requires_grad=True)
             for k, v in params.items()}
    out = forward(nodes)
    out.backward()
    worst = 0.0
    for k in params:
        def scalar(x, k=k):
            trial = {kk: Node(np.asarray(vv, dtype=np.float64))
                     for kk, vv in params.items()}
            trial[k] = Node(np.asarray(x, dtype=np.float64))
            return float(forward(trial).value)

        num = numeric_gradient(scalar, params[k])
        assert nodes[k].grad is not None, "backward() left a leaf without a gradient"
        err = rel_err(nodes[k].grad, num)
        assert np.isfinite(err)
        worst = max(worst, err)
    return worst


def _op_cases(rng):
    """(label, params, forward) triples covering every differentiable op."""
    def readout(shape):
        t = rng.normal(size=shape)
        return lambda y: (y * t).sum()

    cases = []

    a = rng.normal(size=(3, 1))
    b = rng.normal(size=(4,))
    r = readout((3, 4))
    cases.append(("add", {"a": a, "b": b}, lambda n: r(n["a"] + n["b"])))
    cases.append(("sub", {"a": a, "b": b}, lambda n: r(n["a"] - n["b"])))
    cases.append(("mul", {"a": a, "b": b}, lambda n: r(n["a"] * n["b"])))

    num = rng.normal(size=(3, 4))
    den = rng.uniform(0.5, 1.5, size=(4,))
    cases.append(("div", {"a": num, "b": den}, lambda n: r(n["a"] / n["b"])))

    base = rng.uniform(0.5, 1.5, size=(3, 4))
    cases.append(("power_cube", {"a": base}, lambda n: r(n["a"] ** 3)))
    cases.append(("power_square", {"a": num}, lambda n: r(n["a"] ** 2)))

    x = rng.normal(size=(2, 3, 4))
    rs = readout((2, 4))
    cases.append(("reduce_sum", {"x": x}, lambda n: rs(n["x"].sum(axis=1))))
    cases.append(("mean", {"x": x}, lambda n: n["x"].mean()))

    # keep every input a safe 0.25 away from the relu kink
    kinked = rng.uniform(0.25, 1.0, size=(2, 3, 3)) * rng.choice([-1.0, 1.0], size=(2, 3, 3))
    rk = readout((2, 3, 3))
    cases.append(("relu", {"x": kinked}, lambda n: rk(nnops.relu(n["x"]))))
    cases.append(("sigmoid", {"x": x}, lambda n: rs(nnops.sigmoid(n["x"]).sum(axis=1))))

    z = rng.normal(size=(2, 3, 2, 2))
    rz = readout((2, 3, 2, 2))
    cases.append(("softmax_channel", {"x": z},
                  lambda n: rz(nnops.softmax_channel(n["x"]))))

    c1 = rng.normal(size=(1, 2, 3, 3))
    c2 = rng.normal(size=(1, 3, 3, 3))
    rc = readout((1, 5, 3, 3))
    cases.append(("concat_channels", {"a": c1, "b": c2},
                  lambda n: rc(nnops.concat_channels([n["a"], n["b"]]))))
    rsl = readout((1, 2, 3, 3))
    cases.append(("channel_slice", {"a": c2},
                  lambda n: rsl(nnops.channel_slice(n["a"], 1, 3))))

    xc = rng.normal(size=(1, 2, 6, 6))
    w = rng.normal(size=(3, 2, 3, 3)) * 0.5
    bias = rng.normal(size=(3,))
    r1 = readout((1, 3, 6, 6))
    cases.append(("conv2d_s1", {"x": xc, "w": w, "b": bias},
                  lambda n: r1(nnops.conv2d(n["x"], n["w"], n["b"]))))
    r2 = readout((1, 3, 3, 3))
    cases.append(("conv2d_s2", {"x": xc, "w": w},
                  lambda n: r2(nnops.conv2d(n["x"], n["w"], stride=2))))
    xd = rng.normal(size=(1, 2, 8, 8))
    rd = readout((1, 3, 8, 8))
    cases.append(("conv2d_d2", {"x": xd, "w": w},
                  lambda n: rd(nnops.conv2d(n["x"], n["w"], dilation=2))))
    # 1x1 kernels take their own path; their own generator keeps the draws
    # of every other case unchanged
    g11 = np.random.default_rng(11)
    x11, w11, b11 = (g11.normal(size=shape) for shape in [(2, 3, 5, 5), (4, 3, 1, 1), (4,)])
    for stride, side in ((1, 5), (2, 3)):
        t11 = g11.normal(size=(2, 4, side, side))
        cases.append((f"conv2d_1x1_s{stride}", {"x": x11, "w": w11, "b": b11},
                      lambda n, s=stride, t=t11: (nnops.conv2d(n["x"], n["w"], n["b"],
                                                               stride=s) * t).sum()))

    xb = rng.normal(size=(2, 2, 3, 3))
    gamma = rng.uniform(0.5, 1.5, size=(2,))
    beta = rng.normal(size=(2,))
    rb = readout((2, 2, 3, 3))

    def bn_train(n):
        return rb(nnops.batch_norm(n["x"], n["gamma"], n["beta"],
                                   np.zeros(2), np.ones(2),
                                   training=True, momentum=0.1, eps=1e-5))

    cases.append(("batch_norm_train", {"x": xb, "gamma": gamma, "beta": beta}, bn_train))

    rm = rng.normal(size=(2,))
    rv = rng.uniform(0.5, 1.5, size=(2,))

    def bn_eval(n):
        return rb(nnops.batch_norm(n["x"], n["gamma"], n["beta"],
                                   rm.copy(), rv.copy(),
                                   training=False, momentum=0.1, eps=1e-5))

    cases.append(("batch_norm_eval", {"x": xb, "gamma": gamma, "beta": beta}, bn_eval))

    # distinct random values: no pooling ties, so the max is FD-differentiable
    xp = rng.permutation(np.linspace(-1.0, 1.0, 32)).reshape(1, 2, 4, 4)
    rp = readout((1, 2, 4, 4))
    cases.append(("max_pool_grid", {"x": xp},
                  lambda n: rp(nnops.max_pool_grid(n["x"], 2))))
    ru = readout((1, 2, 8, 8))
    cases.append(("nearest_upsample", {"x": xp},
                  lambda n: ru(nnops.nearest_upsample(n["x"], 2))))

    # batch norm rectified in place, and a three-operand add, on their own
    # generator like the 1x1 convs.  gamma*xhat sits at least 0.15 from the
    # ReLU kink, beta moves it by at most 0.1: in train mode each channel is
    # a permuted set of +-[0.3, 1.5] values (mean 0, std 0.98), in eval mode
    # x lies +-[0.3, 1.5] running stds off the running mean.
    gr = np.random.default_rng(17)
    mags = np.linspace(0.3, 1.5, 9)
    xt = np.stack([gr.permutation(np.concatenate([mags, -mags])) for _ in range(2)])
    xt = np.ascontiguousarray(xt.reshape(2, 2, 3, 3).transpose(1, 0, 2, 3))
    gamma_r = gr.uniform(0.5, 1.5, size=2)
    beta_r = gr.uniform(-0.1, 0.1, size=2)
    rm_r = gr.normal(size=2)
    rv_r = gr.uniform(0.5, 1.5, size=2)
    xe = (rm_r[:, None, None] + gr.choice([-1.0, 1.0], size=(2, 2, 3, 3))
          * gr.uniform(0.3, 1.5, size=(2, 2, 3, 3)) * np.sqrt(rv_r + 1e-5)[:, None, None])
    t_r = gr.normal(size=(2, 2, 3, 3))
    for mode, xr, stats in (("train", xt, (np.zeros(2), np.ones(2))), ("eval", xe, (rm_r, rv_r))):
        cases.append((f"batch_norm_relu_{mode}", {"x": xr, "gamma": gamma_r, "beta": beta_r},
                      lambda n, s=stats, training=mode == "train": (nnops.batch_norm(
                          n["x"], n["gamma"], n["beta"], s[0].copy(), s[1].copy(),
                          training=training, momentum=0.1, eps=1e-5, relu=True) * t_r).sum()))
    a3, b3, c3 = (gr.normal(size=(3, 4)) for _ in range(3))
    t3 = gr.normal(size=(3, 4))
    cases.append(("add_three", {"a": a3, "b": b3, "c": c3},
                  lambda n: (autodiff.add(n["a"], n["b"], n["c"]) * t3).sum()))
    return cases


def _loss_cases(rng):
    p = rng.uniform(0.05, 0.95, size=(2, 3, 4, 4))
    lab = np.eye(3)[rng.integers(0, 3, size=(2, 4, 4))].transpose(0, 3, 1, 2)
    weights = rng.uniform(0.5, 2.0, size=3)

    cases = []
    for lid in losses.LOSS_IDS:
        f = losses.loss_fn(lid)
        cases.append((lid, {"p": p}, lambda n, f=f: f(n["p"], lab)))
        cases.append((f"{lid}_weighted", {"p": p},
                      lambda n, f=f: f(n["p"], lab, weights=weights)))

    targets = {
        "segmentation": np.eye(3)[rng.integers(0, 3, size=(1, 4, 4))].transpose(0, 3, 1, 2),
        "boundary": (rng.random((1, 3, 4, 4)) < 0.3).astype(np.float64),
        "distance": rng.random((1, 3, 4, 4)),
        "color": rng.random((1, 3, 4, 4)),
    }
    zs = {k: rng.normal(size=(1, 3, 4, 4)) for k in ("s", "b", "d", "c")}

    def multitask(n):
        out = MultiHeadOutput(segmentation=nnops.softmax_channel(n["s"]),
                              boundary=nnops.sigmoid(n["b"]),
                              distance=nnops.sigmoid(n["d"]),
                              color=nnops.sigmoid(n["c"]))
        return losses.multitask_loss(out, targets, "tanimoto-complement")

    cases.append(("multitask_loss", zs, multitask))
    return cases


def test_c01_gradient_integrity():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    failures = []
    worst = 0.0
    cases = _op_cases(rng) + _loss_cases(rng)
    for label, params, forward in cases:
        err = _fd_worst(forward, params)
        worst = max(worst, err)
        if not err < 1e-4:
            failures.append(f"{label}: rel err {err:.3e}")
    elapsed = time.monotonic() - start
    assert not failures, "finite-difference mismatches: " + "; ".join(failures)
    assert elapsed < 120.0, f"gradient sweep took {elapsed:.1f}s (budget 120s)"
    _verdict(1, f"{len(cases)} op/loss gradient checks, max rel err "
                f"{worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: 2-component loss fields around the target (1, 0)
# ---------------------------------------------------------------------------


def test_c02_loss_field_reproduction():
    start = time.monotonic()
    # 101x101 interior lattice: p = (i+1)/102, strictly inside (0, 1)^2
    g = (np.arange(101, dtype=np.float64) + 1.0) / 102.0
    px, py = np.meshgrid(g, g, indexing="ij")
    lx, ly = 1.0, 0.0

    def min_cosine(loss_id):
        _, gx, gy = losses._value_grad(loss_id, px, py, lx, ly, losses.EPS)
        dx, dy = lx - px, ly - py
        norm = np.hypot(gx, gy) * np.hypot(dx, dy)
        assert (norm > 0).all(), f"{loss_id}: vanishing gradient inside the box"
        return float(((gx * dx + gy * dy) / norm).min())

    mc_tc = min_cosine("tanimoto-complement")
    mc_d1 = min_cosine("d1")
    assert mc_tc > 0.0, f"tanimoto-complement ascent not target-aligned: {mc_tc}"
    assert mc_tc > mc_d1, f"expected sharper steering, got {mc_tc} <= {mc_d1}"

    # box-projected gradients must vanish exactly once p reaches the target
    at_l = {"px": np.asarray(lx), "py": np.asarray(ly)}
    for lid in losses.LOSS_IDS:
        _, gx, gy = losses._value_grad(lid, at_l["px"], at_l["py"], lx, ly, losses.EPS)
        gx = losses._box_project(gx, at_l["px"])
        gy = losses._box_project(gy, at_l["py"])
        assert float(gx) == 0.0 and float(gy) == 0.0, \
            f"{lid}: gradient at p=l is ({float(gx)}, {float(gy)})"

    elapsed = time.monotonic() - start
    _verdict(2, f"min-cos tanimoto-complement {mc_tc:.4f} > d1 {mc_d1:.4f}, "
                f"all six gradients vanish at p=l, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 3: distance transform vs exhaustive nearest-off-pixel scan
# ---------------------------------------------------------------------------


def _nearest_off_distance(mask):
    m = np.asarray(mask, dtype=bool)
    h, w = m.shape
    out = np.zeros((h, w), dtype=np.float64)
    offs = np.argwhere(~m)
    for i in range(h):
        for j in range(w):
            if not m[i, j]:
                continue
            best = min(i + 1, j + 1, h - i, w - j) ** 2
            if offs.size:
                d2 = ((offs[:, 0] - i) ** 2 + (offs[:, 1] - j) ** 2).min()
                best = min(best, d2)
            out[i, j] = math.sqrt(best)
    return out


def test_c03_distance_transform_oracle():
    rng = np.random.default_rng(99)
    for trial in range(200):
        mask = rng.random((16, 16)) < rng.uniform(0.1, 0.95)
        got = get_distance(mask, normalize=False)
        want = _nearest_off_distance(mask)
        assert got.dtype == np.float64
        assert np.array_equal(got, want), f"mismatch on trial {trial}"
    _verdict(3, "200 random 16x16 masks match the exhaustive scan exactly")


# ---------------------------------------------------------------------------
# criterion 4: sliding-window coverage at window 256 / stride 64
# ---------------------------------------------------------------------------


class _SequenceStub:
    """Emits a distinct constant per call so outputs identify the window."""

    def __init__(self, values):
        self.values = values
        self.calls = 0

    def __call__(self, x):
        v = self.values[self.calls]
        self.calls += 1
        out = np.empty((1, 2) + x.shape[-2:], dtype=np.float64)
        out[0, 0] = v
        out[0, 1] = 1.0 - v
        return out


def test_c04_tiling_coverage():
    window, stride = 256, 64
    ht, wt = 300, 200
    lead = window - stride

    # independent enumeration of the off-grid window offsets
    rows = range(-lead, stride * ((ht - 1) // stride) + 1, stride)
    cols = range(-lead, stride * ((wt - 1) // stride) + 1, stride)
    n_windows = len(rows) * len(cols)
    values = (np.arange(n_windows, dtype=np.float64) + 1.0) / (n_windows + 1.0)

    counts = np.zeros((ht, wt), dtype=np.int64)
    acc = np.zeros((ht, wt), dtype=np.float64)
    k = 0
    for orow in rows:
        for ocol in cols:
            rs = slice(max(orow, 0), min(orow + window, ht))
            cs = slice(max(ocol, 0), min(ocol + window, wt))
            counts[rs, cs] += 1
            acc[rs, cs] += values[k]
            k += 1
    per_pixel = (window // stride) ** 2
    assert (counts == per_pixel).all(), "offset enumeration is not 16-fold"

    tile = np.zeros((1, ht, wt), dtype=np.float32)
    stub = _SequenceStub(values)
    got = sliding_window_inference(tile, stub, window=window, stride=stride)
    assert stub.calls == n_windows
    assert np.allclose(got[0], acc / per_pixel, rtol=0.0, atol=1e-12), \
        "window footprints disagree with the offset enumeration"

    const = sliding_window_inference(
        tile, lambda x: np.full((1, 2) + x.shape[-2:], 0.25), window=window, stride=stride)
    assert np.all(const == 0.25), "constant model did not yield constant output"

    row_sums = got.sum(axis=0)
    assert np.abs(row_sums - 1.0).max() <= 1e-6
    _verdict(4, f"every pixel covered by exactly {per_pixel} of {n_windows} windows; "
                "constant stub constant; probabilities sum to 1")


# ---------------------------------------------------------------------------
# criterion 5: published-score cross-check
# ---------------------------------------------------------------------------


def test_c05_metrics_cross_check():
    f1 = f1_from_precision_recall(0.9538, 0.9735)
    assert abs(f1 - 0.9635) < 5e-4, f"F1 {f1} not within 5e-4 of 0.9635"
    _verdict(5, f"F1(0.9538, 0.9735) = {f1:.5f} vs anchor 0.9635")


# ---------------------------------------------------------------------------
# criterion 6: parameter budgets at full width
# ---------------------------------------------------------------------------


def test_c06_parameter_count_sanity():
    counts = {}
    for depth, lo, hi in (("d6", 42e6, 62e6),
                          ("d7v1", 130e6, 190e6),
                          ("d7v2", 130e6, 190e6)):
        spec = ModelSpec(depth=depth, initial_filters=32,
                         n_classes=6, input_channels=5)
        model = build_model(spec, seed=0)
        n = param_count(model)
        counts[depth] = n
        del model
        assert lo <= n <= hi, f"{depth}: {n:,} params outside [{lo:,.0f}, {hi:,.0f}]"
    _verdict(6, ", ".join(f"{d} = {n:,}" for d, n in counts.items()))


# ---------------------------------------------------------------------------
# criteria 7 and 8: toy convergence behaviour (shared synthetic dataset)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_records():
    scenes = generate(SceneSpec(size=64, n_classes=4, n_images=12, seed=5))
    return [derive_record(s.image, s.mask, 4) for s in scenes]


def _toy_run(records, val, head, loss_id, *, lr, epochs, augment=None, seed=7):
    spec = ModelSpec(depth="d6", initial_filters=4, n_classes=4,
                     input_channels=3, head=head)
    model = build_model(spec, seed=seed)
    cfg = TrainConfig(lr=lr, micro_batch=4, max_epochs=epochs, seed=seed,
                      loss_id=loss_id, plateau_patience=100, augment=augment)
    start = time.monotonic()
    result = train(model, records[:8], val, cfg)
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def convergence_runs(toy_records):
    runs = {}
    for lid in ("tanimoto-complement", "d1"):
        runs[lid] = _toy_run(toy_records, toy_records[8:10], "single", lid,
                             lr=0.01, epochs=40)
    return runs


@pytest.fixture(scope="module")
def head_runs(toy_records):
    runs = {}
    for head in ("cmtsk", "mtsk"):
        runs[head] = _toy_run(toy_records, toy_records[8:12], head,
                              "tanimoto-complement", lr=0.02, epochs=70,
                              augment=AugmentConfig())
    return runs


def _epochs_to_mcc(history, threshold):
    for row in history:
        if row.train_mcc >= threshold:
            return row.epoch
    return None


def test_c07a_convergence_ordering(convergence_runs):
    (res_tc, t_tc), (res_d1, t_d1) = (convergence_runs["tanimoto-complement"],
                                      convergence_runs["d1"])
    e_tc = _epochs_to_mcc(res_tc.history, 0.9)
    e_d1 = _epochs_to_mcc(res_d1.history, 0.9)
    assert e_tc is not None, "tanimoto-complement never reached train MCC 0.9"
    assert e_d1 is None or e_tc < e_d1, \
        f"expected strictly fewer epochs, got {e_tc} vs {e_d1}"
    _verdict("7a", f"train MCC 0.9 at epoch {e_tc} (tanimoto-complement) vs "
                   f"{e_d1} (d1), {t_tc + t_d1:.0f}s")


def test_c07b_conditioned_head_stability(convergence_runs, head_runs):
    (res_c, t_c), (res_m, t_m) = head_runs["cmtsk"], head_runs["mtsk"]
    var_c = float(np.var([r.val_mcc for r in res_c.history[-30:]]))
    var_m = float(np.var([r.val_mcc for r in res_m.history[-30:]]))
    assert len(res_c.history) >= 30 and len(res_m.history) >= 30
    assert var_c <= var_m, \
        f"conditioned head less stable: var {var_c:.3e} > {var_m:.3e}"
    total = t_c + t_m + sum(t for _, t in convergence_runs.values())
    assert total <= 1800.0, f"criterion-7 runs took {total:.0f}s (budget 30 min)"
    _verdict("7b", f"val-MCC variance over last 30 epochs: cmtsk {var_c:.2e} "
                   f"<= mtsk {var_m:.2e}; criterion-7 total {total:.0f}s")


def test_c08_overfit_capacity(toy_records):
    result, elapsed = _toy_run(toy_records, toy_records[8:10], "cmtsk",
                               "tanimoto-complement", lr=0.01, epochs=60)
    assert len(result.history) <= 200
    peak = max(r.train_mcc for r in result.history)
    first = _epochs_to_mcc(result.history, 0.95)
    assert first is not None, f"train MCC peaked at {peak:.4f} <= 0.95"
    _verdict(8, f"8-image train MCC > 0.95 at epoch {first} "
                f"(peak {peak:.4f}), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 9: bitwise reproducibility of the train command
# ---------------------------------------------------------------------------


def test_c09_reproducibility(tmp_path, capsys):
    histories = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        doc = {
            "model": {"depth": "d6", "initial_filters": 4, "n_classes": 3,
                      "input_channels": 3, "head": "cmtsk"},
            "train": {"lr": 0.005, "micro_batch": 2, "max_epochs": 3, "seed": 2,
                      "loss_id": "tanimoto-complement", "plateau_patience": 5},
            "data": {"kind": "synthetic", "size": 64, "n_classes": 3,
                     "n_images": 4, "seed": 1, "split": [0.5, 0.25, 0.25]},
            "augment": {},
            "out_dir": str(out),
        }
        path = tmp_path / f"config_{tag}.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path)]) == 0
        capsys.readouterr()
        histories.append((out / "history.csv").read_bytes())
    assert histories[0] == histories[1], "loss traces differ between reruns"
    assert len(histories[0].splitlines()) == 4   # header + 3 epochs
    _verdict(9, "two seeded train runs wrote byte-identical history.csv")


# ---------------------------------------------------------------------------
# criterion 10: head independence vs conditioning
# ---------------------------------------------------------------------------


def _segmentation_with_zeroed_distance(head):
    spec = ModelSpec(depth="d6", initial_filters=4, n_classes=4,
                     input_channels=3, head=head)
    model = build_model(spec, seed=3)
    model.eval()
    x = np.random.default_rng(5).random((1, 3, 64, 64), dtype=np.float32)
    base = model.predict(x)["segmentation"]
    zeroed = 0
    for name, p in model.named_parameters():
        if name.startswith("head.distance"):
            p.value[...] = 0.0
            zeroed += 1
    assert zeroed > 0, "no distance-branch parameters found"
    return base, model.predict(x)["segmentation"]


def test_c10_multitask_independence():
    base_m, after_m = _segmentation_with_zeroed_distance("mtsk")
    assert np.array_equal(base_m, after_m), \
        "mtsk segmentation changed after zeroing the distance branch"
    base_c, after_c = _segmentation_with_zeroed_distance("cmtsk")
    assert not np.array_equal(base_c, after_c), \
        "cmtsk segmentation ignored the distance branch"
    delta = float(np.abs(after_c - base_c).max())
    _verdict(10, "zeroed distance branch: mtsk bitwise unchanged, "
                 f"cmtsk max |delta| {delta:.3e}")
