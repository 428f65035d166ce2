"""Inference and checkpoint paths run without scipy, and so do the one-hot
and boundary targets; only the distance transform and augmentation load it.
Nothing on the model path starts a thread of its own, nor does label work on
small planes; label work on large planes joins the helper thread each call
starts, and a forked child derives the same bytes."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter: this test process already holds scipy.
SCRIPT = textwrap.dedent("""
    import sys

    import numpy as np

    import atrousseg
    from atrousseg import cli, evaluate, fileio, labels
    from atrousseg.models import ModelSpec, build_model, load_checkpoint, save_checkpoint

    out = sys.argv[1]
    spec = ModelSpec(depth="d6", initial_filters=4, n_classes=3, input_channels=3)
    save_checkpoint(build_model(spec, seed=0), out + "/ck")
    model = load_checkpoint(out + "/ck")
    tile = np.random.default_rng(0).random((3, 40, 40), dtype=np.float32)
    probs = evaluate.sliding_window_inference(tile, model, window=32, stride=16)
    assert probs.shape == (3, 40, 40)
    fileio.write_ppm(out + "/tile.ppm", (tile.transpose(1, 2, 0) * 255).astype(np.uint8))
    assert cli.main(["infer", "--checkpoint", out + "/ck", "--image", out + "/tile.ppm",
                     "--out", out + "/infer", "--window", "32"]) == 0
    assert "scipy.ndimage" not in sys.modules, "inference loaded scipy.ndimage"

    mask = np.random.default_rng(1).integers(0, 3, (40, 40))
    labels.one_hot(mask, 3)
    labels.get_boundary(mask == 1)
    assert "scipy.ndimage" not in sys.modules, "one_hot or get_boundary loaded scipy.ndimage"
    labels.derive_record(tile, mask, 3)
    assert "scipy.ndimage" in sys.modules, "label derivation did not load scipy.ndimage"
    print("ok")
""")


def test_inference_path_never_loads_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split()[-1] == "ok"


# Runs in a fresh interpreter, which has one thread.
THREAD_SCRIPT = textwrap.dedent("""
    import sys
    import threading

    import numpy as np

    import atrousseg.evaluate
    import atrousseg.models
    from atrousseg import nnops
    from atrousseg.models import ModelSpec, build_model, load_checkpoint, save_checkpoint

    out = sys.argv[1]
    spec = ModelSpec(depth="d6", initial_filters=4, n_classes=3, input_channels=3)
    save_checkpoint(build_model(spec, seed=0), out + "/ck")
    model = load_checkpoint(out + "/ck")
    model.predict(np.zeros((1, 3, 32, 32), np.float32))
    x = np.ones((1, 32, 64, 64), np.float32)
    out = nnops.conv2d(x, np.ones((32, 32, 3, 3), np.float32))  # in two pieces
    assert out.value.min() == 32 * 4 and out.value.max() == 32 * 9
    assert "concurrent.futures" not in sys.modules, "loaded concurrent.futures"
    assert threading.active_count() == 1, threading.enumerate()
    print("ok")
""")


def test_model_path_starts_no_thread(tmp_path):
    """Imports, a checkpoint round trip, a small predict and a conv2d split
    in two pieces start no thread and load no thread pool."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", THREAD_SCRIPT, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split()[-1] == "ok"


# Runs in a fresh interpreter, which has one thread.
SMALL_LABELS_SCRIPT = textwrap.dedent("""
    import sys
    import threading

    import numpy as np

    from atrousseg import augment, labels, synth

    assert "concurrent.futures" not in sys.modules, "importing labels loaded concurrent.futures"

    started = []

    def counting_start(thread, start=threading.Thread.start):
        started.append(thread)
        start(thread)

    threading.Thread.start = counting_start

    for i, scene in enumerate(synth.generate(synth.SceneSpec(size=64, n_classes=4, n_images=3))):
        rec = labels.derive_record(scene.image, scene.mask, 4)
        augment.augment_record(rec, augment.AugmentConfig(), np.random.default_rng(i))
    assert not started, started
    assert threading.active_count() == 1, threading.enumerate()
    print("ok")
""")


def test_small_label_work_starts_no_thread():
    """Deriving and augmenting 64 px records stays on the calling thread."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", SMALL_LABELS_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split()[-1] == "ok"


# Runs in a fresh interpreter, which has one thread.
FORK_SCRIPT = textwrap.dedent("""
    import os
    import threading
    import time

    from atrousseg import labels, synth

    started = []

    def counting_start(thread, start=threading.Thread.start):
        started.append(thread)
        start(thread)

    threading.Thread.start = counting_start

    scenes = synth.generate(synth.SceneSpec(size=256, n_classes=6, n_images=2, seed=5))

    def derive(scene):
        return labels.derive_record(scene.image, scene.mask, 6)

    want = derive(scenes[1]).distance.tobytes()
    derive(scenes[0])
    assert started, "the 256 px planes started no helper"
    assert threading.active_count() == 1, threading.enumerate()

    pid = os.fork()
    if pid == 0:
        ok = derive(scenes[1]).distance.tobytes() == want and threading.active_count() == 1
        os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        raise AssertionError("the forked child's derive did not finish in 60 s")
    assert os.waitstatus_to_exitcode(status) == 0, "the child derived wrong or left a thread"
    print("ok")
""")


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs fork and two CPUs")
def test_large_label_work_joins_its_threads_across_fork():
    """256 px derives start helpers and leave no thread behind, and a child
    forked after them derives the same bytes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", FORK_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split()[-1] == "ok"
