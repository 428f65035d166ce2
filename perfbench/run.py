"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-toy --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; atrousseg is imported from its
``src/`` directory.  With ``--trace 0`` the last line of standard output is
a JSON object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics, measured by wrapping atrousseg's functions from outside
(see optrace.py).  A traced run alternates untraced and traced work units so
that it can also report the tracing overhead.  An untraced run times a fixed
reference block before and during each work unit and reports throughput per
reference-second, which cancels most of a shared host's speed swings (see
reference.py); the plain items per wall second is printed as well.

Each run also writes ``.perfbench/result-<workload>-s<seed>-t<trace>.json``
(provenance, named metrics, and for traced runs the conv2d table) and, when
traced, ``.perfbench/spans-<workload>-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit, better) of every end-to-end metric; every workload reports all.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_ref_s", "item/ref_s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train-toy", "infer-tile", "label-prep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set up the workload, print the wall-clock time, and exit (see setup_times).
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def single_thread_blas() -> None:
    """Run BLAS single-threaded; must run before numpy is imported.

    The workloads issue thousands of small GEMMs.  Measured on a 2-vCPU
    virtual machine, two OpenBLAS threads made a 256 px forward 3-4x slower
    than one, and far noisier, because each call wakes the second thread.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def setup_times(args) -> tuple[float, float]:
    """Median set-up time over SETUP_REPEATS set-ups: (reference-seconds, wall seconds).

    Each set-up runs in a fresh process, so every sample pays interpreter
    start, imports and first-call costs, and none keeps another's data alive
    in the measuring process.  Each is timed from the process's launch to
    the end of its set-up, and also against reference blocks timed just
    before and after it (reference.py).
    """
    from reference import Reference, reference_seconds

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    ref = Reference()
    walls, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = ref()
        t0 = time.time()
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        walls.append(float(out.stdout.split()[-1]) - t0)
        scaled.append(reference_seconds(walls[-1], (before, ref())))
    return statistics.median(scaled), statistics.median(walls)


def measure(workload, seconds: float, tracer=None):
    """Run work units until ``seconds`` have passed; return their Reps.

    Another unit starts only while it would end less than half a unit past
    the deadline, so a run overshoots by at most half a unit, but every run
    measures at least two units: an infer-tile unit takes 15-20 s, and a
    median over one would leave the run at the mercy of a single unit.  With a
    tracer, odd-numbered units run traced and even ones untraced, and no
    reference block is timed.  Without one, a block is timed before each
    unit and after the last, and the unit times more inside (reference.py);
    each Rep keeps the samples from just before it to just after it.
    """
    from reference import Reference, no_reference
    from workloads import Rep

    ref = Reference() if tracer is None else no_reference
    reps, starts = [], []
    t0 = time.perf_counter()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        if tracer is None:
            starts.append(len(ref.samples))
        try:
            ref()
            with tracer.installed() if traced else nullcontext():
                rep = workload.run_unit(tracer.span, ref) if traced else workload.run_unit(ref=ref)
        except Exception:  # a failing unit is counted, and the run goes on
            traceback.print_exc()
            rep = Rep(seconds=float("nan"), items=0, units=0, attempted=1, failed=1,
                      errors=["unit raised an exception"])
        rep.traced = traced
        reps.append(rep)
        elapsed = time.perf_counter() - t0
        if len(reps) >= 2 and elapsed + 0.5 * elapsed / len(reps) >= seconds:
            break
    if tracer is None:
        starts.append(len(ref.samples))
        ref()
        for rep, lo, hi in zip(reps, starts, starts[1:]):
            rep.ref_seconds = ref.samples[lo:hi + 1]
    return reps


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "atrousseg" / "__init__.py").is_file():
        print(f"perfbench: no atrousseg sources under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    single_thread_blas()
    sys.path.insert(0, str(ROOT / "src"))

    import optrace
    from workloads import WORKLOADS, median_rate, median_ref_rate

    out_dir = ROOT / ".perfbench"
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](ROOT, args.seed, tmp)
        if args.setup_only:
            workload.setup()
            print(repr(time.time()))
            return 0
        setup_s, setup_wall_s = setup_times(args)
        setup_tracer = optrace.Tracer() if args.trace else None
        with setup_tracer.installed() if setup_tracer else nullcontext():
            workload.setup()
        workload.warmup()
        unit_tracer = optrace.Tracer() if args.trace else None
        reps = measure(workload, args.seconds, unit_tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    for rep in reps:
        for err in rep.errors:
            print(f"check failed: {err}", file=sys.stderr)
    plain = [r for r in reps if not r.traced]
    named = {"setup_s": (setup_s, "s"), "setup_wall_s": (setup_wall_s, "s"),
             "peak_rss_mb": (peak_rss_mb, "MB"),
             "error_rate": (failed / attempted, "ratio"),
             "items_per_s": (median_rate(plain, "items"), "item/s"), **workload.named(plain)}
    if not args.trace:
        ref_ms = statistics.median(s for r in reps for s in r.ref_seconds) * 1e3
        named["ref_block_ms"] = (ref_ms, "ms")
    named = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
    result = {"workload": args.workload,
              "provenance": provenance(args.seed), "named": named,
              "unit_seconds": [r.seconds for r in reps], "unit_traced": [r.traced for r in reps],
              "unit_ref_seconds": [r.ref_seconds for r in reps]}

    if args.trace:
        traced = [r for r in reps if r.traced]
        traced_rate = median_rate(traced, "units")
        overhead = median_rate(plain, "units") / traced_rate - 1.0 if traced_rate else 0.0
        values = optrace.layer_metrics(
            unit_tracer, setup_tracer, units=max(1, sum(r.units for r in traced)),
            unit_seconds=sum(r.seconds for r in traced), overhead_frac=overhead)
        catalog = optrace.per_layer_catalog()
        result["conv2d_table"] = unit_tracer.conv_table()
        with open(out_dir / f"spans-{args.workload}-s{args.seed}.json", "w") as fh:
            json.dump({"setup": setup_tracer.dump(), "units": unit_tracer.dump()}, fh)
    else:
        values = {"setup_s": setup_s,
                  "items_per_ref_s": median_ref_rate(reps),
                  "peak_rss_mb": peak_rss_mb}
        catalog = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in catalog}
    result["metrics"] = metrics
    with open(out_dir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    print("provenance " + json.dumps(result["provenance"]))
    for key, m in named.items():
        print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
