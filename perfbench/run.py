"""Benchmark of the blendcnn package: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload eval-desk --seed 1 --seconds 30 --trace 0

The workloads are described in ``workloads.py``.  With ``--trace 0`` the run
reports the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it
wraps the package's layer functions (``tracing.py``) and reports per-layer
metrics instead.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The package is imported from ``src/`` of the checkout and is
driven only through its public functions; ``blendcnn.bench`` is not used.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5


def _import_package():
    """Import blendcnn from this checkout's ``src/``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import blendcnn
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import blendcnn from {src}: {exc}")
    if not os.path.abspath(blendcnn.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: blendcnn came from {blendcnn.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Thread count the loaded OpenBLAS reports; read, never set."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha():
    """HEAD of the checkout read from ``.git``; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(load_1m):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "load_1m_at_start": load_1m,
    }


# ---------------------------------------------------------------------------
# runs


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else float("nan")


def _setup(workload, seed):
    start = time.perf_counter()
    ctx = workload.setup(seed)
    return ctx, time.perf_counter() - start


def _units(workload, ctx, tally, seconds, on_unit=None):
    """Repeat units until ``seconds`` have passed; at least one."""
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        if on_unit is None:
            workload.unit(ctx, tally)
        else:
            on_unit(index, lambda: workload.unit(ctx, tally))
        index += 1
        if time.perf_counter() >= deadline:
            return index


def _finish(workload, ctx, tally):
    """Output checks after timing: reference forward, unit-to-unit digests."""
    workload.check(ctx, tally)
    first = tally.digests[0] if tally.digests else None
    for digest in tally.digests[1:]:
        if digest != first:
            tally.fail(why="a unit's outputs differ from the first unit's")


def run_untraced(workload, seed, seconds):
    from workloads import Tally
    setup_s = []
    for _ in range(SETUP_REPEATS):
        ctx = None  # let the previous set-up go before building the next
        ctx, seconds_taken = _setup(workload, seed)
        setup_s.append(seconds_taken)
    tally = Tally()
    units = _units(workload, ctx, tally, seconds)
    _finish(workload, ctx, tally)
    batch_ms = [1e3 * s for s in tally.batch_s]
    attempted, failed = tally.counts()
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "throughput_sps": (statistics.median(tally.unit_sps) if tally.unit_sps else 0.0,
                           "1/s"),
        "batch_ms.p50": (_percentile(batch_ms, 50), "ms"),
        "batch_ms.tail": (_percentile(batch_ms, workload.tail_percentile), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_share": ((attempted - failed) / attempted, "share"),
    }
    detail = {
        "units": units,
        "setup_s_each": setup_s,
        "batch_samples": len(batch_ms),
        "batch_tail_percentile": workload.tail_percentile,
        "model_sps_median": {k: statistics.median(v) for k, v in tally.model_sps.items()},
        "unit_sps": tally.unit_sps,
    }
    return tally, metrics, detail


def run_traced(workload, seed, seconds, spans_path):
    """Setup and every other unit traced; the rest give the untraced time."""
    from tracing import Tracer, patched
    from workloads import Tally
    tracer = Tracer()
    with patched(tracer.replacements()):
        ctx, _ = _setup(workload, seed)
    tally = Tally()
    unit_s = {True: [], False: []}

    def alternate(index, unit):
        traced = index % 2 == 1
        tracer.phase = "run"
        start = time.perf_counter()
        if traced:
            with patched(tracer.replacements()):
                unit()
        else:
            unit()
        unit_s[traced].append(time.perf_counter() - start)

    # at least one unit of each kind, then as many as the budget allows
    units = _units(workload, ctx, tally, seconds, on_unit=alternate)
    if units < 2:
        alternate(1, lambda: workload.unit(ctx, tally))
    _finish(workload, ctx, tally)
    overhead = statistics.median(unit_s[True]) / statistics.median(unit_s[False]) - 1.0
    metrics = tracer.per_layer(overhead)
    detail = {"units": {"traced": len(unit_s[True]), "untraced": len(unit_s[False])},
              "unit_s": {"traced": unit_s[True], "untraced": unit_s[False]},
              "spans": len(tracer.spans)}
    splits = {}
    for phase in sorted({span[4] for span in tracer.spans}):
        split = tracer.step_split(phase)
        if split is not None and phase.startswith("train_"):
            splits[phase] = split
    detail["step_split"] = splits
    tracer.dump(spans_path)
    detail["spans_file"] = os.path.relpath(spans_path, ROOT)
    return tally, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_1m = os.getloadavg()[0]
    _import_package()
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    env = environment(load_1m)
    scratch = tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT)
    workload = workloads.make(args.workload, scratch)
    try:
        if args.trace:
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tally, metrics, detail = run_traced(workload, args.seed, args.seconds, spans_path)
        else:
            tally, metrics, detail = run_untraced(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed = tally.counts()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>16.6f} {unit}")
    print("detail " + json.dumps(detail))
    print("notes " + json.dumps(tally.notes))
    print("digest " + (tally.digests[0] if tally.digests else "none"))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
