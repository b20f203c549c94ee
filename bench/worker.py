"""One benchmark pass in a fresh process: set up, time, check, report.

Started by run.py with PYTHONPATH pointing at the checkout's `src` and the
BLAS thread count pinned.  A fresh process per pass is what a CLI user
gets, and it keeps the allocator and cache state that one pass leaves
behind from changing the speed of the next.  The report is one JSON object
on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import wcreg

import tracer
from workloads import WORKLOADS


def input_seed(seed: int, k: int) -> int:
    """Pass k of a run with workload seed s draws its input from 1000 s + k,
    so workload seed 0 starts with the CLI's own seed 0."""
    return seed * 1000 + k


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "wcreg": wcreg.__version__,
    }


def reference_s() -> float:
    """Seconds taken by a fixed mix of numpy pair scans and interpreter work.

    The machine's speed drifts by up to 1.6x over minutes, for numpy and
    plain Python code alike.  Timed in the same process as each pass, this
    measures that drift, so that pass time over reference time cancels it.
    Its arrays stay below glibc's 128 KiB mmap threshold, so it leaves the
    allocator as it found it.
    """
    values = np.random.default_rng(0).uniform(size=120)
    dist = np.abs(np.subtract.outer(np.arange(120.0), np.arange(120.0)))
    np.fill_diagonal(dist, np.inf)
    start = time.perf_counter()
    for _ in range(1200):
        float((np.abs(np.subtract.outer(values, values)) / dist).max())
    total = 0
    for i in range(3_000_000):
        total += i * i
    return time.perf_counter() - start


def run_pass(workload, k: int, inp, out: Path, spans: tracer.Tracer | None) -> dict:
    """Time one pass, traced if `spans` is given; check it afterwards."""
    report = {"attempted": workload.ops_per_pass, "quality": {}, "digests": {}}
    if spans is not None:
        spans.install()
    start = time.perf_counter()
    try:
        raw, error = workload.run(inp, out), None
    except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
        raw, error = None, exc
    report["wall_s"] = time.perf_counter() - start
    if spans is not None:
        spans.uninstall()
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if error is None:
        try:
            per_op, report["quality"] = workload.check(inp, out, raw)
            report["digests"] = workload.digests(inp, out, raw)
        except Exception as exc:  # noqa: BLE001 - unreadable output fails its checks
            error = exc
    if error is not None:
        trace = "".join(traceback.format_exception(error, limit=3))
        per_op = [[trace]] * workload.ops_per_pass
    report["failures"] = [f"pass {k}: " + "; ".join(f) for f in per_op if f]
    report["output_bytes"] = sum(p.stat().st_size for p in out.iterdir())
    if spans is not None:
        metrics = tracer.layer_metrics(spans.spans)
        metrics["cli.output_bytes"] = report["output_bytes"]
        improvement = getattr(workload, "improvement", None)
        metrics["variational.minimize.improvement"] = (
            improvement(inp, raw) if improvement and raw is not None else 0.0)
        report.update(metrics=metrics, spans=spans.spans,
                      top_self=tracer.top_self_times(spans.spans))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="k", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True, help="checkout holding src/wcreg")
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)

    src = Path(wcreg.__file__).resolve().parent.parent
    if src != Path(args.root).resolve() / "src":
        print(f"wcreg was imported from {src}, not from the checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inp = workload.make_input(input_seed(args.seed, args.k))
    out = Path(args.scratch) / f"pass{args.k}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ready = time.monotonic()
    ref = reference_s()
    try:
        report = run_pass(workload, args.k, inp, out,
                          tracer.Tracer() if args.trace else None)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    report.update(ready=ready, reference_s=ref)
    if args.k == 0:
        report["environment"] = environment()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
