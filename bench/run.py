"""wcreg benchmark: end-to-end and per-layer metrics for four workloads.

Run from anywhere inside a checkout:

    python3 bench/run.py --workload sweep --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0

With --trace 0 it measures the end-to-end metrics with tracing off; with
--trace 1 it makes a separate traced run and reports the per-layer metrics
and the tracing overhead.  It prints a readable summary, writes a run record
(environment, samples, quality figures, sha256 of every output) under
.bench_out/records/, and prints one JSON object as its last line.

Each pass runs in a fresh child process (bench/worker.py) that imports
wcreg from the checkout's src/ with the BLAS thread count pinned; this
process itself imports neither numpy nor wcreg.  See README.md for the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: BLAS threads for every child; wcreg itself is single-threaded, so a run
#: uses one CPU and stays below the machine's two
BLAS_THREADS = 1
#: a run always makes at least this many passes, however short --seconds is
MIN_PASSES = 3
#: every run, with its children, ends within this many seconds
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def child(workload: str, seed: int, k: int, trace: int, scratch: Path,
          deadline: float) -> dict:
    """Run pass k in a fresh worker process; returns its report."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass", str(k), "--trace", str(trace),
           "--root", str(ROOT), "--scratch", str(scratch)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {k} of {workload} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"pass {k} of {workload} exited with code "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report.pop("ready") - started
    return report


def passes(workload: str, seed: int, seconds: float, trace: int,
           scratch: Path) -> list[dict]:
    """Passes until `seconds` have passed; with tracing, every odd pass is
    traced and the even ones give the untraced time to compare with."""
    start = time.monotonic()
    reports = []
    while len(reports) < MIN_PASSES or time.monotonic() - start < seconds:
        k = len(reports)
        reports.append(child(workload, seed, k, trace and k % 2, scratch,
                             start + RUN_LIMIT_S))
    return reports


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, as (rank,
    value); None unless that percentile lies above the median."""
    n = len(samples)
    if 2 * (n - 10) <= n:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def quality_figures(workload: str, quality: list[dict]) -> dict[str, float]:
    """Quality figures that are defined on only one workload."""
    if workload == "sweep":
        rows = sum(q.get("rows", 0) for q in quality)
        bad = sum(q.get("cert_violations", 0) for q in quality)
        return {"cert_violation_frac": bad / rows if rows else float("nan"),
                "cert_violation_rows": bad, "rows": rows}
    if workload == "solve":
        checked = [q for q in quality if q]
        return {"objective_ratio": max((q["objective_ratio"] for q in checked),
                                       default=float("nan")),
                "no_start_frac_at_margin_0.5": (
                    sum(q["no_start_at_0.5"] for q in checked) / len(checked)
                    if checked else float("nan"))}
    return {}


def record(workload: str, reports: list[dict]) -> dict:
    """What every run records, traced or not."""
    median = statistics.median
    walls = [r["wall_s"] for r in reports]
    return {"attempted": sum(r["attempted"] for r in reports),
            "failed": sum(len(r["failures"]) for r in reports),
            "failures": [f for r in reports for f in r["failures"]][:20],
            "quality": quality_figures(workload, [r["quality"] for r in reports]),
            "wall_s": median(walls), "wall_tail": tail(walls), "wall_samples": walls,
            "reference_s": median(r["reference_s"] for r in reports),
            "reference_samples": [r["reference_s"] for r in reports],
            "setup_samples": [r["setup_s"] for r in reports],
            "rss_kb_samples": [r["maxrss_kb"] for r in reports],
            "digests": {str(k): r["digests"] for k, r in enumerate(reports)},
            "environment": reports[0]["environment"]}


def end_to_end(rec: dict) -> dict:
    median = statistics.median
    values = {"wall_rel": rec["wall_s"] / rec["reference_s"],
              "setup_s": median(rec["setup_samples"]),
              "peak_rss_mb": median(rec["rss_kb_samples"]) / 1024.0}
    return {m["name"]: metric(values[m["name"]], m["unit"]) for m in SPEC["end_to_end"]}


def per_layer(reports: list[dict], spans_path: Path) -> tuple[dict, list]:
    """Per-layer metrics, medians over the traced passes, and the tracing
    overhead; writes every traced span to `spans_path`."""
    median = statistics.median
    traced = [r for r in reports if "metrics" in r]
    plain = [r["wall_s"] for r in reports if "metrics" not in r]
    values = {name: median(r["metrics"][name] for r in traced) for name in traced[0]["metrics"]}
    values["trace.untraced_wall_s"] = median(plain)
    values["trace.overhead_s"] = median(r["wall_s"] for r in traced) - median(plain)
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in values]
    if missing:
        raise BenchError(f"traced run did not report {missing}")
    with open(spans_path, "w") as fh:
        for k, r in enumerate(reports):
            for span in r.get("spans", ()):
                fh.write(json.dumps([k, *span]) + "\n")
    return ({m["name"]: metric(values[m["name"]], m["unit"]) for m in SPEC["per_layer"]},
            traced[-1]["top_self"])


def summary_lines(workload: str, seed: int, trace: int, rec: dict) -> list[str]:
    env = rec["environment"]
    lines = [f"== {workload}  seed {seed}  trace {trace}  ({env['cpus_usable']} of "
             f"{env['nproc']} CPUs, {env['cpu_model']}; python {env['python']}, "
             f"numpy {env['numpy']}, {env['blas']} x{env['blas_threads']} threads)"]
    for name, m in rec["metrics"].items():
        lines.append(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    if not trace:
        t = rec["wall_tail"]
        lines.append(f"  {'wall_s':44s} {rec['wall_s']:.6g} s (median of "
                     f"{len(rec['wall_samples'])} passes; tail "
                     + (f"p{t[0]:.0f} = {t[1]:.6g} s)" if t else "none above the median)"))
        lines.append(f"  {'reference_s':44s} {rec['reference_s']:.6g} s")
    else:
        lines.append("  largest self times in the last traced pass:")
        for name, secs in rec["top_self"]:
            lines.append(f"    {name:42s} {secs:.4g} s")
    lines.append(f"  fail_frac {rec['failed'] / rec['attempted']:.6g} "
                 f"({rec['failed']} of {rec['attempted']} operations)")
    for name, value in rec["quality"].items():
        lines.append(f"  {name} {value:.6g}")
    lines.extend(f"  FAILED {msg}" for msg in rec["failures"])
    return lines


def run_one(workload: str, seed: int, seconds: float, trace: int, out_dir: Path) -> dict:
    scratch = out_dir / f"work-{os.getpid()}-{workload}"
    records = out_dir / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    try:
        reports = passes(workload, seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    rec = record(workload, reports)
    if trace:
        spans_path = records / f"{stem}-spans.jsonl"
        rec["metrics"], rec["top_self"] = per_layer(reports, spans_path)
        rec["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        rec["metrics"] = end_to_end(rec)
    rec.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
               blas_threads_pinned=BLAS_THREADS)
    (records / f"{stem}.json").write_text(json.dumps(rec, indent=1) + "\n")
    print("\n".join(summary_lines(workload, seed, trace, rec)))
    print(f"  record: {(records / (stem + '.json')).relative_to(ROOT)}")
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "wcreg" / "__init__.py").is_file():
        print(f"bench: no wcreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    try:
        recs = {w: run_one(w, args.seed, args.seconds, args.trace, ROOT / ".bench_out")
                for w in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    attempted = sum(r["attempted"] for r in recs.values())
    failed = sum(r["failed"] for r in recs.values())
    if len(names) == 1:
        metrics = recs[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in recs.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
