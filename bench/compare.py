"""Compare sets of run records (written by run.py under .bench_out/records/).

    python3 bench/compare.py DIR [DIR2]

For each workload and end-to-end metric in DIR it prints the median over
the records' seeds and the spread: the distance between the first and third
quartiles as a share of the median.  Given DIR2, it also prints how far the
second median lies from the first, in the metric's worse direction, against
the metric's bound from BENCHMARK.json, and whether every output digest that
both sets recorded for the same workload, seed and pass is identical.
Exits 1 if a spread (other than setup_s) or a shift exceeds its bound, or a
digest differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def load(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        runs.setdefault(rec["workload"], []).append(rec)
    return runs


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def digests(recs: list[dict]) -> dict[tuple, str]:
    """sha256 of each output, keyed by (seed, pass, output name)."""
    return {(rec["seed"], k, name): sha for rec in recs
            for k, files in rec["digests"].items() for name, sha in files.items()}


def main(argv: list[str]) -> int:
    sets = [load(Path(d)) for d in argv]
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        recs = [s.get(workload, []) for s in sets]
        if len(recs[0]) < 2:
            continue
        print(f"{workload}: {len(recs[0])} seeds" +
              (f" vs {len(recs[1])}" if len(recs) > 1 else ""))
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in rs]) for rs in recs if rs]
            line = f"  {name:12s} median {stats[0][0]:.6g} spread {stats[0][1]:.4f}"
            if name != "setup_s" and stats[0][1] > bound:
                ok = False
                line += " SPREAD>BOUND"
            if len(stats) > 1:
                sign = 1.0 if m["better"] == "lower" else -1.0
                worse = sign * (stats[1][0] - stats[0][0]) / stats[0][0]
                line += (f" | median {stats[1][0]:.6g} spread {stats[1][1]:.4f}"
                         f" worse-by {worse:+.4f} (bound {bound})")
                if worse > bound:
                    ok = False
                    line += " SHIFT>BOUND"
            print(line)
        if len(recs) > 1 and recs[1]:
            a, b = digests(recs[0]), digests(recs[1])
            common = a.keys() & b.keys()
            differ = sorted(k for k in common if a[k] != b[k])
            print(f"  digests: {len(common)} compared, {len(differ)} differ")
            ok = ok and not differ
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
