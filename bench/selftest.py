"""Self-test of the benchmark's own checks and tracing, on small inputs.

    python3 bench/selftest.py

Takes well under a minute.  Writes only under .bench_out/selftest/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import wcreg  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".bench_out" / "selftest"
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def small(name: str):
    """A workload instance sized to run in well under a second."""
    wl = type(workloads.WORKLOADS[name])()
    if name == "sweep":
        wl.count = 3
    elif name == "lip-probe":
        wl.base_deltas = (1e-3, 1e-4)
    elif name == "solve":
        wl.budget = 2
    elif name == "modulus":
        wl.levels = 4
    return wl


class CorruptedPair(workloads.LipProbe):
    """Writes a correct pair file, then changes one value of v2 in it."""

    def run(self, argv, out):
        rc = super().run(argv, out)
        path = out / "pair_000.csv"
        lines = path.read_text().splitlines()
        x, v1, v2 = lines[9].split(",")
        lines[9] = ",".join([x, v1, "%.17g" % (float(v2) + 1e-6)])
        path.write_text("\n".join(lines) + "\n")
        return rc


class Raising(workloads.Modulus):
    def run(self, argv, out):
        raise RuntimeError("simulated crash")


def one_pass(wl, k=0, spans=None):
    out = SCRATCH / wl.name / f"pass{k}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    return worker.run_pass(wl, k, wl.make_input(worker.input_seed(0, k)), out, spans)


class TestChecks(unittest.TestCase):
    def test_clean_pair_passes(self):
        rep = one_pass(small("lip-probe"))
        self.assertEqual((rep["attempted"], rep["failures"]), (1, []))

    def test_corrupted_pair_counts_as_failure(self):
        wl = CorruptedPair()
        wl.base_deltas = small("lip-probe").base_deltas
        rep = one_pass(wl)
        self.assertEqual(rep["attempted"], 1)
        self.assertEqual(len(rep["failures"]), 1)
        self.assertIn("pair_000", rep["failures"][0])

    def test_raising_call_counts_as_failure(self):
        rep = one_pass(Raising())
        self.assertEqual((rep["attempted"], len(rep["failures"])), (1, 1))
        self.assertIn("simulated crash", rep["failures"][0])

    def test_every_workload_passes_its_checks(self):
        for name in workloads.WORKLOADS:
            with self.subTest(name):
                rep = one_pass(small(name))
                self.assertEqual(rep["failures"], [])
                self.assertTrue(rep["digests"])

    def test_reference_norm_matches_wcreg(self):
        vals = np.random.default_rng(1).uniform(-1.0, 1.0, 57)
        for a in (0.5, 1.0, 1.5, 2.0):
            got = checks.holder_norm(vals, a)
            want = wcreg.holder_norm(wcreg.GridFunction(vals), a)
            self.assertTrue(checks.close(got, want), (a, got, want))
        self.assertTrue(np.array_equal(checks.trapezoid(vals),
                                       wcreg.integrate(wcreg.GridFunction(vals)).values))

    def test_sweep_tampered_eta_flagged(self):
        deltas = [1e-2, 1e-3]
        rows = [[d, d ** 0.5, 2.0 * d ** 0.5, 0.1] for d in deltas]
        meta = {"eta_loglog_slope": 0.5, "err_loglog_slope": 0.0}
        header = ["delta", "h", "eta", "sup_err_est"]
        self.assertEqual(checks.check_sweep(header, rows, meta, deltas, 2.0, 1.0), ([], 1))
        rows[1][2] *= 1.0 + 1e-9
        fails, _ = checks.check_sweep(header, rows, meta, deltas, 2.0, 1.0)
        self.assertEqual(len(fails), 1)

    def test_modulus_range_and_monotonicity(self):
        header = ["delta", "omega"]
        self.assertEqual(checks.check_modulus(header, [[0.1, 2.0], [0.01, 1.0]],
                                              [0.01, 0.1], 1.0), [])
        self.assertTrue(checks.check_modulus(header, [[0.1, 2.0 + 1e-12]], [0.1], 1.0))
        self.assertTrue(checks.check_modulus(header, [[0.1, -1e-300]], [0.1], 1.0))
        self.assertTrue(checks.check_modulus(header, [[0.1, 1.0], [0.01, 2.0]],
                                             [0.1, 0.01], 1.0))

    def test_solution_checks(self):
        n, delta = 101, 1e-2
        u = 0.4 * np.linspace(0.0, 1.0, n)
        data = checks.trapezoid(u)
        phi_u = checks.holder_norm(u, 2.0)
        fails, ratio = checks.check_solution(u, data, delta, 2.0, 2.0, delta * phi_u, phi_u)
        self.assertEqual(fails, [])
        self.assertLess(ratio, 1.0)
        fails, _ = checks.check_solution(u + 0.05, data, delta, 2.0, 2.0,
                                         delta * phi_u, phi_u)
        self.assertTrue(any("misfit" in f for f in fails))


class TestTracing(unittest.TestCase):
    def test_wraps_where_imported(self):
        original = wcreg.grid.holder_norm
        tr = tracer.Tracer()
        tr.install()
        try:
            for mod in (wcreg.adversary, wcreg.operators, wcreg.cli):
                self.assertIsNot(mod.holder_norm, original)
            self.assertIs(wcreg.adversary.holder_norm, wcreg.cli.holder_norm)
            self.assertFalse(hasattr(wcreg.grid.format_float, "__wrapped__"))
        finally:
            tr.uninstall()
        for mod in (wcreg.grid, wcreg.adversary, wcreg.operators, wcreg.cli):
            self.assertIs(mod.holder_norm, original)

    def traced_run(self, name):
        """An untraced and a traced pass, summarized as run.py does."""
        wl = small(name)
        reports = [one_pass(wl, 0), one_pass(wl, 1, tracer.Tracer())]
        for rep in reports:
            self.assertEqual(rep["failures"], [])
        metrics, top_self = run.per_layer(reports, SCRATCH / f"{name}-spans.jsonl")
        return {k: m["value"] for k, m in metrics.items()}, top_self

    def test_traced_run_reports_every_per_layer_metric(self):
        for name in workloads.WORKLOADS:
            with self.subTest(name):
                metrics, _ = self.traced_run(name)
                self.assertEqual(list(metrics), PER_LAYER)

    def test_layer_expectations(self):
        metrics, _ = self.traced_run("modulus")
        self.assertEqual(metrics["grid.holder_norm.calls"], 0)
        self.assertEqual(metrics["modulus.modulus_bruteforce.pairs"],
                         2 * (4 ** 4) * (4 ** 4 - 1) // 2)
        _, top_self = self.traced_run("sweep")
        self.assertEqual(top_self[0][0], "grid.holder_norm")
        metrics, _ = self.traced_run("solve")
        self.assertEqual(metrics["variational.minimize.improvement"], 0.0)
        self.assertGreater(metrics["variational.minimize.s_per_iter"], 0.0)


class TestRunner(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        unittest.main()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
