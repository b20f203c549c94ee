"""The four benchmark workloads.

Each workload turns an input seed into one input, runs one pass of
wcreg on it through the public API, and checks the outputs with the
independent code in `checks`.  A pass is the unit that is timed.  The sizes
below put one pass at one to three seconds on a 2-CPU x86 machine, so that a
20-second run yields enough passes for a steady median.  Why each workload
exists, and which layers it stresses, is written in README.md.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

import checks


class CliWorkload:
    """A workload that runs one `wcreg.cli.main` invocation per pass."""

    name = ""
    ops_per_pass = 1

    def make_input(self, input_seed: int) -> list[str]:
        """The CLI arguments of one pass, without --out."""
        raise NotImplementedError

    def run(self, argv: list[str], out: Path):
        import wcreg.cli

        # looked up on each call, so a tracer that rebinds cli.main sees it
        return wcreg.cli.main(argv + ["--out", str(out)])

    def check(self, argv: list[str], out: Path, rc) -> tuple[list[list[str]], dict]:
        if rc != 0:
            return [[f"wcreg exited with code {rc}"]], {}
        fails, quality = self.check_files(argv, out)
        return [fails], quality

    def check_files(self, argv, out: Path) -> tuple[list[str], dict]:
        raise NotImplementedError

    def digests(self, argv, out: Path, rc) -> dict[str, str]:
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.glob("*.csv"))}


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _deltas(argv: list[str]) -> list[float]:
    return [float(tok) for tok in _flag(argv, "--deltas").split(",")]


def _jittered(base: tuple[float, ...], input_seed: int) -> str:
    """Deltas scaled by a seed-drawn factor in [1, 1.001): the outputs differ
    from seed to seed while the auto-selected grids, hence the work, do not."""
    factors = 1.0 + 1e-3 * np.random.default_rng(input_seed).uniform(size=len(base))
    return ",".join("%.17g" % (d * f) for d, f in zip(base, factors))


class Sweep(CliWorkload):
    """The paper's headline experiment: rate sweep plus ensemble bound."""

    name = "sweep"
    count = 20

    def make_input(self, input_seed):
        return ["sweep", "--deltas", "1e-2,1e-3,1e-4,1e-5", "--a", "2", "--m", "1",
                "--noise", "uniform-iid", "--count", str(self.count),
                "--seed", str(input_seed)]

    def check_files(self, argv, out):
        from wcreg.cli import read_csv_table

        header, rows, meta = read_csv_table(out / "sweep.csv")
        fails, violations = checks.check_sweep(
            header, rows, meta, _deltas(argv),
            float(_flag(argv, "--a")), float(_flag(argv, "--m")))
        return fails, {"rows": len(rows), "cert_violations": violations}


class LipProbe(CliWorkload):
    """Lipschitz-class bump pairs on auto-selected grids of 1.8k and 5.7k nodes."""

    name = "lip-probe"
    base_deltas = (1e-5, 1e-6)

    def make_input(self, input_seed):
        return ["adversary", "--class", "lip", "--m", "1",
                "--deltas", _jittered(self.base_deltas, input_seed)]

    def check_files(self, argv, out):
        from wcreg.adversary import read_pair_csv
        from wcreg.cli import read_csv_table

        header, rows, _ = read_csv_table(out / "diameters.csv")
        want = sorted(_deltas(argv), reverse=True)
        if header != ["delta", "separation"] or [r[0] for r in rows] != want:
            return [f"diameters.csv: header {header}, deltas {[r[0] for r in rows]}"], {}
        bound = float(_flag(argv, "--m"))
        fails = []
        for i, (delta, separation) in enumerate(rows):
            pair = read_pair_csv(out / f"pair_{i:03d}.csv")
            fails += [f"pair_{i:03d}: {msg}"
                      for msg in checks.check_pair(pair, delta, bound, separation)]
        return fails, {}


class Modulus(CliWorkload):
    """Brute-force modulus on the full 4-node sup-norm lattice."""

    name = "modulus"
    levels = 8
    base_deltas = (1e-2, 1e-3)

    def make_input(self, input_seed):
        return ["modulus", "--phi", "sup-norm", "--c", "1", "--mode", "bruteforce",
                "--lattice-nodes", "4", "--levels", str(self.levels),
                "--deltas", _jittered(self.base_deltas, input_seed)]

    def check_files(self, argv, out):
        from wcreg.cli import read_csv_table

        header, rows, _ = read_csv_table(out / "modulus.csv")
        return checks.check_modulus(header, rows, _deltas(argv),
                                    float(_flag(argv, "--c"))), {}


class Solve:
    """`wcreg.minimize` as a library call, fixed budget, no early stop.

    Data are integrate(0.4 x) + margin * delta * xi, with one uniform xi
    drawn from the input seed and shared by both deltas, so the truth lies
    inside the tube.
    """

    name = "solve"
    n = 401
    deltas = (1e-2, 1e-3)
    budget = 30
    c = 2.0
    a = 2.0
    #: at margin 0.5 no start probe of minimize lies in the tube for about
    #: 38% of xi draws and it raises InfeasibleProblemError; at 0.25 every
    #: draw tried starts.  Each pass probes margin 0.5 untimed, so the defect
    #: stays visible (README.md, "Known defects").
    noise_margin = 0.25
    probe_margin = 0.5
    ops_per_pass = len(deltas)

    def make_input(self, input_seed):
        x = np.linspace(0.0, 1.0, self.n)
        u = 0.4 * x
        g = checks.trapezoid(u)
        xi = np.random.default_rng(input_seed).uniform(-1.0, 1.0, self.n)
        return {"phi_u": checks.holder_norm(u, self.a), "g": g, "xi": xi,
                "data": [g + (self.noise_margin * delta) * xi for delta in self.deltas]}

    def minimize(self, data, delta, budget):
        import wcreg

        return wcreg.minimize(wcreg.NoisyData(wcreg.GridFunction(data), delta),
                              wcreg.CompactumSpec("holder-norm", self.c, a=self.a),
                              wcreg.ProblemSpec(), budget=budget)

    def solve(self, inp, budget):
        return [self.minimize(data, delta, budget)
                for data, delta in zip(inp["data"], self.deltas)]

    def run(self, inp, out):
        return self.solve(inp, self.budget)

    def starts_at_probe_margin(self, inp) -> bool:
        """Whether minimize finds a feasible start on the same xi at margin 0.5."""
        from wcreg import InfeasibleProblemError

        delta = self.deltas[0]
        try:
            self.minimize(inp["g"] + (self.probe_margin * delta) * inp["xi"], delta, 0)
        except InfeasibleProblemError:
            return False
        return True

    def check(self, inp, out, results):
        per_op, ratios = [], []
        for res, data, delta in zip(results, inp["data"], self.deltas):
            fails, ratio = checks.check_solution(res.v_delta.values, data, delta, self.c,
                                                 self.a, res.objective_value,
                                                 inp["phi_u"])
            per_op.append(fails)
            ratios.append(ratio)
        return per_op, {"objective_ratio": max(ratios),
                        "no_start_at_0.5": not self.starts_at_probe_margin(inp)}

    def digests(self, inp, out, results):
        return {f"v_delta[{delta!r}]": hashlib.sha256(res.v_delta.values.tobytes()).hexdigest()
                for res, delta in zip(results, self.deltas)}

    def improvement(self, inp, results) -> float:
        """Mean over deltas of 1 - F(budget) / F(budget=0)."""
        anchors = self.solve(inp, 0)
        return float(np.mean([1.0 - r.objective_value / r0.objective_value
                              for r, r0 in zip(results, anchors)]))


WORKLOADS = {w.name: w for w in (Sweep(), LipProbe(), Solve(), Modulus())}
