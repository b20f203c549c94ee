import itertools
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wcreg import (CompactumSpec, FeasibleClass, GridFunction, InfeasibleProblemError,
                   NoisyData, ProblemSpec, add_noise, convergence_study, differentiate,
                   integrate, is_feasible, minimize, modulus_bruteforce, sample_feasible,
                   sup_norm)
from wcreg import variational
from wcreg.modulus import LatticeCompactum
from wcreg.variational import _poly_fits

from dense import integration_matrix, rule_matrix


def three_node_instance(delta=0.1, c=2.0):
    u = GridFunction(np.ones(3))
    data = NoisyData(integrate(u), delta)
    return u, data, CompactumSpec("sup-norm", c), ProblemSpec()


def objective(v, data, spec, prob):
    """F(v) = sup|Av - g_delta| + delta * phi(v), from the terms that
    `is_feasible` forms."""
    check = is_feasible(v, FeasibleClass(spec, data, prob))
    return check.misfit + data.delta * check.class_norm


def lattice_search_optimum(data, spec, prob):
    """Exhaustive oracle over v in {-2.0, -1.9, ..., 2.0}^3."""
    a = rule_matrix(prob, 3)
    levels = np.arange(-20, 21) / 10.0
    members = np.array(list(itertools.product(levels, repeat=3)))
    misfit = np.max(np.abs(members @ a.T - data.g_delta.values), axis=1)
    phi = np.max(np.abs(members), axis=1)
    feasible = (misfit <= data.delta) & (phi <= spec.c)
    assert feasible.any()
    return float(np.min(misfit[feasible] + data.delta * phi[feasible]))


class TestMinimize:
    def test_identity_operator_zero_data(self):
        # zero data under the injective rule: zero is the one exact fit
        prob = ProblemSpec("rectangle")
        data = NoisyData(GridFunction(np.zeros(5)), 0.05)
        res = minimize(data, CompactumSpec("sup-norm", 1.0), prob)
        assert res.objective_value == 0.0
        assert sup_norm(res.v_delta) == 0.0

    def test_three_node_oracle(self):
        u, data, spec, prob = three_node_instance()
        oracle = lattice_search_optimum(data, spec, prob)
        res = minimize(data, spec, prob)
        assert res.objective_value <= oracle + 0.02
        assert res.objective_value <= 2 * (1 + spec.phi_value(u)) * 0.1

    def test_objective_decomposition(self):
        u, data, spec, prob = three_node_instance()
        res = minimize(data, spec, prob)
        assert res.objective_value == pytest.approx(res.misfit + data.delta * res.phi_value,
                                                    abs=1e-12)

    def test_feasibility_hard_postcondition(self):
        u = GridFunction(np.ones(41))
        data = add_noise(integrate(u), 0.02, "uniform-iid", 9)
        wrapped = NoisyData(data.g_delta, 0.04)
        spec = CompactumSpec("sup-norm", 2.0)
        res = minimize(wrapped, spec, ProblemSpec())
        assert res.misfit <= wrapped.delta
        assert res.phi_value <= spec.c

    def test_returns_the_first_admitted_argmin_of_the_probes(self):
        # the best probe lies above the certificate 2(1+phi(u))delta, and the
        # output is that probe, bit for bit, whatever the budget
        u = GridFunction(0.4 * np.linspace(0.0, 1.0, 7) + 0.1)
        xi = np.random.default_rng(2).uniform(-1.0, 1.0, 7)
        data = NoisyData(GridFunction(integrate(u).values + 0.9 * 0.1 * xi), 0.1)
        spec = CompactumSpec("holder-norm", 3.0, a=1.0)
        prob = ProblemSpec()
        cands = former_anchor_candidates(data, spec, prob)
        checks = [is_feasible(GridFunction(v), FeasibleClass(spec, data, prob)) for v in cands]
        f_vals = [c.misfit + data.delta * c.class_norm if c.feasible else math.inf
                  for c in checks]
        k = f_vals.index(min(f_vals))
        res = minimize(data, spec, prob, budget=20)
        assert res.v_delta.values.tobytes() == cands[k].tobytes()
        assert (res.objective_value, res.misfit, res.phi_value) == (
            f_vals[k], checks[k].misfit, checks[k].class_norm)

    def test_budget_is_ignored_on_the_solve_benchmark_inputs(self):
        # the `solve` workload's call: n = 401, a = 2, c = 2, noise margin 0.25
        n = 401
        g = integrate(GridFunction(0.4 * np.linspace(0.0, 1.0, n))).values
        spec = CompactumSpec("holder-norm", 2.0, a=2.0)
        for seed in (1300000, 1300001, 1300002):
            xi = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
            for delta in (1e-2, 1e-3):
                data = NoisyData(GridFunction(g + 0.25 * delta * xi), delta)
                plain = minimize(data, spec, ProblemSpec())
                given = minimize(data, spec, ProblemSpec(), budget=30)
                assert given.v_delta.values.tobytes() == plain.v_delta.values.tobytes()
                assert (given.objective_value, given.misfit, given.phi_value) == (
                    plain.objective_value, plain.misfit, plain.phi_value)

    def test_infeasible_when_c_too_small(self):
        # any v with sup|v| <= 0.5 has sup|Av| <= 0.5 < g(1) - delta
        u, data, _, prob = three_node_instance(delta=0.01)
        with pytest.raises(InfeasibleProblemError):
            minimize(data, CompactumSpec("sup-norm", 0.5), prob)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_holder_class_needs_three_nodes(self, a):
        data = NoisyData(GridFunction(np.array([0.0, 0.01])), 0.1)
        with pytest.raises(ValueError, match="holder_norm needs at least 3 nodes"):
            minimize(data, CompactumSpec("holder-norm", 1.0, a=a), ProblemSpec())

    def test_raw_phi_keeps_the_finiteness_check(self):
        # a spike of 1e308 makes the crude derivative overflow; under the
        # rectangle rule no smoothed probe refuses the data first, so the
        # refusal is that of the probes themselves
        n = 7
        data = NoisyData(GridFunction(np.where(np.arange(n) == 3, 1e308, 0.0)), 0.1)
        for phi, a in (("sup-norm", None), ("holder-norm", 1.0), ("holder-norm", 2.0)):
            with np.errstate(all="ignore"), pytest.raises(ValueError, match="must all be finite"):
                minimize(data, CompactumSpec(phi, 2.0, a=a), ProblemSpec("rectangle"))

    def test_holder_phi_instance(self):
        u = GridFunction(0.4 * np.linspace(0.0, 1.0, 21))
        data = NoisyData(integrate(u), 0.01)
        spec = CompactumSpec("holder-norm", 1.0, a=2.0)
        res = minimize(data, spec, ProblemSpec())
        assert res.misfit <= 0.01
        assert res.phi_value <= 1.0


class TestReportedTerms:
    """`minimize` reports the misfit, phi and objective of its output that
    `is_feasible` gives it: one forward map, no second rounding.  `budget`
    is still accepted, and they hold with either value."""

    @pytest.mark.parametrize("budget", [0, 30])
    @pytest.mark.parametrize("phi,a", [("sup-norm", None), ("holder-norm", 0.5),
                                       ("holder-norm", 1.0), ("holder-norm", 2.0)])
    @pytest.mark.parametrize("rectangle", [False, True])
    def test_terms_equal_is_feasible(self, rectangle, phi, a, budget):
        spec = CompactumSpec(phi, 3.0, a=a)
        for n in (21, 41, 101):
            prob = ProblemSpec("rectangle" if rectangle else "trapezoid")
            u = GridFunction(0.5 + 0.4 * np.linspace(0.0, 1.0, n))
            xi = np.random.default_rng(n).uniform(-1.0, 1.0, n)
            for delta in (1e-1, 1e-2):
                data = NoisyData(GridFunction(prob.apply(u).values + 0.25 * delta * xi), delta)
                res = minimize(data, spec, prob, budget=budget)
                check = is_feasible(res.v_delta, FeasibleClass(spec, data, prob))
                assert check.feasible
                assert res.misfit == check.misfit
                assert res.phi_value == check.class_norm
                assert res.objective_value == objective(res.v_delta, data, spec, prob)


def former_anchor_candidates(data, spec, prob):
    """The former `_anchor_candidates`, whose polynomial probes were
    `np.polynomial.Polynomial.fit(x, grad, deg)(x)` and whose rectangle-rule
    probe was a least-squares solve with the dense matrix: the oracle for
    the in-module fits and the O(n) inverse."""
    g = data.g_delta
    n = g.n
    out = [np.zeros(n)]
    grad = np.gradient(g.values, g.spacing)
    if n >= 3:
        grad[0] = grad[1]
        grad[-1] = grad[-2]
    out.append(grad)
    if prob.rule == "trapezoid":
        m = 1
        ladder = []
        while 3 * m <= n - 1 and m <= (n - 1) // 4 + 1:
            ladder.append(m)
            m *= 2
        top = (n - 1) // 4
        if top >= 1 and top not in ladder:
            ladder.append(top)
        for m in ladder:
            out.append(differentiate(data, m / (n - 1)).values)
    else:
        out.append(np.linalg.lstsq(rule_matrix(prob, n), g.values, rcond=None)[0])
    x = g.x
    for deg in (1, 2, 3, 5):
        if deg <= n - 2:
            out.append(np.polynomial.Polynomial.fit(x, grad, deg)(x))
    for vals in out[1:]:
        phi = spec.phi_value(GridFunction(vals))
        if phi > spec.c:
            out.append(vals * (spec.c / phi) * (1.0 - 1e-12))
    return np.array(out)


class TestPolynomialProbes:
    """The start probes' polynomial fits are formed in-module, bit for bit
    as `numpy.polynomial` forms them, and a solve never imports it."""

    @pytest.mark.parametrize("n", list(range(3, 61)) + [101, 401, 641, 1001])
    def test_fits_match_polynomial_fit(self, n):
        x = np.linspace(0.0, 1.0, n)
        rng = np.random.default_rng(n)
        rows = {"noise": rng.normal(size=n),
                "gradient of a walk": np.gradient(np.cumsum(rng.normal(size=n)), x),
                "sin 3x": np.sin(3.0 * x)}
        degrees = [d for d in (1, 2, 3, 5) if d <= n - 2]
        for name, y in rows.items():
            fits = _poly_fits(x, y, degrees)
            assert len(fits) == len(degrees)
            for d, got in zip(degrees, fits):
                want = np.polynomial.Polynomial.fit(x, y, d)(x)
                assert got.tobytes() == want.tobytes(), (name, d)

    def test_no_degree_no_fit(self):
        assert _poly_fits(np.linspace(0.0, 1.0, 2), np.zeros(2), []) == []

    @pytest.mark.parametrize("phi,a", [("sup-norm", None), ("holder-norm", 0.5),
                                       ("holder-norm", 1.0), ("holder-norm", 2.0)])
    @pytest.mark.parametrize("rectangle", [False, True])
    def test_candidates_match_former_construction(self, rectangle, phi, a):
        spec = CompactumSpec(phi, 2.0, a=a)
        for n in (5, 7, 41, 401):
            prob = ProblemSpec("rectangle" if rectangle else "trapezoid")
            u = GridFunction(0.5 + 0.4 * np.linspace(0.0, 1.0, n))
            xi = np.random.default_rng(n).uniform(-1.0, 1.0, n)
            for delta in (1e-1, 1e-2):
                data = NoisyData(GridFunction(prob.apply(u).values + 0.5 * delta * xi), delta)
                # the raw probes; the former list went on with one pulled
                # row for each of them with phi > c
                got = variational._anchor_candidates(data, prob)
                want = former_anchor_candidates(data, spec, prob)
                if rectangle:
                    # the inverse probe (row 2) sums in another order than
                    # the solve, whose rounding grows with the matrix's
                    # condition number, about n: within n^2 eps of its scale
                    tol = n * n * np.finfo(float).eps * np.max(np.abs(want[2]))
                    assert np.max(np.abs(got[2] - want[2])) <= tol, (n, delta)
                    got[2] = want[2]
                assert got.tobytes() == want[:len(got)].tobytes(), (n, delta)
                assert len(want) == len(got) + np.count_nonzero(spec.phi_rows(got) > spec.c)

    def test_solve_and_cli_never_import_numpy_polynomial(self, tmp_path):
        script = textwrap.dedent(f"""
            import sys
            import numpy as np
            from wcreg import (CompactumSpec, GridFunction, NoisyData, ProblemSpec, add_noise,
                               cli, integrate, minimize)
            u = GridFunction(0.4 * np.linspace(0.0, 1.0, 401))
            data = NoisyData(add_noise(integrate(u), 2.5e-3, "uniform-iid", 5).g_delta, 1e-2)
            minimize(data, CompactumSpec("holder-norm", 2.0, a=2.0), ProblemSpec())
            code = cli.main(["variational", "--phi", "holder-norm", "--a", "2", "--c", "3",
                             "--deltas", "1e-1,1e-2", "--count", "4",
                             "--out", {str(tmp_path / "out")!r}])
            assert code == 0, code
            assert "numpy.polynomial" not in sys.modules
        """)
        src = Path(variational.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 0, proc.stderr


class TestMinimizeOnNoisyData:
    def test_error_decreases_over_sweep(self):
        u = GridFunction(np.ones(101))
        spec = CompactumSpec("sup-norm", 2.0)
        prob = ProblemSpec()
        errs = []
        for delta in (0.1, 0.03, 0.01):
            data = add_noise(integrate(u), 0.5 * delta, "uniform-iid", 21)
            wrapped = NoisyData(data.g_delta, delta)
            res = minimize(wrapped, spec, prob)
            errs.append(sup_norm(GridFunction(res.v_delta.values - u.values)))
        assert errs[2] < errs[1] < errs[0]

    def test_feasible_under_alternating_noise(self):
        u = GridFunction(np.ones(51))
        noisy = add_noise(integrate(u), 0.025, "alternating-worst-case", 0)
        data = NoisyData(noisy.g_delta, 0.05)
        spec = CompactumSpec("sup-norm", 2.0)
        res = minimize(data, spec, ProblemSpec())
        assert res.misfit <= 0.05
        assert res.phi_value <= 2.0

    def test_boundary_noise_finds_member(self):
        # noise saturating the whole ball leaves a knife-edge feasible set:
        # the truth's misfit is exactly delta, and minimize still finds a
        # member, judged by the same forward map as `is_feasible`
        u = GridFunction(np.ones(51))
        data = add_noise(integrate(u), 0.05, "alternating-worst-case", 0)
        spec = CompactumSpec("sup-norm", 2.0)
        cls = FeasibleClass(spec, data)
        assert is_feasible(u, cls) == (True, 0.05, 1.0)
        res = minimize(data, spec, ProblemSpec())
        assert is_feasible(res.v_delta, cls).feasible
        assert res.objective_value <= 2 * (1 + spec.phi_value(u)) * data.delta


class TestConvergenceStudy:
    def test_empty_deltas(self):
        u = GridFunction(np.ones(11))
        rows = convergence_study(u, (), CompactumSpec("sup-norm", 2.0), ProblemSpec())
        assert rows == []

    def test_error_column_nonincreasing(self):
        u = GridFunction(np.ones(101))
        rows = convergence_study(u, (1e-1, 1e-2, 1e-3), CompactumSpec("sup-norm", 2.0),
                                 ProblemSpec(), seed=0)
        errs = [r.sup_err_truth for r in rows]
        assert all(b <= a for a, b in zip(errs, errs[1:]))
        deltas = [r.delta for r in rows]
        assert deltas == sorted(deltas, reverse=True)

    def test_rows_feasible_and_certified(self):
        u = GridFunction(np.ones(51))
        rows = convergence_study(u, (0.1, 0.01), CompactumSpec("sup-norm", 2.0),
                                 ProblemSpec(), seed=3)
        for row in rows:
            assert row.misfit <= row.delta
            assert row.phi <= 2.0
            assert row.objective <= 2 * (1 + 1.0) * row.delta

    def test_rejects_truth_outside_compactum(self):
        u = GridFunction(np.ones(11))
        with pytest.raises(ValueError):
            convergence_study(u, (0.1,), CompactumSpec("sup-norm", 0.5), ProblemSpec())


class TestModulusBridge:
    def test_error_below_matched_modulus(self):
        # injective cumulative operator: both sides of the bridge inequality
        # are computable on the lattice instance
        prob = ProblemSpec("rectangle")
        u = GridFunction(np.ones(3))
        delta = 0.15
        data = add_noise(prob.apply(u), delta, "alternating-worst-case", 0)
        spec = CompactumSpec("sup-norm", 2.0)
        res = minimize(data, spec, prob)
        err = sup_norm(GridFunction(res.v_delta.values - u.values))
        lattice = LatticeCompactum(3, tuple(np.linspace(-2, 2, 9)), spec)
        [omega] = modulus_bruteforce(lattice, [2 * delta], prob)
        level_gap = 0.5
        assert err <= omega + level_gap
        assert omega == pytest.approx(1.0, abs=1e-12)


class TestIntegrationMatrixConsistency:
    def test_builtin_matrix_equals_integrate(self):
        rng = np.random.default_rng(12)
        v = rng.normal(size=33)
        a = integration_matrix(33)
        assert np.max(np.abs(a @ v - integrate(GridFunction(v)).values)) <= 1e-13

    @pytest.mark.parametrize("rule", ["trapezoid", "rectangle"])
    def test_memory_is_linear_in_n(self, rule):
        # a solve and an ensemble at n = 20,001 stay within 400 n floats;
        # one dense n-by-n matrix alone would be 20,001 n
        n = 20_001
        prob = ProblemSpec(rule)
        u = GridFunction(0.4 * np.linspace(0.0, 1.0, n))
        spec = CompactumSpec("holder-norm", 3.0, a=2.0)
        xi = np.random.default_rng(5).uniform(-1.0, 1.0, n)
        data = NoisyData(GridFunction(prob.apply(u).values + 0.25 * 1e-2 * xi), 1e-2)
        cls = FeasibleClass(spec, data, prob)
        tracemalloc.start()
        try:
            res = minimize(data, spec, prob)
            members = sample_feasible(cls, 8, 3, start=u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400 * n * 8
        assert is_feasible(res.v_delta, cls).feasible
        assert len(members) == 8
