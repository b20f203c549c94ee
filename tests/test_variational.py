import itertools
import math
import operator
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from wcreg import (CompactumSpec, FeasibleClass, GridFunction, InfeasibleProblemError,
                   NoisyData, ProblemSpec, add_noise, convergence_study, differentiate,
                   integrate, integration_matrix, is_feasible, minimize, modulus_bruteforce,
                   objective, rectangle_matrix, sample_feasible, sup_norm)
from wcreg import grid, operators, variational
from wcreg.grid import _first_max_pair
from wcreg.modulus import LatticeCompactum
from wcreg.variational import _phi, _phi_subgradient, _poly_fits, _tube_step

from test_grid import near_tie_cases


def three_node_instance(delta=0.1, c=2.0):
    u = GridFunction(np.ones(3))
    data = NoisyData(integrate(u), delta)
    return u, data, CompactumSpec("sup-norm", c), ProblemSpec()


def lattice_search_optimum(data, spec, prob):
    """Exhaustive oracle over v in {-2.0, -1.9, ..., 2.0}^3."""
    a = prob.matrix(3)
    levels = np.arange(-20, 21) / 10.0
    members = np.array(list(itertools.product(levels, repeat=3)))
    misfit = np.max(np.abs(members @ a.T - data.g_delta.values), axis=1)
    phi = np.max(np.abs(members), axis=1)
    feasible = (misfit <= data.delta) & (phi <= spec.c)
    assert feasible.any()
    return float(np.min(misfit[feasible] + data.delta * phi[feasible]))


class TestObjective:
    def test_zero(self):
        _, _, spec, prob = three_node_instance()
        zero = GridFunction(np.zeros(3))
        data0 = NoisyData(zero, 0.1)
        assert objective(zero, data0, spec, prob) == 0.0

    def test_exact_data_term(self):
        u, data, spec, prob = three_node_instance()
        # misfit vanishes on exact data, leaving delta * phi(u)
        assert objective(u, data, spec, prob) == pytest.approx(0.1 * 1.0, abs=1e-15)

    def test_matches_recomputed_terms(self):
        rng = np.random.default_rng(0)
        v = GridFunction(rng.normal(size=5))
        g = GridFunction(rng.normal(size=5))
        data = NoisyData(g, 0.3)
        spec = CompactumSpec("sup-norm", 4.0)
        prob = ProblemSpec()
        misfit = np.max(np.abs(integrate(v).values - g.values))
        assert objective(v, data, spec, prob) == pytest.approx(misfit + 0.3 * sup_norm(v), rel=1e-14)

    def test_grid_mismatch(self):
        _, data, spec, prob = three_node_instance()
        with pytest.raises(ValueError):
            objective(GridFunction(np.zeros(5)), data, spec, prob)


class TestMinimize:
    def test_identity_operator_zero_data(self):
        prob = ProblemSpec(np.eye(5))
        data = NoisyData(GridFunction(np.zeros(5)), 0.05)
        res = minimize(data, CompactumSpec("sup-norm", 1.0), prob, budget=200)
        assert res.objective_value == 0.0
        assert sup_norm(res.v_delta) == 0.0

    def test_three_node_oracle(self):
        u, data, spec, prob = three_node_instance()
        oracle = lattice_search_optimum(data, spec, prob)
        res = minimize(data, spec, prob, budget=2000)
        assert res.objective_value <= oracle + 0.02
        assert res.objective_value <= 2 * (1 + spec.phi_value(u)) * 0.1

    def test_objective_decomposition(self):
        u, data, spec, prob = three_node_instance()
        res = minimize(data, spec, prob, budget=500)
        assert res.objective_value == pytest.approx(res.misfit + data.delta * res.phi_value,
                                                    abs=1e-12)

    def test_feasibility_hard_postcondition(self):
        u = GridFunction(np.ones(41))
        data = add_noise(integrate(u), 0.02, "uniform-iid", 9)
        wrapped = NoisyData(data.g_delta, 0.04)
        spec = CompactumSpec("sup-norm", 2.0)
        res = minimize(wrapped, spec, ProblemSpec(), budget=300)
        assert res.misfit <= wrapped.delta
        assert res.phi_value <= spec.c

    def test_monotone_in_budget(self):
        u = GridFunction(np.ones(41))
        noisy = add_noise(integrate(u), 0.02, "uniform-iid", 9)
        data = NoisyData(noisy.g_delta, 0.04)
        spec = CompactumSpec("sup-norm", 2.0)
        values = [minimize(data, spec, ProblemSpec(), budget=b).objective_value
                  for b in (0, 50, 200, 800)]
        for lo, hi in zip(values[1:], values):
            assert lo <= hi

    def test_descent_lowers_objective(self):
        # the best start probe lies above the certificate, so only the
        # descent steps can bring F under it
        u = GridFunction.from_callable(lambda x: 0.4 * x + 0.1, 7)
        xi = np.random.default_rng(2).uniform(-1.0, 1.0, 7)
        data = NoisyData(GridFunction(integrate(u).values + 0.9 * 0.1 * xi), 0.1)
        spec = CompactumSpec("holder-norm", 3.0, a=1.0)
        certificate = 2 * (1 + spec.phi_value(u)) * 0.1
        f0, f1, f20 = (minimize(data, spec, ProblemSpec(), budget=b) for b in (0, 1, 20))
        assert f0.objective_value > certificate >= f20.objective_value
        assert f1.objective_value < f0.objective_value

    def test_infeasible_when_c_too_small(self):
        # any v with sup|v| <= 0.5 has sup|Av| <= 0.5 < g(1) - delta
        u, data, _, prob = three_node_instance(delta=0.01)
        with pytest.raises(InfeasibleProblemError):
            minimize(data, CompactumSpec("sup-norm", 0.5), prob, budget=100)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_holder_class_needs_three_nodes(self, a):
        data = NoisyData(GridFunction(np.array([0.0, 0.01])), 0.1)
        with pytest.raises(ValueError, match="holder_norm needs at least 3 nodes"):
            minimize(data, CompactumSpec("holder-norm", 1.0, a=a), ProblemSpec(), budget=5)

    def test_raw_phi_keeps_the_finiteness_check(self):
        spec = CompactumSpec("holder-norm", 1.0, a=1.0)
        with np.errstate(all="ignore"):
            for bad in (np.inf, np.nan):
                with pytest.raises(ValueError, match="must all be finite"):
                    _phi(spec, np.array([0.0, bad, 0.0]))
            # finite values whose quotient overflows give phi = inf, as phi_value does
            values = np.array([0.0, 1.7e308, -1.7e308])
            assert _phi(spec, values)[0] == spec.phi_value(GridFunction(values)) == math.inf

    def test_holder_phi_instance(self):
        u = GridFunction.from_callable(lambda x: 0.4 * x, 21)
        data = NoisyData(integrate(u), 0.01)
        spec = CompactumSpec("holder-norm", 1.0, a=2.0)
        res = minimize(data, spec, ProblemSpec(), budget=300)
        assert res.misfit <= 0.01
        assert res.phi_value <= 1.0


class TestReportedTerms:
    """`minimize` reports the misfit, phi and objective of its output that
    `is_feasible` and `objective` give it: one forward map, no second
    rounding."""

    @pytest.mark.parametrize("budget", [0, 30])
    @pytest.mark.parametrize("phi,a", [("sup-norm", None), ("holder-norm", 0.5),
                                       ("holder-norm", 1.0), ("holder-norm", 2.0)])
    @pytest.mark.parametrize("rectangle", [False, True])
    def test_terms_equal_is_feasible(self, rectangle, phi, a, budget):
        spec = CompactumSpec(phi, 3.0, a=a)
        for n in (21, 41, 101):
            prob = ProblemSpec(rectangle_matrix(n)) if rectangle else ProblemSpec()
            u = GridFunction.from_callable(lambda x: 0.5 + 0.4 * x, n)
            xi = np.random.default_rng(n).uniform(-1.0, 1.0, n)
            for delta in (1e-1, 1e-2):
                data = NoisyData(GridFunction(prob.apply(u).values + 0.25 * delta * xi), delta)
                res = minimize(data, spec, prob, budget=budget)
                check = is_feasible(res.v_delta, FeasibleClass(spec, data, prob))
                assert check.feasible
                assert res.misfit == check.misfit
                assert res.phi_value == check.class_norm
                assert res.objective_value == objective(res.v_delta, data, spec, prob)


def two_pass_subgradient(vals, x, spec):
    """The former `_phi_subgradient`, which scanned the Holder terms of vals
    a second time: the oracle for the subgradient built from the maximizers
    that `_phi` keeps."""
    n = vals.size
    grad = np.zeros(n)
    i_sup = int(np.argmax(np.abs(vals)))
    grad[i_sup] += np.sign(vals[i_sup])
    if spec.phi == "sup-norm":
        return grad
    a = spec.a
    dx = x[1] - x[0]
    if a <= 1.0:
        quot, i, j = _first_max_pair(vals, x, a)
        if quot > 0.0:
            s = np.sign(vals[i] - vals[j]) / abs(x[i] - x[j]) ** a
            grad[i] += s
            grad[j] -= s
        return grad
    slopes = np.diff(vals) / dx
    k = int(np.argmax(np.abs(slopes)))
    s = np.sign(slopes[k]) / dx
    grad[k + 1] += s
    grad[k] -= s
    quot, i, j = _first_max_pair(slopes, x[:-1], a - 1.0)
    if quot > 0.0:
        s = np.sign(slopes[i] - slopes[j]) / (abs(x[i] - x[j]) ** (a - 1.0) * dx)
        grad[i + 1] += s
        grad[i] -= s
        grad[j + 1] -= s
        grad[j] += s
    return grad


PHI_CLASSES = [("sup-norm", None)] + [("holder-norm", a) for a in (0.3, 0.5, 1.0, 1.3, 1.5, 2.0)]


class TestFusedPhiTerms:
    """`_phi` forms phi and the maximizers of its terms in one pass, and the
    subgradient is built from those maximizers."""

    @staticmethod
    def rows(n):
        x = np.linspace(0.0, 1.0, n)
        rng = np.random.default_rng(n)
        cases = {"random": rng.normal(size=n), "uniform": rng.uniform(-1.0, 1.0, n),
                 "linear": 0.4 * x, "linear -1.3": -1.3 * x + 0.2, "zero": np.zeros(n)}
        return cases | near_tie_cases(n)

    @pytest.mark.parametrize("phi,a", PHI_CLASSES,
                             ids=["sup"] + [f"a{a}" for _, a in PHI_CLASSES[1:]])
    def test_phi_and_subgradient_match_two_passes(self, phi, a):
        spec = CompactumSpec(phi, 1.0, a=a)
        for n in (3, 4, 7, 41, 401):
            x = np.linspace(0.0, 1.0, n)
            for name, values in self.rows(n).items():
                got, at = _phi(spec, values)
                assert got == spec.phi_value(GridFunction(values)), (n, name)
                want = two_pass_subgradient(values, x, spec)
                assert np.array_equal(_phi_subgradient(values, at, spec), want), (n, name)

    def test_overflowing_slopes_give_nan_as_phi_value_does(self):
        # slopes inf, inf: their quotient is nan, which `_first_max_pair`
        # never takes as a maximum, while `phi_value`'s maxima propagate it
        spec = CompactumSpec("holder-norm", 1.0, a=2.0)
        values = np.array([-1.7e308, 0.0, 1.7e308])
        with np.errstate(all="ignore"):
            assert math.isnan(spec.phi_value(GridFunction(values)))
            assert math.isnan(_phi(spec, values)[0])

    def test_one_kernel_scan_per_phi_evaluation(self, monkeypatch):
        # count the `_pair_bands` scans made inside each `_phi` and
        # `_phi_subgradient` call of one `minimize` iteration at a = 2
        scans, calls, inside = [], [], []
        bands = grid._pair_bands

        def counting_bands(*args):
            scans.append(inside[-1] if inside else None)
            return bands(*args)

        def counted(name):
            func = getattr(variational, name)

            def wrapper(*args):
                calls.append(name)
                inside.append(len(calls) - 1)
                try:
                    return func(*args)
                finally:
                    inside.pop()
            monkeypatch.setattr(variational, name, wrapper)

        monkeypatch.setattr(grid, "_pair_bands", counting_bands)
        counted("_phi")
        counted("_phi_subgradient")
        n = 401
        u = GridFunction.from_callable(lambda x: 0.4 * x, n)
        xi = np.random.default_rng(1).uniform(-1.0, 1.0, n)
        data = NoisyData(GridFunction(integrate(u).values + 2.5e-3 * xi), 1e-2)
        spec = CompactumSpec("holder-norm", 2.0, a=2.0)
        minimize(data, spec, ProblemSpec(), budget=0)
        before = (len(calls), len(scans))
        minimize(data, spec, ProblemSpec(), budget=1)
        run_calls = calls[before[0]:]
        run_scans = [k - before[0] for k in scans[before[1]:] if k is not None]
        assert run_calls.count("_phi_subgradient") == 1
        for k, name in enumerate(run_calls):
            assert run_scans.count(k) == (1 if name == "_phi" else 0), name
        # and no scan outside `_phi` beyond the start's batched phi
        assert scans[before[1]:].count(None) == scans[:before[1]].count(None)


def former_anchor_candidates(data, spec, prob):
    """The former `_anchor_candidates`, whose polynomial probes were
    `np.polynomial.Polynomial.fit(x, grad, deg)(x)`: the oracle for the
    in-module fits."""
    g = data.g_delta
    n = g.n
    out = [np.zeros(n)]
    grad = np.gradient(g.values, g.spacing)
    if n >= 3:
        grad[0] = grad[1]
        grad[-1] = grad[-2]
    out.append(grad)
    if prob.operator is None:
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
        out.append(np.linalg.lstsq(prob.matrix(n), g.values, rcond=None)[0])
    x = g.x
    for deg in (1, 2, 3, 5):
        if deg <= n - 2:
            out.append(np.polynomial.Polynomial.fit(x, grad, deg)(x))
    out += [variational._rescaled(spec, vals, phi)[0] for vals in out[1:]
            if (phi := _phi(spec, vals)[0]) > spec.c]
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
            prob = ProblemSpec(rectangle_matrix(n)) if rectangle else ProblemSpec()
            u = GridFunction.from_callable(lambda x: 0.5 + 0.4 * x, n)
            xi = np.random.default_rng(n).uniform(-1.0, 1.0, n)
            for delta in (1e-1, 1e-2):
                data = NoisyData(GridFunction(prob.apply(u).values + 0.5 * delta * xi), delta)
                got = variational._anchor_candidates(data, spec, prob)
                want = former_anchor_candidates(data, spec, prob)
                assert got.tobytes() == want.tobytes(), (n, delta)
                assert got.shape == want.shape

    def test_solve_and_cli_never_import_numpy_polynomial(self, tmp_path):
        script = textwrap.dedent(f"""
            import sys
            import numpy as np
            from wcreg import (CompactumSpec, GridFunction, NoisyData, ProblemSpec, add_noise,
                               cli, integrate, minimize)
            u = GridFunction(0.4 * np.linspace(0.0, 1.0, 401))
            data = NoisyData(add_noise(integrate(u), 2.5e-3, "uniform-iid", 5).g_delta, 1e-2)
            minimize(data, CompactumSpec("holder-norm", 2.0, a=2.0), ProblemSpec(), budget=5)
            code = cli.main(["variational", "--phi", "holder-norm", "--a", "2", "--c", "3",
                             "--deltas", "1e-1,1e-2", "--budget", "20", "--count", "4",
                             "--out", {str(tmp_path / "out")!r}])
            assert code == 0, code
            assert "numpy.polynomial" not in sys.modules
        """)
        src = Path(variational.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 0, proc.stderr


def dyadic(arr):
    """Integers m and a shift e with arr == m / 2**e exactly."""
    fracs = [Fraction(float(x)) for x in np.ravel(arr)]
    e = max(f.denominator for f in fracs).bit_length() - 1
    return [f.numerator << (e - f.denominator.bit_length() + 1) for f in fracs], e


def exact_operator(a_mat):
    """vec -> a_mat @ vec in rationals."""
    a_ints, ea = dyadic(a_mat)
    n = a_mat.shape[1]
    rows = [a_ints[k * n:(k + 1) * n] for k in range(a_mat.shape[0])]

    def apply(vec):
        v_ints, ev = dyadic(vec)
        return [Fraction(sum(map(operator.mul, row, v_ints)), 1 << (ea + ev)) for row in rows]
    return apply


class TestTubeStep:
    """`_tube_step` against the exact exit of each segment, in rationals:
    12 segments per operator and grid, 48 in all.  The residuals it forms
    are those of the forward map, `ProblemSpec.apply_rows`."""

    @pytest.mark.parametrize("n", [41, 201])
    @pytest.mark.parametrize("rectangle", [False, True])
    def test_matches_exact_exit(self, rectangle, n):
        prob = ProblemSpec(rectangle_matrix(n)) if rectangle else ProblemSpec()

        def forward(vec):
            return prob.apply_rows(vec[None])[0]

        # the trapezoid recurrence and its matrix have the same exact entries
        apply_exact = exact_operator(prob.matrix(n))
        base = 0.4 * np.linspace(0.0, 1.0, n)
        rng = np.random.default_rng(n + rectangle)
        for delta in (1e-1, 1e-2, 1e-3):
            g = forward(base) + 0.25 * delta * rng.uniform(-1.0, 1.0, n)
            base_res = forward(base) - g
            r0 = [ab - Fraction(gk) for ab, gk in zip(apply_exact(base), g)]
            for scale in (0.5, 2.0, 8.0, 64.0):
                direction = rng.normal(size=n)
                direction *= scale * delta / np.abs(forward(direction)).max()
                r1 = apply_exact(direction)
                exact = min([Fraction(1)] + [(Fraction(delta) * (1 if r > 0 else -1) - r0k) / r
                                             for r0k, r in zip(r0, r1) if r != 0])
                cls = FeasibleClass(CompactumSpec("sup-norm", 1.0),
                                    NoisyData(GridFunction(g), delta), prob)
                t, v, res = _tube_step(cls, base, base_res, direction)
                assert abs(Fraction(t) - exact) <= Fraction(1e-9) * exact
                assert np.array_equal(v, base + t * direction)
                assert np.array_equal(res, forward(v) - g)
                assert np.abs(res).max() <= delta


class TestMinimizeOnNoisyData:
    def test_error_decreases_over_sweep(self):
        u = GridFunction(np.ones(101))
        spec = CompactumSpec("sup-norm", 2.0)
        prob = ProblemSpec()
        errs = []
        for delta in (0.1, 0.03, 0.01):
            data = add_noise(integrate(u), 0.5 * delta, "uniform-iid", 21)
            wrapped = NoisyData(data.g_delta, delta)
            res = minimize(wrapped, spec, prob, stop_at=2 * (1 + 1.0) * delta)
            errs.append(sup_norm(GridFunction(res.v_delta.values - u.values)))
        assert errs[2] < errs[1] < errs[0]

    def test_feasible_under_alternating_noise(self):
        u = GridFunction(np.ones(51))
        noisy = add_noise(integrate(u), 0.025, "alternating-worst-case", 0)
        data = NoisyData(noisy.g_delta, 0.05)
        spec = CompactumSpec("sup-norm", 2.0)
        res = minimize(data, spec, ProblemSpec(), budget=400)
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
        res = minimize(data, spec, ProblemSpec(), budget=400)
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
        prob = ProblemSpec(rectangle_matrix(3))
        u = GridFunction(np.ones(3))
        delta = 0.15
        data = add_noise(prob.apply(u), delta, "alternating-worst-case", 0)
        spec = CompactumSpec("sup-norm", 2.0)
        res = minimize(data, spec, prob, stop_at=2 * (1 + 1.0) * delta)
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

    def test_builtin_map_never_builds_the_matrix(self, monkeypatch):
        # the forward map is the recurrence and the adjoint is read by rows:
        # no computation on the built-in map forms the n-by-n matrix
        def refuse(n):
            raise AssertionError(f"integration_matrix({n}) was built")

        monkeypatch.setattr(operators, "integration_matrix", refuse)
        n = 401
        u = GridFunction(0.4 * np.linspace(0.0, 1.0, n))
        spec = CompactumSpec("holder-norm", 3.0, a=2.0)
        prob = ProblemSpec()
        data = NoisyData(add_noise(integrate(u), 2.5e-3, "uniform-iid", 5).g_delta, 1e-2)
        cls = FeasibleClass(spec, data, prob)
        res = minimize(data, spec, prob, budget=30)
        assert is_feasible(res.v_delta, cls).feasible
        assert len(sample_feasible(cls, 8, 3, start=u)) == 8
        lattice = LatticeCompactum(4, tuple(np.linspace(-1, 1, 8)), CompactumSpec("sup-norm", 1.0))
        assert modulus_bruteforce(lattice, [1e-2], prob)[0] > 0.0
        rows = convergence_study(u, [1e-1, 1e-2], spec, prob, budget=30, ensemble_count=4)
        assert len(rows) == 2
