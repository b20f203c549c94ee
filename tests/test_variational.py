import itertools

import numpy as np
import pytest

from wcreg import (CompactumSpec, GridFunction, InfeasibleProblemError, NoisyData,
                   ProblemSpec, add_noise, convergence_study, integrate,
                   integration_matrix, minimize, modulus_bruteforce, objective,
                   rectangle_matrix, regularize_variational, sup_norm)
from wcreg.modulus import LatticeCompactum


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
        res = minimize(data, spec, prob, budget=2000, phi_u=1.0)
        assert res.objective_value <= oracle + 0.02
        assert res.certificate_bound == pytest.approx(2 * (1 + 1.0) * 0.1)
        assert res.objective_value <= res.certificate_bound

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

    def test_infeasible_when_c_too_small(self):
        # any v with sup|v| <= 0.5 has sup|Av| <= 0.5 < g(1) - delta
        u, data, _, prob = three_node_instance(delta=0.01)
        with pytest.raises(InfeasibleProblemError):
            minimize(data, CompactumSpec("sup-norm", 0.5), prob, budget=100)

    def test_holder_phi_instance(self):
        u = GridFunction.from_callable(lambda x: 0.4 * x, 21)
        data = NoisyData(integrate(u), 0.01)
        spec = CompactumSpec("holder-norm", 1.0, a=2.0)
        res = minimize(data, spec, ProblemSpec(), budget=300)
        assert res.misfit <= 0.01
        assert res.phi_value <= 1.0


class TestRegularizeVariational:
    def test_error_decreases_over_sweep(self):
        u = GridFunction(np.ones(101))
        spec = CompactumSpec("sup-norm", 2.0)
        prob = ProblemSpec()
        errs = []
        for delta in (0.1, 0.03, 0.01):
            data = add_noise(integrate(u), 0.5 * delta, "uniform-iid", 21)
            wrapped = NoisyData(data.g_delta, delta)
            res = regularize_variational(wrapped, spec, prob, phi_u=1.0,
                                         stop_at=2 * (1 + 1.0) * delta)
            errs.append(sup_norm(GridFunction(res.v_delta.values - u.values)))
        assert errs[2] < errs[1] < errs[0]

    def test_feasible_under_alternating_noise(self):
        u = GridFunction(np.ones(51))
        noisy = add_noise(integrate(u), 0.025, "alternating-worst-case", 0)
        data = NoisyData(noisy.g_delta, 0.05)
        spec = CompactumSpec("sup-norm", 2.0)
        res = regularize_variational(data, spec, ProblemSpec(), budget=400)
        assert res.misfit <= 0.05
        assert res.phi_value <= 2.0

    def test_boundary_noise_reports_infeasible(self):
        # noise saturating the whole ball leaves a knife-edge feasible set;
        # when no data-fit probe lands inside, the failure is reported
        u = GridFunction(np.ones(51))
        data = add_noise(integrate(u), 0.05, "alternating-worst-case", 0)
        spec = CompactumSpec("sup-norm", 2.0)
        with pytest.raises(InfeasibleProblemError):
            regularize_variational(data, spec, ProblemSpec(), budget=400)


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
            assert row.sup_err_truth <= row.omega_2delta + 1e-12

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
        res = regularize_variational(data, spec, prob, phi_u=1.0,
                                     stop_at=2 * (1 + 1.0) * delta)
        err = sup_norm(GridFunction(res.v_delta.values - u.values))
        lattice = LatticeCompactum(3, tuple(np.linspace(-2, 2, 9)), spec)
        omega = modulus_bruteforce(lattice, 2 * delta, prob)
        level_gap = 0.5
        assert err <= omega + level_gap
        assert omega == pytest.approx(1.0, abs=1e-12)


class TestIntegrationMatrixConsistency:
    def test_builtin_matrix_equals_integrate(self):
        rng = np.random.default_rng(12)
        v = rng.normal(size=33)
        a = integration_matrix(33)
        assert np.max(np.abs(a @ v - integrate(GridFunction(v)).values)) <= 1e-13
