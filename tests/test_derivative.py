import functools
import math

import numpy as np
import pytest

from wcreg import (CompactumSpec, GridFunction, GridTooCoarseError,
                   NoisyData, add_noise, differentiate, error_bound,
                   integrate, regularize, step_size, sup_norm)


def holder(a, m):
    """The Holder class {holder_norm_a <= m}."""
    return CompactumSpec("holder-norm", m, a=a)


def stencil_worst_noise(n: int, step_multiple: int, delta: float) -> GridFunction:
    """The +-delta pattern that saturates the delta/h noise bound.

    Signs flip every 2*step_multiple nodes, so the two samples of every
    interior symmetric stencil with offset step_multiple carry opposite
    signs and the quotient reaches exactly delta/h.  (The plain
    node-alternating pattern (-1)^k is annihilated by symmetric stencils,
    whose sample indices always differ by an even count.)
    """
    if step_multiple < 1:
        raise ValueError("step_multiple must be at least 1")
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    blocks = np.arange(n) // (2 * step_multiple)
    return GridFunction(np.where(blocks % 2 == 0, delta, -delta))


def exact_data(func, n, delta=1e-12):
    return NoisyData(GridFunction(func(np.linspace(0.0, 1.0, n))), delta)


def class_rows(n, c, free=0):
    """Rows A_ub x <= b_ub of the Holder a = 2 class {phi(v) <= c} on n
    nodes, over x = (v, `free` columns that no row reads, t1, t2, t3).

    The three phi terms are t1 >= |v_i|, t2 >= |s_k| and
    t3 >= |s_{k+1} - s_k| / dx over the forward slopes s (adjacent rows
    suffice at power 1), and t1 + t2 + t3 <= c.
    """
    from scipy import sparse

    dx = 1.0 / (n - 1)
    slopes = sparse.diags([-1.0, 1.0], [0, 1], shape=(n - 1, n)).tocsr() / dx
    rows = []
    for mat, col in ((sparse.eye(n), 0), (slopes, 1), ((slopes[1:] - slopes[:-1]) / dx, 2)):
        terms = np.zeros((mat.shape[0], 3))
        terms[:, col] = -1.0
        for sign in (1.0, -1.0):
            rows.append(sparse.hstack([sign * mat, sparse.csr_matrix((mat.shape[0], free)),
                                       terms]))
    rows.append(sparse.csr_matrix(np.r_[np.zeros(n + free), 1.0, 1.0, 1.0]))
    a_ub = sparse.vstack(rows).tocsr()
    return a_ub, np.r_[np.zeros(a_ub.shape[0] - 1), c]


def boundary_worst_case(data, recon, c):
    """Largest |recon_k - v_k| at the end nodes k = 0 and n - 1 over the
    Holder a = 2 class {phi(v) <= c} intersected with the data tube, by LP.

    Variables: v, y = Av by the trapezoid recurrence, and the three phi
    terms of `class_rows`.  The tube is the box |y - g_delta| <= delta.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    g = data.g_delta.values
    n = g.size
    dx = 1.0 / (n - 1)
    a_ub, b_ub = class_rows(n, c, free=n)
    diff = sparse.diags([-1.0, 1.0], [0, 1], shape=(n - 1, n))
    trapezoid = sparse.diags([0.5 * dx, 0.5 * dx], [0, 1], shape=(n - 1, n))
    a_eq = sparse.vstack([
        sparse.hstack([-trapezoid, diff, sparse.csr_matrix((n - 1, 3))]),
        sparse.csr_matrix(np.r_[np.zeros(n), 1.0, np.zeros(n + 2)]),  # y_0 = 0
    ]).tocsr()
    bounds = [(None, None)] * n + list(zip(g - data.delta, g + data.delta)) + [(0, None)] * 3
    worst = 0.0
    for k in (0, n - 1):
        for sign in (1.0, -1.0):
            cost = np.zeros(2 * n + 3)
            cost[k] = sign
            lp = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.zeros(n),
                         bounds=bounds, method="highs")
            assert lp.status == 0, lp.message
            worst = max(worst, abs(recon[k] - lp.x[k]))
    return worst


@functools.lru_cache(maxsize=None)
def exact_eta(n, delta):
    """The exact worst-case sup error of the rule `regularize` applies at
    noise level delta on n nodes, over the Holder a = 2, m = 1 class.

    The rule is linear: D, from `differentiate` on unit vectors at the step
    h_used, maps data to reconstruction, and A, from `integrate` on unit
    vectors, maps v to its data.  At node k the error D(Av + e) - v is worst
    at delta ||D_k||_1 plus the largest ((DA - I)v)_k over the class, which
    is symmetric, by one LP per node.  Returns (result.eta, exact).
    """
    from scipy.optimize import linprog

    result = regularize(NoisyData(GridFunction.zeros(n), delta), holder(2, 1.0))
    unit = np.eye(n)
    rule = np.array([differentiate(NoisyData(GridFunction(e), delta), result.h_used).values
                     for e in unit]).T
    forward = np.array([integrate(GridFunction(e)).values for e in unit]).T
    gain = rule @ forward - unit
    a_ub, b_ub = class_rows(n, 1.0)
    worst = 0.0
    for k in range(n):
        lp = linprog(np.r_[-gain[k], 0.0, 0.0, 0.0], A_ub=a_ub, b_ub=b_ub,
                     bounds=[(None, None)] * n + [(0, None)] * 3, method="highs")
        assert lp.status == 0, lp.message
        worst = max(worst, delta * np.sum(np.abs(rule[k])) - lp.fun)
    return result.eta, worst


AUDIT = [(n, delta) for n in (11, 21, 41) for delta in (1e-1, 1e-2, 1e-3, 1e-4)]
#: where `sweep` prints the eta of the unsnapped rule step below the exact
#: worst case of the step `regularize` uses (ROADMAP item 12)
SWEEP_ETA_BELOW = {(11, 1e-3), (11, 1e-4), (21, 1e-4), (41, 1e-4)}


class TestStepSize:
    def test_known_values(self):
        assert step_size(1e-4, holder(2, 1)) == pytest.approx(0.01, rel=1e-12)
        assert step_size(4e-4, holder(2, 4)) == pytest.approx(0.01, rel=1e-12)

    def test_clips_to_quarter(self):
        # raw value (0.1/0.0005)**(2/3) ~ 34.2
        assert step_size(0.1, holder(1.5, 1e-3)) == 0.25

    def test_clips_to_spacing(self):
        # the rule's 1e-6 lies below the spacing 0.01; regularize uses one spacing
        x = np.linspace(0.0, 1.0, 101)
        res = regularize(NoisyData(GridFunction(x ** 2 / 2), 1e-12), holder(2, 1))
        assert res.h_used == 0.01

    def test_minimizes_bound(self):
        # scanning oracle: the returned h beats a fine grid of alternatives
        params = holder(1.7, 2.0)
        delta = 3e-4
        h = step_size(delta, params)
        value = error_bound(delta, params, h)
        for trial in np.linspace(1e-4, 0.25, 4001):
            assert value <= error_bound(delta, params, trial) + 1e-12

    def test_stationarity(self):
        params = holder(2, 1)
        delta = 1e-4
        h = step_size(delta, params)
        base = error_bound(delta, params, h)
        assert error_bound(delta, params, 1.01 * h) > base
        assert error_bound(delta, params, 0.99 * h) > base

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            step_size(0.0, holder(2, 1))
        with pytest.raises(ValueError):
            step_size(1e-3, holder(1.0, 1))

    @pytest.mark.parametrize("spec", [CompactumSpec("sup-norm", 1.0),
                                      CompactumSpec("sup-norm", 1.0, a=2.0),
                                      holder(1.0, 1), holder(0.5, 1)],
                             ids=["sup", "sup-with-a", "holder-a1", "holder-a05"])
    def test_needs_holder_class_above_one(self, spec):
        with pytest.raises(ValueError, match="step rule requires a > 1"):
            step_size(1e-3, spec)
        with pytest.raises(ValueError, match="error bound requires a > 1"):
            error_bound(1e-3, spec, 0.1)
        with pytest.raises(ValueError, match="step rule requires a > 1"):
            regularize(exact_data(lambda x: x, 101), spec)


class TestDifferentiate:
    def test_exact_on_quadratic_interior(self):
        data = exact_data(lambda x: x ** 2 / 2, 101)
        out = differentiate(data, 0.1)
        x = data.g_delta.x
        k = 50
        assert out.values[k] == pytest.approx(x[k], abs=1e-13)

    def test_constant_maps_to_zero(self):
        data = NoisyData(GridFunction(np.full(51, 3.7)), 1e-6)
        assert sup_norm(differentiate(data, 0.1)) == 0.0

    def test_sine_value(self):
        data = exact_data(lambda x: np.sin(2 * np.pi * x), 101)
        out = differentiate(data, 0.01)
        expected = 2 * math.cos(2 * math.pi * 0.5) * math.sin(2 * math.pi * 0.01) / 0.02
        assert out.values[50] == pytest.approx(expected, rel=1e-12)
        assert out.values[50] == pytest.approx(-6.27905, abs=5e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        g = rng.normal(size=101)
        base = differentiate(NoisyData(GridFunction(g), 1e-3), 0.05).values
        shifted = differentiate(NoisyData(GridFunction(g + 11.25), 1e-3), 0.05).values
        assert np.max(np.abs(base - shifted)) <= 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(8)
        g1 = rng.normal(size=81)
        g2 = rng.normal(size=81)
        alpha, beta = 0.3, -1.7
        lhs = differentiate(NoisyData(GridFunction(alpha * g1 + beta * g2), 1e-3), 0.05).values
        rhs = (alpha * differentiate(NoisyData(GridFunction(g1), 1e-3), 0.05).values
               + beta * differentiate(NoisyData(GridFunction(g2), 1e-3), 0.05).values)
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    def test_rejects_off_lattice_step(self):
        data = exact_data(lambda x: x, 101)
        with pytest.raises(ValueError):
            differentiate(data, 0.0151)

    def test_rejects_step_below_spacing(self):
        # 1e-12 is within rounding of 0 spacings, so it is refused as too small
        data = exact_data(lambda x: x, 11)
        with pytest.raises(ValueError, match="step h=1e-12 lies below the grid spacing 0.1"):
            differentiate(data, 1e-12)

    def test_rejects_large_step(self):
        data = exact_data(lambda x: x, 101)
        with pytest.raises(ValueError):
            differentiate(data, 0.51)
        with pytest.raises(ValueError, match="third"):
            differentiate(data, 0.34)


class TestErrorBound:
    def test_known_values(self):
        assert error_bound(1e-4, holder(2, 1), 0.01) == pytest.approx(0.02, rel=1e-12)
        assert error_bound(1e-2, holder(2, 1), 0.1) == pytest.approx(0.2, rel=1e-12)

    def test_small_m_limit(self):
        eta = error_bound(1e-3, holder(2, 1e-12), 0.05)
        assert eta == pytest.approx(1e-3 / 0.05, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            error_bound(0.0, holder(2, 1), 0.1)
        with pytest.raises(ValueError):
            error_bound(1e-3, holder(2, 1), 0.0)


class TestRegularize:
    def test_exactness_zero_noise(self):
        n = 1001
        x = np.linspace(0, 1, n)
        data = NoisyData(GridFunction(x ** 2 / 2), 1e-6)
        res = regularize(data, holder(2, 1))
        assert res.h_used == pytest.approx(1e-3, rel=1e-12)
        assert np.max(np.abs(res.u_delta.values[1:-1] - x[1:-1])) <= 1e-12

    def test_worst_case_noise_saturates_bound(self):
        # the stencil-period +-delta pattern drives every interior symmetric
        # quotient to exactly delta/h
        n = 641
        delta = 1e-4
        params = holder(2, 1)
        m = round(step_size(delta, params) * (n - 1))
        noise = stencil_worst_noise(n, m, delta)
        res = regularize(NoisyData(noise, delta), params)
        assert round(res.h_used * (n - 1)) == m
        interior = np.abs(res.u_delta.values[m:n - m])
        assert np.max(np.abs(interior - delta / res.h_used)) <= 1e-12

    def test_node_alternating_noise_is_annihilated(self):
        # the node-alternating pattern hits only one-sided stencils; symmetric
        # quotients see samples an even count apart and cancel exactly
        n = 641
        delta = 1e-4
        data = add_noise(GridFunction(np.zeros(n)), delta, "alternating-worst-case", 0)
        res = regularize(data, holder(2, 1))
        m = round(res.h_used * (n - 1))
        assert np.max(np.abs(res.u_delta.values[m:n - m])) == 0.0

    def test_step_is_grid_multiple_and_bound_holds(self):
        res = regularize(exact_data(lambda x: x ** 2 / 2, 101, delta=3e-4), holder(2, 1))
        m = res.h_used * 100
        assert abs(m - round(m)) <= 1e-9
        assert res.eta >= 3e-4 / res.h_used

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarseError):
            regularize(exact_data(lambda x: x, 4, delta=1e-3), holder(2, 1))

    def test_boundary_zones_within_eta(self):
        # uniform noise: neither the truth nor the worst class member in the
        # tube (an LP maximizer at the end nodes) lies farther than eta
        n = 161
        u = GridFunction(0.4 * np.linspace(0, 1, n))
        g = integrate(u)
        for seed in range(4):
            for delta in (1e-2, 1e-3, 1e-4):
                data = add_noise(g, delta, "uniform-iid", seed)
                res = regularize(data, holder(2, 1))
                assert sup_norm(GridFunction(res.u_delta.values - u.values)) <= res.eta
                assert boundary_worst_case(data, res.u_delta.values, 1.0) <= res.eta

    def test_rate_of_measured_error(self):
        # sup error decays at least as fast as eta; the eta exponent is 1-1/a
        n = 641
        x = np.linspace(0, 1, n)
        u = GridFunction(0.4 * x)
        g = integrate(u)
        params = holder(2, 1)
        deltas = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        errs = []
        etas = []
        for delta in deltas:
            data = add_noise(g, delta, "alternating-worst-case", 0)
            res = regularize(data, params)
            errs.append(sup_norm(GridFunction(res.u_delta.values - u.values)))
            etas.append(error_bound(delta, params, step_size(delta, params)))
        eta_slope = np.polyfit(np.log(deltas), np.log(etas), 1)[0]
        err_slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
        assert eta_slope == pytest.approx(1 - 1 / params.a, abs=1e-12)
        assert err_slope >= eta_slope - 0.01


class TestExactAudit:
    """`regularize`'s eta and `sweep`'s printed eta against the exact worst
    case of the applied rule (`exact_eta`) at every node."""

    @pytest.mark.parametrize("n, delta", AUDIT)
    def test_result_eta_holds(self, n, delta):
        eta, exact = exact_eta(n, delta)
        assert eta >= exact

    @pytest.mark.parametrize("n, delta", [
        pytest.param(n, delta, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 12: sweep prints the eta of the unsnapped step"))
        if (n, delta) in SWEEP_ETA_BELOW else (n, delta) for n, delta in AUDIT])
    def test_sweep_eta_holds(self, n, delta):
        spec = holder(2, 1.0)
        assert error_bound(delta, spec, step_size(delta, spec)) >= exact_eta(n, delta)[1]


class TestStencilWorstNoise:
    def test_within_ball_and_sign_blocks(self):
        noise = stencil_worst_noise(20, 3, 0.1)
        assert np.all(np.abs(noise.values) == 0.1)
        assert np.array_equal(np.sign(noise.values[:6]), np.ones(6))
        assert np.array_equal(np.sign(noise.values[6:12]), -np.ones(6))
