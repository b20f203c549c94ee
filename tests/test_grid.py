import math

import numpy as np
import pytest

from wcreg import (GridFunction, HolderParams, NoisyData, add_noise, holder_norm,
                   integrate, integration_matrix, read_grid_csv, sup_norm,
                   write_grid_csv)
from wcreg.grid import _first_max_pair


def grid_fn(func, n):
    return GridFunction.from_callable(func, n)


def pair_scan_norm(values, x, a):
    """Independent exhaustive oracle for the discrete Holder norm."""
    n = len(values)
    if a <= 1.0:
        best = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                best = max(best, abs(values[i] - values[j]) / abs(x[i] - x[j]) ** a)
        return max(abs(v) for v in values) + best
    dx = x[1] - x[0]
    slopes = [(values[i + 1] - values[i]) / dx for i in range(n - 1)]
    best = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            best = max(best, abs(slopes[i] - slopes[j]) / abs(x[i] - x[j]) ** (a - 1.0))
    return max(abs(v) for v in values) + max(abs(s) for s in slopes) + best


def pair_scan_first_max(values, x, power):
    """Independent exhaustive oracle: largest pair quotient and its row-major
    first maximizer (i, j), over ordered pairs i != j."""
    best, at = 0.0, (0, 0)
    for i in range(len(values)):
        for j in range(len(values)):
            if i != j:
                q = abs(values[i] - values[j]) / abs(x[i] - x[j]) ** power
                if q > best:
                    best, at = q, (i, j)
    return (best,) + at


class TestGridFunction:
    def test_nodes_and_spacing(self):
        f = GridFunction(np.zeros(11))
        assert f.n == 11
        assert f.spacing == pytest.approx(0.1)
        assert np.allclose(f.x, np.arange(11) / 10.0)

    def test_rejects_short_and_nonfinite(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([1.0]))
        with pytest.raises(ValueError):
            GridFunction(np.array([1.0, np.nan, 0.0]))

    def test_values_immutable(self):
        f = GridFunction(np.zeros(5))
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestSupNorm:
    def test_zero_function(self):
        assert sup_norm(GridFunction(np.zeros(11))) == 0.0

    def test_linear(self):
        assert sup_norm(grid_fn(lambda x: x, 11)) == 1.0

    def test_sine_grid_peak(self):
        f = grid_fn(lambda x: np.sin(2 * np.pi * x), 101)
        assert abs(sup_norm(f) - 1.0) <= 1.3e-3

    def test_zero_iff_all_zero(self):
        f = GridFunction(np.array([0.0, 0.0, 1e-300]))
        assert sup_norm(f) > 0.0


class TestHolderNorm:
    def test_constant_a1(self):
        f = GridFunction(np.full(9, -2.5))
        assert holder_norm(f, 1.0) == pytest.approx(2.5, abs=1e-15)

    def test_linear_a1_matches_oracle(self):
        f = grid_fn(lambda x: x, 11)
        assert holder_norm(f, 1.0) == pytest.approx(pair_scan_norm(f.values, f.x, 1.0))
        assert holder_norm(f, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_linear_a2_matches_oracle(self):
        f = grid_fn(lambda x: x, 11)
        assert holder_norm(f, 2.0) == pytest.approx(pair_scan_norm(f.values, f.x, 2.0))
        assert holder_norm(f, 2.0) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.0])
    def test_random_matches_oracle(self, a):
        rng = np.random.default_rng(42)
        f = GridFunction(rng.normal(size=17))
        assert holder_norm(f, a) == pytest.approx(pair_scan_norm(f.values, f.x, a), rel=1e-12)

    @pytest.mark.parametrize("values", [
        np.where(np.arange(9) % 2 == 0, 1.0, -1.0),  # every neighbour pair ties
        np.linspace(0.0, 1.0, 11),                   # every pair ties at power 1
        np.zeros(7),                                 # no positive quotient
        np.random.default_rng(4).normal(size=23),
    ])
    @pytest.mark.parametrize("power", [0.5, 1.0])
    def test_first_max_pair_matches_oracle(self, values, power):
        x = np.linspace(0.0, 1.0, values.size)
        assert _first_max_pair(values, x, power) == pair_scan_first_max(values, x, power)

    def test_first_max_pair_across_row_blocks(self):
        # 1501 nodes span two row blocks; the alternating ties recur in both
        n = 1501
        x = np.linspace(0.0, 1.0, n)
        for values in (np.where(np.arange(n) % 2 == 0, 1.0, -1.0),
                       np.random.default_rng(8).normal(size=n)):
            dx = np.abs(x[:, None] - x[None, :])
            quot = np.abs(values[:, None] - values[None, :]) / np.where(dx == 0, np.inf, dx)
            i, j = np.unravel_index(np.argmax(quot), quot.shape)
            assert _first_max_pair(values, x, 1.0) == (quot[i, j], i, j)

    @pytest.mark.parametrize("a", [0.0, -1.0, 2.5])
    def test_rejects_bad_exponent(self, a):
        with pytest.raises(ValueError):
            holder_norm(GridFunction(np.zeros(5)), a)

    def test_needs_three_nodes(self):
        with pytest.raises(ValueError):
            holder_norm(GridFunction(np.zeros(2)), 1.0)

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.7])
    def test_norm_axioms(self, a):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.normal(size=13)
            w = rng.normal(size=13)
            alpha = rng.normal()
            nv = holder_norm(GridFunction(v), a)
            nw = holder_norm(GridFunction(w), a)
            nsum = holder_norm(GridFunction(v + w), a)
            assert nsum <= nv + nw + 1e-12 * (nv + nw)
            scaled = holder_norm(GridFunction(alpha * v), a)
            assert scaled == pytest.approx(abs(alpha) * nv, rel=1e-12, abs=1e-15)


class TestHolderParams:
    def test_validation(self):
        HolderParams(2.0, 1.0)
        with pytest.raises(ValueError):
            HolderParams(0.0, 1.0)
        with pytest.raises(ValueError):
            HolderParams(2.5, 1.0)
        with pytest.raises(ValueError):
            HolderParams(1.5, 0.0)


class TestIntegrate:
    def test_constant(self):
        out = integrate(GridFunction(np.ones(11)))
        assert np.max(np.abs(out.values - np.linspace(0, 1, 11))) <= 1e-15

    def test_linear_exact(self):
        f = grid_fn(lambda x: x, 41)
        out = integrate(f)
        assert np.max(np.abs(out.values - f.x ** 2 / 2)) <= 1e-14

    def test_sine_against_closed_form(self):
        f = grid_fn(lambda x: np.sin(2 * np.pi * x), 101)
        out = integrate(f)
        exact = (1 - np.cos(2 * np.pi * f.x)) / (2 * np.pi)
        assert np.max(np.abs(out.values - exact)) <= 5e-4
        assert abs(out.values[-1]) <= 1e-3

    def test_starts_at_zero(self):
        rng = np.random.default_rng(3)
        assert integrate(GridFunction(rng.normal(size=31))).values[0] == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            v = rng.normal(size=37)
            w = rng.normal(size=37)
            alpha, beta = rng.normal(size=2)
            lhs = integrate(GridFunction(alpha * v + beta * w)).values
            rhs = alpha * integrate(GridFunction(v)).values + beta * integrate(GridFunction(w)).values
            scale = max(1.0, np.max(np.abs(rhs)))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    def test_monotone_for_nonnegative(self):
        rng = np.random.default_rng(5)
        v = np.abs(rng.normal(size=29))
        out = integrate(GridFunction(v)).values
        assert np.all(np.diff(out) >= 0.0)

    def test_contraction(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            f = GridFunction(rng.normal(size=23))
            assert sup_norm(integrate(f)) <= sup_norm(f) * (1 + 1e-12)

    def test_matrix_matches(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=101)
        a = integration_matrix(101)
        assert np.max(np.abs(a @ v - integrate(GridFunction(v)).values)) <= 1e-13


class TestAddNoise:
    def test_alternating_pattern(self):
        g = grid_fn(lambda x: x, 8)
        data = add_noise(g, 0.01, "alternating-worst-case", 123)
        expected = g.values + np.where(np.arange(8) % 2 == 0, 0.01, -0.01)
        assert np.max(np.abs(data.g_delta.values - expected)) <= 1e-15

    def test_deterministic(self):
        g = grid_fn(lambda x: x ** 2, 33)
        a = add_noise(g, 0.05, "uniform-iid", 77)
        b = add_noise(g, 0.05, "uniform-iid", 77)
        assert np.array_equal(a.g_delta.values, b.g_delta.values)

    def test_uniform_bound(self):
        g = GridFunction(np.zeros(41))
        data = add_noise(g, 0.1, "uniform-iid", 5)
        assert sup_norm(data.g_delta) <= 0.1

    @pytest.mark.parametrize("model", ["uniform-iid", "alternating-worst-case"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ball_constraint_exact(self, model, seed):
        rng = np.random.default_rng(seed)
        g = GridFunction(rng.normal(size=57))
        for delta in (1e-1, 1e-3, 1e-6):
            data = add_noise(g, delta, model, seed)
            assert np.max(np.abs(data.g_delta.values - g.values)) <= delta

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            add_noise(GridFunction(np.zeros(5)), 0.0)

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            add_noise(GridFunction(np.zeros(5)), 0.1, "gaussian")


class TestNoisyData:
    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            NoisyData(GridFunction(np.zeros(5)), 0.0)


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        f = GridFunction(rng.normal(size=19) * math.pi)
        path = tmp_path / "f.csv"
        write_grid_csv(f, path)
        back = read_grid_csv(path)
        assert np.array_equal(back.values, f.values)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,1\n1,2\n")
        with pytest.raises(ValueError):
            read_grid_csv(path)
