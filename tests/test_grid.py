import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from wcreg import (CompactumSpec, GridFunction, NoisyData, ProblemSpec,
                   StudyRow, add_noise, format_float, holder_norm, integrate,
                   read_grid_csv, sup_norm, write_grid_csv)
from wcreg.grid import (CSV_BLOCK, _csv_rows, _holder_norms, _max_pair_quotient, _pair_bands,
                        _write_table, read_csv_table)

from dense import assert_matches_matrix, rule_matrix


def grid_fn(func, n):
    return GridFunction(func(np.linspace(0.0, 1.0, n)))


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


def dense_quotients(values, x, power, rows=slice(None)):
    """All ordered pair quotients (i, j), i in `rows`, formed as the exhaustive
    scan formed them."""
    dx = np.abs(x[rows, None] - x[None, :])
    return np.abs(values[rows, None] - values[None, :]) / np.where(dx == 0, np.inf, dx) ** power


#: unit roundoff of float64; a power-1 quotient takes two roundings
U = Fraction(1, 2 ** 53)


def exact_power_one_max(values, x, all_pairs=False):
    """Exact largest quotient |v_j - v_i| / (x_j - x_i) of the float samples
    over adjacent pairs, in rational arithmetic.  With `all_pairs` the
    maximum over all pairs i < j is formed too and must be the same: the
    mediant inequality."""
    v = [Fraction(t) for t in values]
    p = [Fraction(t) for t in x]
    def quot(i, j):
        return abs(v[j] - v[i]) / (p[j] - p[i])
    top = max(quot(k, k + 1) for k in range(len(v) - 1))
    if all_pairs:
        assert max(quot(i, j) for i, j in itertools.combinations(range(len(v)), 2)) == top
    return top


def within_rounding(got, exact):
    """`got` lies within 2u + u^2 relative of `exact` (two roundings)."""
    return abs(Fraction(float(got)) - exact) <= (2 * U + U * U) * exact


def assert_power_one_exact(values, x, all_pairs, name):
    """The power-1 kernel against `exact_power_one_max`: its maximum is within
    rounding of the exact one."""
    best = float(_max_pair_quotient(values, x, 1.0))
    assert within_rounding(best, exact_power_one_max(values, x, all_pairs)), name


def kernel_cases(n):
    x = np.linspace(0.0, 1.0, n)
    return {
        "alternating": np.where(np.arange(n) % 2 == 0, 1.0, -1.0),
        # at power < 1 the largest quotient of linear data sits at the largest offset
        "linear": x.copy(),
        "square": x ** 2,
        "kinked": np.abs(x - 0.37),
        "random": np.random.default_rng(n).normal(size=n),
        "zero": np.zeros(n),
        "constant": np.full(n, -2.5),
    }


def near_tie_cases(n):
    """Power-1 near ties: data whose adjacent quotients (nearly) tie with the
    largest, so that rounding can lift a wider pair to or above it."""
    x = np.linspace(0.0, 1.0, n)
    cases = {
        "linear 0.9": 0.9 * x,
        # at n = 7 pair (2, 5) rounds strictly above every adjacent quotient
        "linear 0.7": 0.7 * x,
        "linear +-1e-15": x + 1e-15 * np.random.default_rng(n).integers(-1, 2, n),
        # the adjacent maxima 0.92 at n = 5 tie, and pair (1, 3) rounds above them
        "rounded linear": np.round(0.225 * (n - 1) * x, 2),
        # forward slopes of x^2, the a = 2 path: no two adjacent quotients tie
        "square slopes": np.diff(np.linspace(0.0, 1.0, n + 1) ** 2) * n,
    }
    # equal slopes with the adjacent argmax at n // 2 and a kink two gaps
    # before or after it: wider pairs across the argmax come within ulps of it
    k0 = n // 2
    for kink in (1e-16, 1e-13):
        for side, k in (("before", k0 - 2), ("after", k0 + 2)):
            values = x.copy()
            values[k0 + 1:] += 4e-16
            values[max(k, 0) + 1:] -= kink
            cases[f"kink {kink:g} {side}"] = values
    return cases


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

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 9, 17, 41, 101, 400, 641, 1501])
    @pytest.mark.parametrize("power", [0.3, 0.5, 1.0])
    def test_band_kernel_matches_dense_oracle(self, n, power):
        # at power 1 the reference is the exact maximum, over all pairs up to
        # n = 41 (which pins the mediant claim) and over adjacent pairs above,
        # for the values and for their forward slopes (the a = 2 path)
        x = np.linspace(0.0, 1.0, n)
        for name, values in (kernel_cases(n) | near_tie_cases(n)).items():
            if power == 1.0:
                assert_power_one_exact(values, x, n <= 41, name)
                slopes = np.diff(values) / (x[1] - x[0])
                assert_power_one_exact(slopes, x[:-1], n <= 41, name + " slopes")
                continue
            quot = dense_quotients(values, x, power)
            assert _max_pair_quotient(values, x, power) == quot.max(), name

    def test_band_kernel_near_ties_on_a_large_grid(self):
        n = 17_897
        x = np.linspace(0.0, 1.0, n)
        cases = near_tie_cases(n)
        for name in ("linear +-1e-15", "square slopes", "kink 1e-16 before", "kink 1e-13 after"):
            assert_power_one_exact(cases[name], x, False, name)

    def test_power_one_scans_one_band(self):
        # linear data ties every pair at power 1: one band, not n - 1, at the
        # grid of `adversary --class lip --deltas 1e-8`
        n = 56_583
        x = np.linspace(0.0, 1.0, n)
        assert sum(1 for _ in _pair_bands(x, x, 1.0, np.zeros(()))) == 1
        assert holder_norm(GridFunction(x), 1.0) == 2.0

    @pytest.mark.parametrize("power", [0.3, 0.5, 1.0])
    def test_band_kernel_rows_match_dense_oracle(self, power):
        # lattice-style rows: every 4-node function over 5 levels, plus random rows
        rows = np.concatenate([
            np.array(list(itertools.product(np.linspace(-1.0, 1.0, 5), repeat=4))),
            np.random.default_rng(3).normal(size=(50, 4)),
        ])
        def check(rows, x, name=""):
            got = _max_pair_quotient(rows.T, x, power)
            if power == 1.0:
                # each row within rounding of its exact maximum, and equal
                # to the same row scanned alone
                assert all(within_rounding(q, exact_power_one_max(row, x, x.size <= 41))
                           for q, row in zip(got, rows)), name
                expected = [_max_pair_quotient(row, x, power) for row in rows]
            else:
                expected = [dense_quotients(row, x, power).max() for row in rows]
            assert np.array_equal(got, expected), name

        check(rows, np.linspace(0.0, 1.0, 4))
        check(np.random.default_rng(5).normal(size=(7, 101)), np.linspace(0.0, 1.0, 101))
        # one row near a tie beside one that is not, either anywhere or with
        # its one sharp peak inside the tie: the tie sets the bands
        for n in (5, 7, 17, 101):
            x = np.linspace(0.0, 1.0, n)
            for name, values in near_tie_cases(n).items():
                peak = values.copy()
                peak[np.argmax(np.abs(np.diff(values))) + 1:] += 1e-3
                other = np.random.default_rng(n).normal(size=n)
                for rows in (np.stack([values, peak]), np.stack([values, other]),
                             np.stack([other, values])):
                    check(rows, x, name)

    @pytest.mark.parametrize("power", [0.3, 0.5, 1.0])
    def test_band_scan_prunes(self, power):
        # alternating: neighbours reach the largest difference at the smallest
        # distance, so no farther band can win; constant: every quotient is 0
        n = 2001
        x = np.linspace(0.0, 1.0, n)
        def scan(values):
            best = np.zeros(())
            bands = 0
            for quot in _pair_bands(values, x, power, best):
                bands += 1
                np.maximum(best, quot.max(axis=0), out=best)
            return bands, best

        for values, max_bands, top in ((np.where(np.arange(n) % 2 == 0, 1.0, -1.0), 2,
                                        np.max(2.0 / np.diff(x) ** power)),
                                       (np.full(n, 0.7), 0, 0.0)):
            bands, best = scan(values)
            assert bands <= max_bands
            assert best == top
        # smooth data at power 1: band 1 alone holds the exact maximum
        if power == 1.0:
            for values in (np.sin(2.0 * np.pi * x), x ** 2):
                bands, best = scan(values)
                assert bands == 1
                assert within_rounding(best, exact_power_one_max(values, x))
        # linear data: every pair ties at power 1, where only band 1 is
        # scanned, and below it the widest wins
        assert scan(x)[0] == (1 if power == 1.0 else n - 1)

    @pytest.mark.parametrize("a", [0.0, -1.0, 2.5])
    def test_rejects_bad_exponent(self, a):
        with pytest.raises(ValueError):
            holder_norm(GridFunction(np.zeros(5)), a)

    def test_needs_three_nodes(self):
        with pytest.raises(ValueError):
            holder_norm(GridFunction(np.zeros(2)), 1.0)

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.0])
    def test_two_node_rows(self, a):
        # the row-wise kernel takes 2-node rows (modulus lattices): at a > 1
        # the one slope has no partner, so its seminorm is 0 at every power
        rows = np.array([[0.0, 1.0], [0.5, -0.5]])
        assert np.array_equal(_holder_norms(rows, a), [2.0, 1.5])
        assert _holder_norms(rows[0], a) == 2.0

    @pytest.mark.parametrize("power", [0.5, 1.0])
    def test_single_node_has_no_band(self, power):
        assert list(_pair_bands(np.array([3.0]), np.array([0.0]), power, np.zeros(()))) == []

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


class TestPhiRows:
    @pytest.mark.parametrize("phi, a", [("sup-norm", None), ("holder-norm", 0.5),
                                        ("holder-norm", 1.0), ("holder-norm", 1.5),
                                        ("holder-norm", 2.0)],
                             ids=["sup", "a0.5", "a1", "a1.5", "a2"])
    def test_one_row_matches_phi_value(self, phi, a):
        spec = CompactumSpec(phi, 1.0, a=a)
        for n in (3, 7, 401):
            for name, values in near_tie_cases(n).items():
                got = spec.phi_rows(values)
                assert np.ndim(got) == 0, name
                assert got == spec.phi_value(GridFunction(values)), name
                assert got == spec.phi_rows(np.stack([values, -values]))[0], name

    @pytest.mark.parametrize("phi, a", [("sup-norm", None), ("holder-norm", 0.5),
                                        ("holder-norm", 1.0), ("holder-norm", 1.3),
                                        ("holder-norm", 1.5), ("holder-norm", 2.0)],
                             ids=["sup", "a0.5", "a1", "a1.3", "a1.5", "a2"])
    def test_batch_layouts_match_phi_value(self, phi, a):
        # the Holder kernel reads a batch through a transposed view, with
        # fewer rows than nodes or more; each row keeps the bits it takes alone
        spec = CompactumSpec(phi, 1.0, a=a)
        for n in (7, 101):
            x = np.linspace(0.0, 1.0, n)
            smooth = [np.sin(3.0 * x), np.cos(5.0 * x), np.sin(8.0 * np.pi * x)]
            base = [*near_tie_cases(n).values(), np.full(n, -2.5), np.zeros(n), *smooth]
            rows = np.array(base + [-v for v in base] + [0.5 * v for v in base])
            assert (len(rows) > n) == (n == 7)
            want = [spec.phi_value(GridFunction(v)) for v in rows]
            assert spec.phi_rows(rows).tobytes() == np.array(want).tobytes(), n
            if a == 1.3 and n == 101:
                # smooth slopes: the span prune stops each scan mid-way
                for v in smooth:
                    best, bands = np.zeros(()), 0
                    for quot in _pair_bands(np.diff(v) / (x[1] - x[0]), x[:-1], 0.3, best):
                        bands += 1
                        np.maximum(best, quot.max(axis=0), out=best)
                    assert 1 < bands < n - 2


class TestCompactumSpec:
    def test_holder_validation(self):
        CompactumSpec("holder-norm", 1.0, a=2.0)
        with pytest.raises(ValueError):
            CompactumSpec("holder-norm", 1.0, a=0.0)
        with pytest.raises(ValueError):
            CompactumSpec("holder-norm", 1.0, a=2.5)
        with pytest.raises(ValueError):
            CompactumSpec("holder-norm", 0.0, a=1.5)

    def test_unknown_phi_rejected(self):
        with pytest.raises(ValueError, match=r"phi must be one of \('sup-norm', "
                           r"'holder-norm'\), got 'l2'"):
            CompactumSpec("l2", 1.0)


class TestProblemSpec:
    @pytest.mark.parametrize("rule", ["bogus", "Trapezoid", None, np.eye(5)],
                             ids=["bogus", "case", "none", "matrix"])
    def test_unknown_rule_rejected(self, rule):
        # a matrix is refused by name, not by numpy's ambiguous truth value
        with pytest.raises(ValueError, match=r"one of \('trapezoid', 'rectangle'\)"):
            ProblemSpec(rule)

    @pytest.mark.parametrize("rule", ["trapezoid", "rectangle"])
    @pytest.mark.parametrize("n", [2, 3, 5, 33, 101, 401, 641])
    def test_rules_match_dense_matrices(self, rule, n):
        # the rows and their one-row images (`integrate` for the trapezoid
        # rule) against the dense oracle, whose steps from row k to k + 1
        # are the rule's increments dx/2 (v_k + v_k+1) or dx v_k+1
        prob = ProblemSpec(rule)
        rows = np.random.default_rng(n).normal(size=(9, n))
        mat = rule_matrix(prob, n)
        image = prob.apply_rows(rows)
        assert_matches_matrix(image, mat, rows)
        one = integrate if rule == "trapezoid" else prob.apply
        assert np.array_equal([one(GridFunction(row)).values for row in rows], image)
        dx, k = 1.0 / (n - 1), np.arange(n - 1)
        steps, first = np.zeros((n - 1, n)), np.zeros(n)
        if rule == "trapezoid":
            steps[k, k] = steps[k, k + 1] = 0.5 * dx
        else:
            steps[k, k + 1] = first[0] = dx
        assert np.array_equal(np.diff(mat, axis=0), steps)
        assert np.array_equal(mat[0], first)


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

    def test_indented_comment_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x,value\n0,1\n  # note\n0.5,2\n1,3\n")
        assert np.array_equal(read_grid_csv(path).values, [1.0, 2.0, 3.0])

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,1\n1,2\n")
        with pytest.raises(ValueError):
            read_grid_csv(path)

    @pytest.mark.parametrize("text, match", [
        ("x,value\n0,1\n", "at least two rows"),
        ("x,value\n0,1\n0.25,2\n1,3\n", "uniform grid"),
        pytest.param("x,value\n0,1,2\n1,2,3\n", "line 2 has 3 cells, the header has 2",
                     id="x,value\n0,1,2\n1,2,3\n-two columns"),
        ("x,value\n# note\n0,0\n0.5,0.125,1\n1,0.5\n", "line 4 has 3 cells, line 3 has 2"),
    ])
    def test_rejects_malformed_rows(self, tmp_path, text, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_grid_csv(path)

    def test_lenient_header_and_comments(self, tmp_path):
        # header cells are compared without case or spacing; a comment line
        # without `=`, or without a number after it, is skipped
        path = tmp_path / "f.csv"
        path.write_text("# plain note\n X , Value \n# g = x^2/2\n0,1\n0.5,2\n1,3\n")
        assert np.array_equal(read_grid_csv(path).values, [1.0, 2.0, 3.0])

    def test_rejects_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,value\n0,0\n# note\n0.5,abc\n1,0.5\n")
        with pytest.raises(ValueError) as info:
            read_grid_csv(path)
        assert str(info.value) == f"{path}: line 4: could not convert string to float: 'abc'"

    def test_table_reader_rules(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# plain note\nDelta, H\n1,2\n\n  3,4\n# slope=-0.5\n"
                        "# label=abc\n# bare\n")
        header, rows, meta = read_csv_table(path)
        assert header == ["delta", "h"]
        assert rows == [[1.0, 2.0], [3.0, 4.0]]
        assert meta == {"slope": -0.5}

    @pytest.mark.parametrize("text, table, message", [
        ("", ([], [], {}), "expected header 'x,value'"),
        ("# a=1\n# note\n\n", ([], [], {"a": 1.0}), "expected header 'x,value'"),
        ("# a=1\n X , Value \n# b=2\n", (["x", "value"], [], {"a": 1.0, "b": 2.0}),
         "expected two columns and at least two rows"),
    ], ids=["empty", "comments-only", "header-only"])
    def test_files_without_rows(self, tmp_path, text, table, message):
        # the table reader returns no rows; the grid reader names what is missing
        path = tmp_path / "t.csv"
        path.write_text(text)
        assert read_csv_table(path) == table
        with pytest.raises(ValueError) as info:
            read_grid_csv(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n3\n4,5,6\n", "line 3 has 1 cells, line 2 has 2"),
        ("a,b\n1,2\n\n3,4,5\n", "line 4 has 3 cells, line 2 has 2"),
        ("a,b\n1,2\n3,abc\n", "line 3: could not convert string to float: 'abc'"),
        ("a,b\n1,2,3\n4,5,6\n", "line 2 has 3 cells, the header has 2"),
        ("# note\na,b,c\n\n1,2\n3,4\n", "line 4 has 2 cells, the header has 3"),
        ("a,b\n1,2,3\n4,5\n", "line 2 has 3 cells, the header has 2"),
        ("a,b\n1,2,3\n4,5,x\n", "line 2 has 3 cells, the header has 2"),
    ], ids=["short-then-long", "long-after-blank", "non-numeric", "wider-than-header",
            "narrower-than-header", "wide-then-header-width", "wide-then-non-numeric"])
    def test_table_reader_rejects_bad_rows(self, tmp_path, text, message):
        # the same row rules as the grid readers, with the file and the line
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_csv_table(path)
        assert str(info.value) == f"{path}: {message}"


def old_csv_lines(rows):
    """The writers' former per-value formatting, the reference for `_csv_rows`."""
    return "".join(",".join(format_float(v) for v in row) + "\n" for row in rows)


def old_table_text(header, rows, meta):
    """The text the former `_write_table` wrote, line by line."""
    lines = [header] + [",".join(format_float(v) for v in row) for row in rows]
    lines += [f"# {key}={format_float(value)}" for key, value in meta.items()]
    return "\n".join(lines) + "\n"


EDGE_FLOATS = (-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3)


class TestCsvRows:
    @pytest.mark.parametrize("rows", [
        [(v, -v, v / 3) for v in EDGE_FLOATS] + [(math.inf, -math.inf, math.nan)],
        [(1, -2, 2**60 + 1), (np.float64(0.1), np.int64(7), np.int64(-(2**53) - 1)),
         (np.float64(-0.0), 0, np.float64(1 / 3))],
        [StudyRow(0.1, -0.0, 1 / 3, 0.1 + 0.2, 5e-324),
         StudyRow(1e-2, 2, np.float64(2.5), np.int64(3), 1.7976931348623157e308)],
        np.random.default_rng(5).normal(size=(200, 3)) * 10.0 ** np.arange(-8, 10, 6),
    ], ids=["edge-floats", "ints-and-numpy-scalars", "study-rows", "random-table"])
    def test_matches_per_value_formatting(self, rows):
        assert _csv_rows(rows) == old_csv_lines(rows)

    @pytest.mark.parametrize("header, rows, meta", [
        ("omega", [(0.5,), (1 / 3,), (-0.0,)], {"slope": -0.5}),
        ("delta,omega", [], {"slope": 0.5, "tiny": 5e-324}),
        ("delta,omega", [], {}),
        # row counts at the edges of the write blocks
        *[("x,v1,v2", np.random.default_rng(count).normal(size=(count, 3)) * math.pi,
           {"slope": 0.5}) for count in (1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1,
                                         2 * CSV_BLOCK + 3)],
    ], ids=["one-column", "zero-rows-with-meta", "zero-rows", "one-row", "block-minus-1",
            "one-block", "block-plus-1", "two-blocks-plus-3"])
    def test_write_table_bytes(self, tmp_path, header, rows, meta):
        path = tmp_path / "t.csv"
        _write_table(path, header, rows, meta)
        assert path.read_text() == old_table_text(header, rows, meta)

    def test_bad_table_leaves_no_file(self, tmp_path):
        # the rows are converted before the file is opened
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            _write_table(path, "a", [("x",)])
        assert not path.exists()

    def test_grid_file_memory(self, tmp_path):
        # a block-wise export holds the float64 table and one block of text;
        # formatting the whole table at once peaked near 10x the table
        f = GridFunction(np.random.default_rng(7).normal(size=100_001))
        table_bytes = 2 * 8 * f.n
        tracemalloc.start()
        try:
            write_grid_csv(f, tmp_path / "f.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * table_bytes

    def test_grid_file_read_memory(self, tmp_path):
        # a read holds the text, one string per line and the float64 table;
        # a Python float per cell, in a list per row, peaked near 9x the file
        path = tmp_path / "f.csv"
        write_grid_csv(GridFunction(np.random.default_rng(7).normal(size=100_001)), path)
        tracemalloc.start()
        try:
            read_grid_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * path.stat().st_size

    def test_grid_file_bytes(self, tmp_path):
        f = GridFunction(np.random.default_rng(6).normal(size=101) * math.pi)
        path = tmp_path / "f.csv"
        write_grid_csv(f, path)
        assert path.read_text() == old_table_text("x,value", zip(f.x, f.values), {})
