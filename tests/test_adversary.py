import math

import numpy as np
import pytest

from wcreg import (AdversarialPair, CompactumSpec, FeasibleClass, GridFunction,
                   GridTooCoarseError, InfeasibleProblemError, NoisyData, ProblemSpec,
                   add_noise, bump_pair, format_float, holder_norm, integrate,
                   is_feasible, minimize, read_pair_csv, rectangle_matrix,
                   sample_feasible, sine_pair, sup_error_estimate, sup_norm,
                   write_pair_csv)
from wcreg.adversary import ROW_BLOCK
from wcreg.grid import CSV_BLOCK, _csv_rows


def truth_class(u, delta, bound, a=None, phi="holder-norm", noise="uniform-iid", seed=0):
    data = add_noise(integrate(u), delta, noise, seed)
    return FeasibleClass(CompactumSpec(phi, bound, a=a), data), data


class TestIsFeasible:
    def test_true_solution_is_feasible(self):
        u = GridFunction(0.4 * np.linspace(0.0, 1.0, 201))
        cls, _ = truth_class(u, 1e-3, 1.0, a=2.0)
        check = is_feasible(u, cls)
        assert check.feasible
        assert check.misfit <= 1e-3
        assert check.class_norm <= 1.0

    def test_scaled_out_of_class(self):
        u = GridFunction(0.4 * np.linspace(0.0, 1.0, 201))
        cls, _ = truth_class(u, 1e-3, 1.0, a=2.0)
        big = GridFunction(2.5 * u.values)
        check = is_feasible(big, cls)
        assert not check.feasible
        assert check.class_norm == pytest.approx(2.0, rel=1e-9)

    def test_bump_perturbation_feasible(self):
        n = 1001
        u = GridFunction(np.zeros(n))
        cls, _ = truth_class(u, 1e-2, 2.0, a=1.0, noise="alternating-worst-case")
        pair = bump_pair(2.0, 1e-2, n=n)
        # feasibility here is against noisy data, so re-certify directly
        check = is_feasible(pair.v2, cls)
        assert check.class_norm <= 2.0

    def test_grid_mismatch(self):
        u = GridFunction(np.zeros(11))
        cls, _ = truth_class(u, 1e-3, 1.0, phi="sup-norm")
        with pytest.raises(ValueError):
            is_feasible(GridFunction(np.zeros(12)), cls)

    def test_operator_size_must_match_grid(self):
        data = NoisyData(GridFunction.zeros(11), 0.1)
        spec = CompactumSpec("sup-norm", 1.0)
        with pytest.raises(ValueError, match="11x11"):
            FeasibleClass(spec, data, ProblemSpec(rectangle_matrix(12)))
        cls = FeasibleClass(spec, data, ProblemSpec(rectangle_matrix(11)))
        assert is_feasible(GridFunction.zeros(11), cls).feasible

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_holder_class_needs_three_nodes(self, a):
        # the class norm is undefined on fewer nodes, as for holder_norm
        cls = FeasibleClass.for_zero_data(CompactumSpec("holder-norm", 1.0, a=a), 0.1, 2)
        with pytest.raises(ValueError, match="at least 3 nodes"):
            is_feasible(GridFunction.zeros(2), cls)
        cls = FeasibleClass.for_zero_data(CompactumSpec("sup-norm", 1.0), 0.1, 2)
        assert is_feasible(GridFunction.zeros(2), cls).feasible


class TestSampleFeasible:
    def test_count_zero(self):
        u = GridFunction(0.4 * np.linspace(0.0, 1.0, 101))
        cls, _ = truth_class(u, 1e-3, 1.0, a=2.0)
        empty = sample_feasible(cls, 0, 1, start=u)
        assert isinstance(empty, np.ndarray) and empty.dtype == np.float64
        assert empty.shape == (0, 101)

    def test_hundred_members_all_feasible(self):
        u = GridFunction(0.4 * np.linspace(0.0, 1.0, 101))
        data = NoisyData(integrate(u), 1e-3)  # exact data: full slack
        cls = FeasibleClass(CompactumSpec("holder-norm", 1.0, a=2.0), data)
        members = sample_feasible(cls, 100, 11, start=u)
        assert len(members) == 100
        for v in members:
            assert is_feasible(GridFunction(v), cls).feasible

    def test_deterministic(self):
        u = GridFunction(0.4 * np.linspace(0.0, 1.0, 101))
        cls, _ = truth_class(u, 1e-3, 1.0, a=2.0)
        a = sample_feasible(cls, 25, 3, start=u)
        b = sample_feasible(cls, 25, 3, start=u)
        assert np.array_equal(a, b)

    def test_infeasible_start_raises(self):
        u = GridFunction(0.4 * np.linspace(0.0, 1.0, 101))
        cls, _ = truth_class(u, 1e-3, 1.0, a=2.0)
        with pytest.raises(InfeasibleProblemError):
            sample_feasible(cls, 5, 0, start=GridFunction(10 + u.values))

    @pytest.mark.parametrize("matrix", [False, True], ids=["trapezoid", "rectangle"])
    @pytest.mark.parametrize("count", [1, 2, 20, ROW_BLOCK + 1])
    def test_one_array_of_certified_rows(self, count, matrix):
        # (k, n) float64 rows, k <= count, row 0 the start, each admitted
        n = 61
        u = GridFunction(0.4 * np.linspace(0.0, 1.0, n))
        prob = ProblemSpec(rectangle_matrix(n) if matrix else None)
        data = add_noise(prob.apply(u), 1e-3, "uniform-iid", 2)
        cls = FeasibleClass(CompactumSpec("holder-norm", 1.0, a=2.0), data, prob)
        members = sample_feasible(cls, count, 7, start=u)
        assert isinstance(members, np.ndarray) and members.dtype == np.float64
        assert members.ndim == 2 and 1 <= members.shape[0] <= count
        assert members.shape[1] == n
        assert np.array_equal(members[0], u.values)
        assert cls.admits(*cls.residuals(members)).all()


def one_at_a_time(cls, count, seed, start):
    """The former sampler, one attempt and one `is_feasible` call at a time:
    the reference for `sample_feasible`.  Returns the members and the number
    of rejected membership checks."""
    def ratio(slack, gain):
        return math.inf if gain == 0.0 else slack / gain

    def draw_shape(rng, n):
        x = np.linspace(0.0, 1.0, n)
        kind = int(rng.integers(0, 5))
        if kind == 0:
            k = int(rng.integers(1, 9))
            return np.sin(2.0 * math.pi * k * x), f"sin{k}"
        if kind == 1:
            k = int(rng.integers(1, 9))
            return np.cos(2.0 * math.pi * k * x), f"cos{k}"
        if kind == 2:
            c = rng.uniform(0.25, 0.75)
            w = rng.uniform(0.05, 0.25)
            return np.maximum(0.0, 1.0 - np.abs(x - c) / w), None
        if kind == 3:
            return np.where(np.arange(n) % 2 == 0, 1.0, -1.0), "alternating"
        return np.ones(n), "constant"

    chk = is_feasible(start, cls)
    members, rejected = [start], 0
    rng = np.random.default_rng(seed)
    slack = (cls.delta - chk.misfit, cls.spec.c - chk.class_norm)
    gains = {}
    attempts = 0
    while len(members) < count and attempts < 30 * count + 100:
        attempts += 1
        shape, key = draw_shape(rng, cls.n)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        frac = rng.uniform(0.2, 1.0)
        if key in gains:
            image_gain, norm_gain = gains[key]
        else:
            image_gain = float(np.max(np.abs(cls.prob.apply(GridFunction(shape)).values)))
            norm_gain = math.inf
            if ratio(slack[0], image_gain) > 0.0:
                norm_gain = cls.spec.phi_value(GridFunction(shape))
            if key is not None:
                gains[key] = (image_gain, norm_gain)
        t = 0.9 * min(ratio(slack[0], image_gain), ratio(slack[1], norm_gain))
        if not (t > 0.0 and math.isfinite(t)):
            continue
        t *= frac
        for _ in range(40):
            candidate = GridFunction(start.values + (sign * t) * shape)
            if is_feasible(candidate, cls).feasible:
                members.append(candidate)
                break
            rejected += 1
            t *= 0.5
    return members, rejected


def assert_same_members(got, want):
    assert got.dtype == np.float64
    assert np.array_equal(got, np.array([w.values for w in want]))


CLASSES = [("sup-norm", None), ("holder-norm", 0.5), ("holder-norm", 1.0),
           ("holder-norm", 2.0)]


class TestSamplerMatchesOneAtATime:
    @pytest.mark.parametrize("matrix", [False, True], ids=["trapezoid", "rectangle"])
    @pytest.mark.parametrize("phi, a", CLASSES, ids=["sup", "a0.5", "a1", "a2"])
    def test_noisy_data(self, phi, a, matrix):
        n = 101
        u = GridFunction(0.4 * np.linspace(0.0, 1.0, n))
        prob = ProblemSpec(rectangle_matrix(n) if matrix else None)
        data = add_noise(prob.apply(u), 1e-3, "uniform-iid", 5)
        cls = FeasibleClass(CompactumSpec(phi, 1.0, a=a), data, prob)
        for count in (1, 20, 100):
            got = sample_feasible(cls, count, 40 + count, start=u)
            assert_same_members(got, one_at_a_time(cls, count, 40 + count, u)[0])

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_rounding_limited(self, seed):
        # steep data and a tube of 1e-14: rounding in the image rejects some
        # candidates, so their steps are halved and checked again
        n = 41
        u = GridFunction(400.0 * np.linspace(0.0, 1.0, n))
        cls = FeasibleClass(CompactumSpec("sup-norm", 800.0), NoisyData(integrate(u), 1e-14))
        want, rejected = one_at_a_time(cls, 20, seed, u)
        assert rejected >= 1
        assert_same_members(sample_feasible(cls, 20, seed, start=u), want)

    @pytest.mark.parametrize("matrix", [False, True], ids=["trapezoid", "rectangle"])
    def test_zero_misfit_slack(self, matrix):
        # the start's misfit is exactly delta: only shapes the operator
        # cannot see (the alternating one under the trapezoid map) can move
        n = 61
        prob = ProblemSpec(rectangle_matrix(n) if matrix else None)
        data = NoisyData(GridFunction(np.full(n, 1e-3)), 1e-3)
        cls = FeasibleClass(CompactumSpec("holder-norm", 1.0, a=2.0), data, prob)
        start = GridFunction.zeros(n)
        assert is_feasible(start, cls).misfit == cls.delta
        want = one_at_a_time(cls, 30, 2, start)[0]
        assert_same_members(sample_feasible(cls, 30, 2, start=start), want)
        if matrix:
            # every attempt is spent: max_attempts ends the loop
            assert len(want) == 1

    def test_count_above_row_block(self):
        n = 81
        u = GridFunction(0.4 * np.linspace(0.0, 1.0, n))
        cls, _ = truth_class(u, 1e-3, 1.0, a=2.0)
        count = 2 * ROW_BLOCK + 7
        got = sample_feasible(cls, count, 8, start=u)
        assert len(got) == count
        assert_same_members(got, one_at_a_time(cls, count, 8, u)[0])


class TestMembershipKernel:
    @pytest.mark.parametrize("matrix", [False, True], ids=["trapezoid", "rectangle"])
    def test_forward_rows_match_apply(self, matrix):
        n = 57
        prob = ProblemSpec(rectangle_matrix(n) if matrix else None)
        rows = np.random.default_rng(3).normal(size=(9, n))
        image = prob.apply_rows(rows)
        for row, got in zip(rows, image):
            assert np.array_equal(got, prob.apply(GridFunction(row)).values)
            if matrix:
                want = rectangle_matrix(n) @ row
            else:
                # the former one-row recurrence of `integrate`
                want = np.empty(n)
                want[0] = 0.0
                np.cumsum((row[:-1] + row[1:]) * (0.5 * (1.0 / (n - 1))), out=want[1:])
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 101, 641])
    def test_explicit_operator_rows_match_single_products(self, n):
        # the stacked product gives each row the bits of its own `mat @ row`
        rng = np.random.default_rng(n)
        for mat in (rectangle_matrix(n), rng.normal(size=(n, n))):
            rows = rng.normal(size=(9, n))
            image = ProblemSpec(mat).apply_rows(rows)
            assert image.shape == rows.shape
            for row, got in zip(rows, image):
                assert np.array_equal(got, mat @ row)

    @pytest.mark.parametrize("phi, a", CLASSES + [("holder-norm", 1.5)],
                             ids=["sup", "a0.5", "a1", "a2", "a1.5"])
    def test_phi_rows_match_phi_value(self, phi, a):
        spec = CompactumSpec(phi, 1.0, a=a)
        rng = np.random.default_rng(4)
        # rough rows, smooth rows and a constant row
        rows = np.vstack([rng.uniform(-1.0, 1.0, size=(6, 57)),
                          np.cumsum(rng.normal(size=(6, 57)), axis=1) / 57.0,
                          np.full((1, 57), 0.25)])
        for row, got in zip(rows, spec.phi_rows(rows)):
            assert got == spec.phi_value(GridFunction(row))

    @pytest.mark.parametrize("matrix", [False, True], ids=["trapezoid", "rectangle"])
    @pytest.mark.parametrize("phi, a", CLASSES, ids=["sup", "a0.5", "a1", "a2"])
    def test_residuals_match_is_feasible(self, phi, a, matrix):
        n = 41
        prob = ProblemSpec(rectangle_matrix(n) if matrix else None)
        rng = np.random.default_rng(5)
        data = NoisyData(GridFunction(rng.uniform(-0.1, 0.1, n)), 0.05)
        cls = FeasibleClass(CompactumSpec(phi, 1.0, a=a), data, prob)
        rows = rng.uniform(-0.3, 0.3, size=(7, n))
        misfit, norm = cls.residuals(rows)
        for row, mis, nm in zip(rows, misfit, norm):
            chk = is_feasible(GridFunction(row), cls)
            assert (mis, nm) == (chk.misfit, chk.class_norm)


class TestOneVerdict:
    """Every membership verdict is `FeasibleClass.admits`: made stricter
    there, the rule binds `is_feasible`, the ensembles and the solver."""

    @staticmethod
    def stricter(cls, misfit, norm):
        return (misfit <= cls.delta * (1.0 - 1e-3)) & (norm <= cls.spec.c * (1.0 - 1e-3))

    def test_stricter_verdict_binds_every_caller(self, monkeypatch):
        monkeypatch.setattr(FeasibleClass, "admits", self.stricter)
        # misfit exactly delta: admitted by the plain rule, refused by the stricter
        u = GridFunction(np.ones(51))
        boundary = FeasibleClass(CompactumSpec("sup-norm", 2.0),
                                 add_noise(integrate(u), 0.05, "alternating-worst-case", 0))
        assert not is_feasible(u, boundary).feasible
        # norm steps along constant and sine shapes add up exactly, so a step
        # sized by the plain slack c - phi(start) leaves the stricter bound
        n = 41
        start = GridFunction(np.ones(n))
        cls = FeasibleClass(CompactumSpec("sup-norm", 1.002),
                            NoisyData(integrate(start), 1.0))
        members = sample_feasible(cls, 60, 1, start=start)
        assert len(members) == 60
        assert self.stricter(cls, *cls.residuals(members)).all()
        # the lowest-F start probe, 0.039 (1 - 1e-12) * ones, has its norm
        # above 0.999 c: the stricter rule picks zero
        data = NoisyData(GridFunction(np.full(5, 0.04)), 0.05)
        cls = FeasibleClass(CompactumSpec("sup-norm", 0.039), data, ProblemSpec(np.eye(5)))
        res = minimize(data, cls.spec, cls.prob)
        assert not res.v_delta.values.any()
        assert self.stricter(cls, res.misfit, res.phi_value)
        assert self.stricter(cls, *cls.residuals(res.v_delta.values[None]))[0]


def former_sup_error_estimate(reconstruction, ensemble):
    """The member-by-member loop `sup_error_estimate` replaced: the reference."""
    if len(ensemble) == 0:
        raise ValueError("sup_error_estimate needs a nonempty ensemble")
    worst = 0.0
    for v in ensemble:
        if v.n != reconstruction.n:
            raise ValueError("grid mismatch between reconstruction and ensemble member")
        worst = max(worst, float(np.max(np.abs(reconstruction.values - v.values))))
    return worst


class TestSupErrorEstimate:
    @pytest.mark.parametrize("count", [1, 2, 20, 100])
    @pytest.mark.parametrize("n", [2, 641])
    def test_matches_former_loop(self, count, n):
        rng = np.random.default_rng(count * n)
        recon = GridFunction(rng.normal(size=n))
        ensemble = recon.values + rng.uniform(-1e-3, 1e-3, (count, n))
        est = sup_error_estimate(recon, ensemble)
        assert est == former_sup_error_estimate(recon, [GridFunction(v) for v in ensemble])
        assert est == sup_error_estimate(recon, ensemble[::-1])

    @pytest.mark.parametrize("where", [0, 5, 9])
    def test_mismatched_member(self, where):
        recon = GridFunction(np.zeros(41))
        ensemble = [GridFunction(np.full(41, 0.1 * k)) for k in range(10)]
        ensemble[where] = GridFunction(np.zeros(42))
        with pytest.raises(ValueError, match="grid mismatch between reconstruction"):
            former_sup_error_estimate(recon, ensemble)
        # an array's rows share one width: the whole ensemble is on another grid
        with pytest.raises(ValueError, match="grid mismatch between reconstruction"):
            sup_error_estimate(recon, np.full((where + 1, 42), 0.1))

    def test_single_member(self):
        u = GridFunction(0.4 * np.linspace(0.0, 1.0, 101))
        recon = GridFunction(u.values + 0.05)
        assert sup_error_estimate(recon, u.values[None]) == pytest.approx(0.05, rel=1e-12)

    def test_includes_reconstruction(self):
        u = GridFunction(0.4 * np.linspace(0.0, 1.0, 101))
        recon = GridFunction(u.values + 0.05)
        est = sup_error_estimate(recon, np.array([recon.values, u.values]))
        assert est == pytest.approx(0.05, rel=1e-12)

    def test_empty_rejected(self):
        u = GridFunction(0.4 * np.linspace(0.0, 1.0, 101))
        with pytest.raises(ValueError, match="needs a nonempty ensemble"):
            sup_error_estimate(u, np.empty((0, u.n)))


class TestSinePair:
    def test_delta_001(self):
        pair = sine_pair(1.0, 0.01)
        k = math.ceil(1.0 / (math.pi * 0.01))
        assert k == 32
        assert pair.v1.n == 20 * k + 1
        # grid image stays within 2% of the closed form bound/(pi*k)
        assert pair.certificate.misfit2 == pytest.approx(1.0 / (math.pi * k), rel=0.02)
        assert pair.certificate.misfit2 <= 0.01
        assert pair.separation == pytest.approx(1.0, abs=1e-12)

    def test_delta_0001(self):
        pair = sine_pair(1.0, 0.001)
        assert math.ceil(1.0 / (math.pi * 0.001)) == 319
        assert pair.separation == pytest.approx(1.0, abs=1e-12)

    def test_large_delta_k1(self):
        pair = sine_pair(1.0, 0.5)
        assert pair.v1.n == 21  # k = 1
        assert pair.certificate.misfit2 <= 0.5

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarseError):
            sine_pair(1.0, 0.01, n=100)
        # k = ceil(1/(0.01*pi)) = 32 needs 20k + 1 = 641 nodes, and 641 suffice
        with pytest.raises(GridTooCoarseError, match="k=32; need at least 641 nodes"):
            sine_pair(1.0, 0.01, n=640)
        assert sine_pair(1.0, 0.01, n=641).separation == 1.0

    def test_default_grid_ceiling(self):
        # k = 100,001 needs 2,000,021 nodes, one frequency past the ceiling
        with pytest.raises(GridTooCoarseError, match="default grid of 2000021 nodes"):
            sine_pair(1.0, 1.0 / (math.pi * 100_000.5))
        # an explicit grid is judged by the resolution rule alone
        with pytest.raises(GridTooCoarseError, match="need at least 63661981 nodes"):
            sine_pair(1.0, 1e-7, n=641)

    def test_frequency_overflow(self):
        # bound/(pi*delta) = inf: no frequency, whatever the grid
        for n in (None, 641):
            with pytest.raises(GridTooCoarseError,
                               match=r"bound=1e\+300 and delta=1e-300 overflow the sine"):
                sine_pair(1e300, 1e-300, n=n)

    def test_separation_is_delta_independent(self):
        seps = [sine_pair(1.0, d).separation for d in (1e-2, 1e-3, 1e-4)]
        for s in seps:
            assert abs(s - seps[0]) <= 0.02 * seps[0]

    def test_members_reverify(self):
        pair = sine_pair(2.0, 0.05)
        cls = FeasibleClass.for_zero_data(CompactumSpec("sup-norm", 2.0), 0.05, pair.v1.n)
        assert is_feasible(pair.v1, cls).feasible
        assert is_feasible(pair.v2, cls).feasible
        sep = sup_norm(GridFunction(pair.v1.values - pair.v2.values))
        assert sep == pytest.approx(pair.separation, abs=1e-12)


class TestBumpPair:
    def test_delta_001(self):
        pair = bump_pair(2.0, 0.01)
        assert pair.separation == pytest.approx(0.1, abs=1e-12)
        assert pair.certificate.misfit2 == pytest.approx(0.01, abs=1e-12)
        assert pair.certificate.misfit2 <= 0.01
        assert pair.certificate.norm2 <= 2.0
        # support is the full width 4*height/bound = 0.2
        inside = np.count_nonzero(pair.v2.values)
        assert inside == pytest.approx(0.2 * (pair.v2.n - 1), abs=2)

    def test_delta_1e4(self):
        pair = bump_pair(2.0, 1e-4)
        assert pair.separation == pytest.approx(0.01, abs=1e-12)

    def test_huge_delta_clips(self):
        pair = bump_pair(2.0, 100.0)
        assert pair.separation == pytest.approx(1.0, abs=1e-9)
        assert pair.certificate.norm2 <= 2.0

    def test_height_underflow(self):
        # sqrt(delta*bound/2) underflows to 0: no default grid fits the bump
        with pytest.raises(GridTooCoarseError,
                           match="bound=1e-300 and delta=1e-300 underflow the bump height"):
            bump_pair(1e-300, 1e-300)

    def test_sqrt_delta_scaling(self):
        deltas = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        seps = np.array([bump_pair(2.0, d).separation for d in deltas])
        slope = np.polyfit(np.log(deltas), np.log(seps), 1)[0]
        assert abs(slope - 0.5) <= 0.05

    def test_members_reverify(self):
        pair = bump_pair(1.5, 3e-3)
        cls = FeasibleClass.for_zero_data(CompactumSpec("holder-norm", 1.5, a=1.0), 3e-3, pair.v1.n)
        assert is_feasible(pair.v2, cls).feasible
        assert holder_norm(pair.v2, 1.0) == pytest.approx(pair.certificate.norm2)


class TestPairCsv:
    def test_round_trip(self, tmp_path):
        pair = bump_pair(2.0, 0.01, n=401)
        path = tmp_path / "pair.csv"
        write_pair_csv(pair, path)
        back = read_pair_csv(path)
        assert isinstance(back, AdversarialPair)
        assert np.array_equal(back.v1.values, pair.v1.values)
        assert np.array_equal(back.v2.values, pair.v2.values)
        assert back.separation == pair.separation
        assert back.certificate == pair.certificate

    @pytest.mark.parametrize("edit, match", [
        (lambda lines: [ln for ln in lines if not ln.startswith("# norm2=")], "norm2"),
        (lambda lines: [ln.replace("x,v1,v2", "x,v,w") for ln in lines], "header"),
        (lambda lines: lines[:9], "at least two rows"),
        (lambda lines: lines[:9] + ["0.75,0,0", "1,0,0"], "uniform grid"),
    ], ids=["no-norm2-line", "wrong-header", "single-row", "uneven-x"])
    def test_rejects_malformed(self, tmp_path, edit, match):
        path = tmp_path / "pair.csv"
        write_pair_csv(bump_pair(2.0, 0.01, n=401), path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match=match):
            read_pair_csv(path)

    def test_rejects_non_numeric_cell(self, tmp_path):
        path = tmp_path / "pair.csv"
        write_pair_csv(bump_pair(2.0, 0.01, n=401), path)
        lines = path.read_text().splitlines()
        lines[10] = lines[10].split(",")[0] + ",0,-"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_pair_csv(path)
        assert str(info.value) == f"{path}: line 11: could not convert string to float: '-'"

    def test_bytes_match_per_value_writer(self, tmp_path):
        # the former writer, value by value, on the largest lip-probe grid
        pair = bump_pair(1.0, 1e-6, n=17_897)
        meta = {"separation": pair.separation, **pair.certificate._asdict()}
        keys = ("delta", "bound", "separation", "misfit1", "norm1", "misfit2", "norm2")
        lines = [f"# {key}={format_float(meta[key])}" for key in keys] + ["x,v1,v2"]
        for k in range(pair.v1.n):
            lines.append(",".join(format_float(val) for val in
                                  (pair.v1.x[k], pair.v1.values[k], pair.v2.values[k])))
        path = tmp_path / "pair.csv"
        write_pair_csv(pair, path)
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_bytes_match_one_shot_writer(self, tmp_path):
        # a pair file over several write blocks, against the text formatted
        # in one piece: certificate lines, header, then every row at once
        pair = bump_pair(1.0, 1e-4, n=3 * CSV_BLOCK + 5)
        meta = {"separation": pair.separation, **pair.certificate._asdict()}
        keys = ("delta", "bound", "separation", "misfit1", "norm1", "misfit2", "norm2")
        head = "".join(f"# {key}={format_float(meta[key])}\n" for key in keys)
        rows = _csv_rows(np.column_stack((pair.v1.x, pair.v1.values, pair.v2.values)))
        path = tmp_path / "pair.csv"
        write_pair_csv(pair, path)
        assert path.read_text() == head + "x,v1,v2\n" + rows

    def test_lenient_header_and_comments(self, tmp_path):
        pair = bump_pair(2.0, 0.01, n=401)
        path = tmp_path / "pair.csv"
        write_pair_csv(pair, path)
        text = path.read_text().replace("x,v1,v2", "# a plain note\nX, V1, V2")
        path.write_text(text)
        back = read_pair_csv(path)
        assert np.array_equal(back.v2.values, pair.v2.values)
        assert back.certificate == pair.certificate
