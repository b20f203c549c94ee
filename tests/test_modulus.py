import itertools

import numpy as np
import pytest

from wcreg import (CompactumSpec, GridFunction, GridTooCoarseError, LatticeCompactum,
                   PairBudgetExceededError, ProblemSpec, holder_norm, modulus_bruteforce,
                   modulus_search, rectangle_matrix, sine_pair)

CONST_LEVELS = tuple(np.arange(-10, 11) / 10.0)  # 21 levels in [-1, 1]


def constants_lattice(nodes=5, c=1.0):
    return LatticeCompactum(nodes, CONST_LEVELS, CompactumSpec("sup-norm", c),
                            constants_only=True)


class TestLatticeCompactum:
    def test_member_counts(self):
        lat = constants_lattice()
        assert lat.raw_count == 21
        assert lat.members().shape == (21, 5)

    def test_phi_filter(self):
        lat = LatticeCompactum(3, (-1.0, 0.0, 1.0), CompactumSpec("sup-norm", 0.5))
        members = lat.members()
        assert members.shape == (1, 3)  # only the zero function survives
        for a in (0.5, 2.0):
            spec = CompactumSpec("holder-norm", 2.5, a=a)
            lat = LatticeCompactum(4, tuple(np.linspace(-1, 1, 9)), spec)
            grid = np.array(list(itertools.product(lat.levels, repeat=4)))
            keep = [holder_norm(GridFunction(row), a) <= spec.c for row in grid]
            assert 9 < sum(keep) < len(grid)
            assert np.array_equal(lat.members(), grid[keep])

    def test_enumeration_guard(self):
        lat = LatticeCompactum(7, tuple(np.linspace(-1, 1, 15)), CompactumSpec("sup-norm", 1.0))
        with pytest.raises(PairBudgetExceededError):
            lat.members()


class TestBruteforce:
    def test_constants_analytic_pattern(self):
        # for constants, image distance equals value distance at x = 1,
        # so omega(delta) = min(2, largest lattice multiple of 0.1 below delta)
        lat = constants_lattice()
        prob = ProblemSpec()
        for delta in [0.05] + [round(0.1 * k + 0.05, 3) for k in range(1, 21)] + [2.5]:
            expected = min(2.0, 0.1 * int(delta / 0.1 + 1e-9))
            assert modulus_bruteforce(lat, delta, prob) == pytest.approx(expected, abs=1e-12)

    def test_zero_below_minimal_gap(self):
        assert modulus_bruteforce(constants_lattice(), 0.05, ProblemSpec()) == 0.0

    def test_diameter_when_constraint_inactive(self):
        assert modulus_bruteforce(constants_lattice(), 2.5, ProblemSpec()) == pytest.approx(2.0)

    def test_nondecreasing_in_delta(self):
        lat = constants_lattice()
        prob = ProblemSpec()
        values = [modulus_bruteforce(lat, d, prob) for d in (0.05, 0.15, 0.55, 1.05, 2.5)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_decay_with_injective_operator(self):
        spec = CompactumSpec("sup-norm", 2.0)
        lat = LatticeCompactum(3, tuple(np.linspace(-2, 2, 9)), spec)
        prob = ProblemSpec(rectangle_matrix(3))
        small = modulus_bruteforce(lat, 0.1, prob)   # below min image gap 0.125
        large = modulus_bruteforce(lat, 10.0, prob)
        assert small == 0.0
        assert large == pytest.approx(4.0)
        assert small <= large

    def test_alternating_kernel_saturates_trapezoid_modulus(self):
        # the trapezoid map is blind to node-alternation, so the full lattice
        # modulus equals the diameter at every delta
        spec = CompactumSpec("sup-norm", 1.0)
        lat = LatticeCompactum(3, (-1.0, 0.0, 1.0), spec)
        assert modulus_bruteforce(lat, 1e-6, ProblemSpec()) == pytest.approx(2.0)

    def test_pair_guard(self):
        spec = CompactumSpec("sup-norm", 1.0)
        lat = LatticeCompactum(5, tuple(np.linspace(-1, 1, 13)), spec)
        with pytest.raises(PairBudgetExceededError):
            modulus_bruteforce(lat, 0.5, ProblemSpec())


class TestSearch:
    def test_zero_budget(self):
        assert modulus_search(constants_lattice(), 0.5, ProblemSpec(), budget=0) == 0.0

    def test_never_exceeds_bruteforce(self):
        lat = constants_lattice()
        prob = ProblemSpec()
        for delta in (0.05, 0.35, 1.05, 2.5):
            brute = modulus_bruteforce(lat, delta, prob)
            found = modulus_search(lat, delta, prob, budget=400, seed=7)
            assert found <= brute

    def test_matches_sine_separation(self):
        spec = CompactumSpec("sup-norm", 1.0)
        found = modulus_search(spec, 0.01, ProblemSpec(), budget=1, seed=0, n=641)
        pair = sine_pair(1.0, 0.01, n=641)
        assert found == pytest.approx(pair.separation, abs=1e-12)

    def test_monotone_in_budget(self):
        lat = constants_lattice()
        prob = ProblemSpec()
        values = [modulus_search(lat, 0.55, prob, budget=b, seed=2) for b in (1, 8, 64, 256)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_deterministic(self):
        lat = constants_lattice()
        prob = ProblemSpec()
        assert modulus_search(lat, 0.35, prob, budget=64, seed=5) == \
            modulus_search(lat, 0.35, prob, budget=64, seed=5)

    def test_continuum_bump_needs_room(self):
        with pytest.raises(GridTooCoarseError):
            modulus_search(CompactumSpec("holder-norm", 1.0, a=1.0), 0.01, ProblemSpec(),
                           budget=1, n=2)

    def test_continuum_needs_grid(self):
        with pytest.raises(ValueError):
            modulus_search(CompactumSpec("sup-norm", 1.0), 0.01, ProblemSpec(), budget=4)
