import itertools

import numpy as np
import pytest

from wcreg import (CompactumSpec, FeasibleClass, GridFunction, GridTooCoarseError,
                   LatticeCompactum, PairBudgetExceededError, ProblemSpec, bump_pair,
                   holder_norm, is_feasible, modulus_bruteforce, sine_pair)
from wcreg import modulus

from dense import MatrixMap, assert_matches_matrix, rule_matrix

CONST_LEVELS = tuple(np.arange(-10, 11) / 10.0)  # 21 levels in [-1, 1]


def constants_lattice(nodes=5, c=1.0):
    return LatticeCompactum(nodes, CONST_LEVELS, CompactumSpec("sup-norm", c),
                            constants_only=True)


def all_pairs_omega(members, images, deltas, block=256):
    """omega for each delta from every pair of members (i <= j)."""
    def dist(values, rows, cols):
        # max over nodes of |values[j] - values[i]|, one node at a time
        out = np.zeros((len(rows), len(cols)))
        for col in range(values.shape[1]):
            np.maximum(out, np.abs(values[cols, col][None, :] - values[rows, col][:, None]),
                       out=out)
        return out

    omega = [0.0] * len(deltas)
    m = len(members)
    for start in range(0, m, block):
        rows, cols = np.arange(start, min(start + block, m)), np.arange(start, m)
        sep, img_dist = dist(members, rows, cols), dist(images, rows, cols)
        for k, delta in enumerate(deltas):
            ok = img_dist <= delta
            if ok.any():
                omega[k] = max(omega[k], float(np.max(sep[ok])))
    return omega


def assert_matches_oracle(lat, prob, images, deltas):
    """One call with `deltas` ascending, descending, shuffled and with a
    duplicate gives the all-pairs omega of each delta, in the call's order."""
    asc = sorted(deltas)
    oracle = dict(zip(asc, all_pairs_omega(lat.members(), images, asc)))
    shuffled = np.random.default_rng(len(asc)).permutation(asc).tolist()
    for order in (asc, asc[::-1], shuffled, shuffled + shuffled[:1]):
        assert modulus_bruteforce(lat, order, prob) == [oracle[d] for d in order]


def window(lat, prob, delta):
    """The window pairs of the members sorted by key, one boolean per pair
    (i, j), i < j: key_j <= fl(key_i + 2 delta)."""
    images = prob.apply_rows(lat.members())
    key = np.sort(images[:, np.argmax(np.ptp(images, axis=0))], kind="stable")
    return np.triu(key[None, :] <= key[:, None] + 2.0 * delta, 1)


def assert_stops_at_a_band(exc, inner, outer, guard):
    """The guard stopped ring `outer` less `inner` as one of its bands
    started: it counted every pair of `inner`, then the ring's pairs at the
    offsets below that band, and first reached `guard` there.  On a lattice
    of at most PAIR_BLOCK members a band holds fewer than PAIR_BLOCK pairs,
    so the count lies less than that past the guard.  The message counts the
    pairs of `outer`, the window of the ring it stopped in."""
    i, j = np.nonzero(outer & ~inner)
    starts = int(np.sum(inner)) + np.cumsum(np.bincount(j - i))
    head = f"give {np.sum(outer)} window pairs; "
    assert head in str(exc)
    scanned = int(str(exc).split(head)[1].split()[0])
    assert scanned in starts and guard <= scanned < guard + modulus.PAIR_BLOCK


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

    def test_too_few_nodes_or_levels(self):
        spec = CompactumSpec("sup-norm", 1.0)
        with pytest.raises(ValueError, match="lattice needs at least 2 nodes"):
            LatticeCompactum(1, (0.0, 1.0), spec)
        with pytest.raises(ValueError, match="lattice needs at least one level"):
            LatticeCompactum(3, (), spec)

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
            assert modulus_bruteforce(lat, [delta], prob) == [pytest.approx(expected, abs=1e-12)]

    def test_zero_below_minimal_gap(self):
        assert modulus_bruteforce(constants_lattice(), [0.05], ProblemSpec()) == [0.0]

    def test_diameter_when_constraint_inactive(self):
        assert modulus_bruteforce(constants_lattice(), [2.5], ProblemSpec()) == [pytest.approx(2.0)]

    def test_nondecreasing_in_delta(self):
        lat = constants_lattice()
        prob = ProblemSpec()
        values = modulus_bruteforce(lat, (0.05, 0.15, 0.55, 1.05, 2.5), prob)
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_decay_with_injective_operator(self):
        spec = CompactumSpec("sup-norm", 2.0)
        lat = LatticeCompactum(3, tuple(np.linspace(-2, 2, 9)), spec)
        prob = ProblemSpec("rectangle")
        small, large = modulus_bruteforce(lat, (0.1, 10.0), prob)  # 0.1: below min image gap
        assert small == 0.0
        assert large == pytest.approx(4.0)
        assert small <= large

    def test_alternating_kernel_saturates_trapezoid_modulus(self):
        # the trapezoid map is blind to node-alternation, so the full lattice
        # modulus equals the diameter at every delta
        spec = CompactumSpec("sup-norm", 1.0)
        lat = LatticeCompactum(3, (-1.0, 0.0, 1.0), spec)
        assert modulus_bruteforce(lat, [1e-6], ProblemSpec()) == [pytest.approx(2.0)]

    @pytest.mark.parametrize("a", [1.0, 1.5, 2.0])
    def test_two_node_holder_lattice(self, a):
        # the lattice of `modulus --lattice-nodes 2 --phi holder-norm --c 2
        # --levels 5`: at a = 2 the one slope of each member has no partner
        lat = LatticeCompactum(2, tuple(np.linspace(-2.0, 2.0, 5)),
                               CompactumSpec("holder-norm", 2.0, a=a))
        assert modulus_bruteforce(lat, [0.5], ProblemSpec()) == [1.0]

    def test_matches_all_pairs_oracle(self):
        rng = np.random.default_rng(3)
        dominant = rng.normal(size=(3, 3))
        dominant[0] *= 10.0
        sup = CompactumSpec("sup-norm", 1.0)
        cases = [
            (LatticeCompactum(4, tuple(np.linspace(-1, 1, 8)), sup), ProblemSpec()),
            (LatticeCompactum(4, tuple(np.linspace(-1, 1, 8)), sup),
             ProblemSpec("rectangle")),
            (LatticeCompactum(3, tuple(np.linspace(-1, 1, 9)), sup), MatrixMap(dominant)),
            (LatticeCompactum(4, tuple(np.linspace(-1, 1, 9)),
                              CompactumSpec("holder-norm", 1.5, a=0.5)), ProblemSpec()),
            (LatticeCompactum(3, tuple(np.linspace(-1, 1, 9)),
                              CompactumSpec("holder-norm", 1.5, a=2.0)), ProblemSpec()),
            (constants_lattice(), ProblemSpec()),
        ]
        deltas = (1e-6, 1e-3, 1e-2, 0.1, 0.5, 10.0)
        # images by the forward map that judges the data tube everywhere; the
        # dominant case is a general matrix whose widest key is not the last
        # column, read through `apply_rows` as `modulus_bruteforce` reads it
        widest_keys = []
        for lat, prob in cases:
            images = prob.apply_rows(lat.members())
            widest_keys.append(int(np.argmax(np.ptp(images, axis=0))))
            assert_matches_oracle(lat, prob, images, deltas)
        assert widest_keys[0] == 3 and widest_keys[2] == 0

    @pytest.mark.parametrize("block", [1, 3, 4096])
    def test_block_scan_matches_all_pairs_oracle(self, monkeypatch, block):
        # steps of 1 and 3 pairs end inside bands and inside members'
        # windows; at 4096, the default, each band is one step
        monkeypatch.setattr(modulus, "PAIR_BLOCK", block)
        levels, sup = tuple(np.linspace(-1, 1, 5)), CompactumSpec("sup-norm", 1.0)
        rect, trap = ProblemSpec("rectangle"), ProblemSpec()
        cases = [
            (LatticeCompactum(3, levels, sup), trap, ()),
            (LatticeCompactum(3, levels, CompactumSpec("holder-norm", 1.5, a=0.5)), rect, ()),
            (LatticeCompactum(3, tuple(np.linspace(-1, 1, 7)),
                              CompactumSpec("holder-norm", 1.5, a=2.0)), trap, ()),
            (LatticeCompactum(3, tuple(np.linspace(-1, 1, 7)),
                              CompactumSpec("holder-norm", 1.5, a=2.0)), rect, ()),
            # nearly equal deltas: most members' second ring is empty
            (LatticeCompactum(3, levels, sup), rect, (0.05 + 1e-9, 0.2 + 1e-9)),
            # m = 2
            (LatticeCompactum(3, (-1.0, 1.0), sup, constants_only=True), trap, ()),
            # duplicate keys: the trapezoid map gives mirrored 2-node members
            # one image; constants share every key column but the last
            (LatticeCompactum(2, tuple(np.linspace(-1, 1, 7)), sup), trap, ()),
            (constants_lattice(), trap, ()),
        ]
        for lat, prob, extra in cases:
            # the images the scan reads, the dense rule's to rounding; on the
            # constants lattice 0.05 and 0.2 are pair distances, where the
            # matrix product's bits differ, so the oracle takes these
            images = prob.apply_rows(lat.members())
            assert_matches_matrix(images, rule_matrix(prob, lat.nodes), lat.members())
            top = float(np.max(np.ptp(images, axis=0)))
            # 0.3 and 0.6 of the image range: windows from the middle reach
            # the last member; 10 takes no ring
            deltas = (1e-3, 0.05, 0.2, 0.3 * top, 0.6 * top, 10.0) + extra
            assert_matches_oracle(lat, prob, images, deltas)

    def test_delta_at_the_image_range(self, monkeypatch):
        # a delta at or above the widest image range passes every pair, as
        # fl(|x - y|) <= fl(max - min), so it takes no ring; one ulp below
        # it, it takes one
        sup = CompactumSpec("sup-norm", 1.0)
        cases = [
            (LatticeCompactum(3, tuple(np.linspace(-1, 1, 5)), sup), ProblemSpec("rectangle")),
            (LatticeCompactum(4, tuple(np.linspace(-1, 1, 9)),
                              CompactumSpec("holder-norm", 1.5, a=0.5)), ProblemSpec()),
            (LatticeCompactum(3, tuple(np.random.default_rng(5).uniform(-1, 1, 6)), sup),
             MatrixMap(np.random.default_rng(6).normal(size=(3, 3)))),
        ]
        for lat, prob in cases:
            members = lat.members()
            images = prob.apply_rows(members)
            top = float(np.max(np.ptp(images, axis=0)))
            below = float(np.nextafter(top, 0.0))
            assert_matches_oracle(lat, prob, images, (below, top))
            widest = float(np.max(np.ptp(members, axis=0)))
            with monkeypatch.context() as patch:
                # no pair may be formed, yet the range and above read widest
                patch.setattr(modulus, "PAIR_GUARD", 0)
                assert modulus_bruteforce(lat, [2.0 * top, top], prob) == [widest, widest]
                with pytest.raises(PairBudgetExceededError, match="; 0 scanned"):
                    modulus_bruteforce(lat, [top, below], prob)

    def test_delta_at_a_pair_image_distance(self):
        # delta equal to a pair's float image distance is the edge case of
        # the sort-key window: fl(|key_j - key_i|) <= delta while the exact
        # key difference may exceed delta.  On 2 nodes the trapezoid map
        # gives mirrored members identical images; there delta is the least
        # positive float, which vanishes next to the key.  One call takes the
        # distances of all pairs, so each lies on the edge of its own ring.
        rng = np.random.default_rng(11)
        spec = CompactumSpec("sup-norm", 1.0)
        tiny = np.nextafter(0.0, 1.0)
        for _ in range(400):
            lat = LatticeCompactum(2, tuple(rng.uniform(-1, 1, 2)), spec)
            members = lat.members()
            for prob in (MatrixMap(rng.normal(size=(2, 2))), ProblemSpec()):
                images = prob.apply_rows(members)
                deltas = {max(float(np.max(np.abs(images[i] - images[j]))), tiny)
                          for i, j in itertools.combinations(range(len(members)), 2)}
                assert_matches_oracle(lat, prob, images, deltas)

    def test_pair_guard(self, monkeypatch):
        # the rectangle map is injective: omega stays below the widest range,
        # so the scan tests all 504,284 window pairs; the guard counts each
        # once, though a band's span also forms pairs outside the window
        spec = CompactumSpec("sup-norm", 1.0)
        lat = LatticeCompactum(4, tuple(np.linspace(-1, 1, 8)), spec)
        prob = ProblemSpec("rectangle")
        narrow, wide = window(lat, prob, 1e-3), window(lat, prob, 0.01)
        assert np.sum(wide) == 504_284
        assert modulus_bruteforce(lat, [0.01], prob) == [0.0]
        # a guard of exactly the window pairs passes: it is checked before
        # the last band, short of them, although the spans form about 1.9
        # times as many pairs (so at the full guard the 4 x 12 lattice, with
        # 8,605,674 window pairs at 0.01, passes too)
        monkeypatch.setattr(modulus, "PAIR_GUARD", 504_284)
        assert modulus_bruteforce(lat, [0.01], prob) == [0.0]
        assert modulus_bruteforce(lat, [1e-3, 0.01], prob) == [0.0, 0.0]
        monkeypatch.setattr(modulus, "PAIR_GUARD", 100_000)
        with pytest.raises(PairBudgetExceededError) as info:
            modulus_bruteforce(lat, [0.01], prob)
        assert_stops_at_a_band(info.value, np.zeros_like(wide), wide, 100_000)
        # the guard bounds the pairs of the whole call; the message counts
        # the window of the delta whose ring it stopped in.  Key groups lie
        # more than 0.02 apart, so the window of 1e-3 is that of 0.01 and
        # the call stops in the ring of 1e-3
        assert np.array_equal(narrow, wide)
        with pytest.raises(PairBudgetExceededError, match="give 504284 window pairs; 10") as info:
            modulus_bruteforce(lat, [0.01, 1e-3, 0.01], prob)
        assert_stops_at_a_band(info.value, np.zeros_like(wide), narrow, 100_000)
        # under the trapezoid map the lattice has 8,107,398 window pairs at
        # delta 0.5, but the scan reaches the widest range in its first step
        assert np.sum(window(lat, ProblemSpec(), 0.5)) == 8_107_398
        monkeypatch.setattr(modulus, "PAIR_GUARD", 1)
        assert modulus_bruteforce(lat, [0.5], ProblemSpec()) == [2.0]
        # the guard is checked before every band: on the 4 x 9 Holder
        # lattice the ring of 0.3, below the widest range and so scanned
        # whole, passes a guard of its 49,749 window pairs, and the ring of
        # 1.5, alone or after that of 0.3, first passes a guard of 68,006
        lat = LatticeCompactum(4, tuple(np.linspace(-1, 1, 9)),
                               CompactumSpec("holder-norm", 1.5, a=0.5))
        trap = ProblemSpec()
        assert np.sum(window(lat, trap, 0.3)) == 49_749
        monkeypatch.setattr(modulus, "PAIR_GUARD", 49_749)
        assert modulus_bruteforce(lat, [0.3], trap) == [1.25]
        monkeypatch.setattr(modulus, "PAIR_GUARD", 68_005)
        for deltas in ([1.5], [1.5, 0.3]):
            with pytest.raises(PairBudgetExceededError, match="; 68005 scanned"):
                modulus_bruteforce(lat, deltas, trap)
        monkeypatch.setattr(modulus, "PAIR_GUARD", 68_006)
        assert modulus_bruteforce(lat, [1.5], trap) == [2.0]
        assert modulus_bruteforce(lat, [1.5, 0.3], trap) == [2.0, 1.25]
        # rings are scanned from the smallest delta up, and each counts every
        # pair of the rings before it.  On this 3 x 7 Holder lattice the
        # 5,493 window pairs of 0.05 leave too little of a 7,600 guard for
        # the ring of 0.2, though each delta alone passes
        lat = LatticeCompactum(3, tuple(np.linspace(-1, 1, 7)),
                               CompactumSpec("holder-norm", 3.0, a=0.5))
        inner, outer = window(lat, trap, 0.05), window(lat, trap, 0.2)
        assert np.sum(inner) == 5_493
        four_thirds = lat.levels[6] - lat.levels[2]  # the widest pair within 0.05
        monkeypatch.setattr(modulus, "PAIR_GUARD", 7_600)
        assert modulus_bruteforce(lat, [0.05], trap) == [four_thirds]
        assert modulus_bruteforce(lat, [0.2], trap) == [2.0]
        with pytest.raises(PairBudgetExceededError) as info:
            modulus_bruteforce(lat, [0.2, 0.05], trap)
        assert_stops_at_a_band(info.value, inner, outer, 7_600)
        monkeypatch.undo()
        assert modulus_bruteforce(lat, [0.2, 0.05], trap) == [2.0, four_thirds]

    def test_bands_reach_a_pair_the_rows_reach_late(self, monkeypatch):
        # taken row by row in key order, as a row-by-row scan takes them,
        # the window pairs of this 3 x 12 lattice hold 77,430 pairs before
        # the first at the widest range, far above this 20,000 guard; by
        # offset, the bands meet one early, and the call passes the guard
        lat = LatticeCompactum(3, tuple(np.linspace(-1, 1, 12)), CompactumSpec("sup-norm", 1.0))
        prob, delta = ProblemSpec(), 0.05
        members = lat.members()
        images = prob.apply_rows(members)
        k = int(np.argmax(np.ptp(images, axis=0)))
        order = np.argsort(images[:, k], kind="stable")
        members, images = members[order], images[order]
        widest = np.max(np.ptp(members, axis=0))
        before = 0
        for i in range(len(members)):
            later = np.arange(i + 1, np.searchsorted(images[:, k], images[i, k] + 2.0 * delta,
                                                     side="right"))
            hit = np.flatnonzero((np.max(np.abs(images[later] - images[i]), axis=1) <= delta)
                                 & (np.max(np.abs(members[later] - members[i]), axis=1) == widest))
            if hit.size:
                before += int(hit[0])
                break
            before += len(later)
        assert before == 77_430
        monkeypatch.setattr(modulus, "PAIR_GUARD", 20_000)
        assert_matches_oracle(lat, prob, prob.apply_rows(lat.members()), (delta,))

    def test_empty_and_nonpositive_deltas(self, monkeypatch):
        def refuse(self):
            raise AssertionError("members() enumerated")

        monkeypatch.setattr(LatticeCompactum, "members", refuse)
        lat = constants_lattice()
        assert modulus_bruteforce(lat, [], ProblemSpec()) == []
        for deltas in ([0.0], [0.5, -1.0], [0.5, 0.1, float("nan")], [-0.0, 0.5]):
            with pytest.raises(ValueError, match="delta must be positive"):
                modulus_bruteforce(lat, deltas, ProblemSpec())


class TestSearch:
    """Continuum lower bounds on omega(delta): certified pairs on the delta/2 tube.

    Both members of a pair on zero data with noise radius delta/2 lie within
    delta/2 of the data, so their images differ by at most delta, and their
    separation lower-bounds omega(delta).
    """

    def test_matches_sine_separation(self):
        cls = FeasibleClass.for_zero_data(CompactumSpec("sup-norm", 1.0), 0.01 / 2, 1281)
        pair = sine_pair(1.0, 0.005, n=1281)
        # mirror the pair's sinusoid: (-v, v) in place of (0, v)
        v2 = pair.v2
        v1 = GridFunction(-v2.values)
        assert is_feasible(v1, cls).feasible and is_feasible(v2, cls).feasible
        found = float(np.max(np.abs(v1.values - v2.values)))
        assert found == pytest.approx(2.0 * pair.separation, abs=1e-12)
        assert found == pytest.approx(2.0, abs=1e-12)

    def test_continuum_bump_needs_room(self):
        with pytest.raises(GridTooCoarseError):
            bump_pair(1.0, 0.01 / 2, n=2)
