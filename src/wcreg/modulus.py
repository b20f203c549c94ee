"""Modulus of continuity of the inverse operator on a compactum.

omega(delta) = sup{ sup|v - w| : sup|Av - Aw| <= delta, v, w in K }.

Its decay to zero as delta -> 0 is exactly what makes uniform-over-the-class
reconstruction possible on K.  Exact values are computed by pair enumeration
on small lattice compacta; everywhere else only certified lower bounds are
reported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .adversary import (FeasibleClass, _bump_fit, _draw_shape, _scaled_step,
                        _sine_frequencies, _sine_profile, _snapped_bump, is_feasible)
from .errors import PairBudgetExceededError
from .grid import GridFunction, NoisyData, _holder_norms
from .operators import CompactumSpec, ProblemSpec

__all__ = ["LatticeCompactum", "modulus_bruteforce", "modulus_search"]

PAIR_GUARD = 10_000_000
MEMBER_GUARD = 2_000_000


def _batch_phi(members: np.ndarray, spec: CompactumSpec) -> np.ndarray:
    """phi of each row of a small-n member array."""
    if spec.phi == "sup-norm":
        return np.max(np.abs(members), axis=1)
    return _holder_norms(members, spec.a)


@dataclass(frozen=True, eq=False)
class LatticeCompactum:
    """Enumerable compactum: node values restricted to a finite level set.

    The member list is every |levels|**nodes value combination (or just the
    constant functions when `constants_only` is set), filtered by
    phi <= spec.c.
    """

    nodes: int
    levels: tuple
    spec: CompactumSpec
    constants_only: bool = False

    def __post_init__(self):
        if self.nodes < 2:
            raise ValueError("lattice needs at least 2 nodes")
        if len(self.levels) < 1:
            raise ValueError("lattice needs at least one level")
        object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))

    @property
    def raw_count(self) -> int:
        if self.constants_only:
            return len(self.levels)
        return len(self.levels) ** self.nodes

    def members(self) -> np.ndarray:
        if self.raw_count > MEMBER_GUARD:
            raise PairBudgetExceededError(
                f"lattice has {self.raw_count} raw members, above the "
                f"{MEMBER_GUARD} enumeration guard")
        if self.constants_only:
            grid = np.repeat(np.asarray(self.levels)[:, None], self.nodes, axis=1)
        else:
            grid = np.array(list(itertools.product(self.levels, repeat=self.nodes)))
        keep = _batch_phi(grid, self.spec) <= self.spec.c
        return grid[keep]


def modulus_bruteforce(compactum: LatticeCompactum, delta: float, prob: ProblemSpec) -> float:
    """Exact omega(delta) on the lattice by deduplicated pair scan.

    Pairs whose separation cannot beat the running maximum are skipped
    before their images are compared, which keeps desk-scale instances fast.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    members = compactum.members()
    m = members.shape[0]
    if m * (m - 1) // 2 > PAIR_GUARD:
        raise PairBudgetExceededError(
            f"{m} feasible members give {m * (m - 1) // 2} pairs, above the "
            f"{PAIR_GUARD} guard")
    if m < 2:
        return 0.0
    images = members @ prob.matrix(compactum.nodes).T
    omega = 0.0
    for i in range(m - 1):
        sep = np.max(np.abs(members[i + 1:] - members[i]), axis=1)
        mask = sep > omega
        if not mask.any():
            continue
        img_dist = np.max(np.abs(images[i + 1:][mask] - images[i]), axis=1)
        ok = img_dist <= delta
        if ok.any():
            omega = float(np.max(sep[mask][ok]))
    return omega


def _search_lattice(compactum: LatticeCompactum, delta: float, prob: ProblemSpec,
                    budget: int, seed) -> float:
    members = compactum.members()
    m = members.shape[0]
    if m < 2:
        return 0.0
    images = members @ prob.matrix(compactum.nodes).T
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(budget):
        i, j = rng.integers(0, m, size=2)
        if np.max(np.abs(images[i] - images[j])) <= delta:
            best = max(best, float(np.max(np.abs(members[i] - members[j]))))
    return best


def _search_continuum(spec: CompactumSpec, delta: float, prob: ProblemSpec,
                      budget: int, seed, n: int) -> float:
    # image-distance constraint is delta itself, so the membership test is
    # the adversary one with noise radius delta around zero data
    cls = FeasibleClass.from_specs(spec, prob, NoisyData(GridFunction.zeros(n), delta))
    candidates = []
    if cls.kind == "sup-only":
        ks, _ = _sine_frequencies(spec.c, delta, n)
        if ks:
            candidates.append(_sine_profile(spec.c, ks[0], n))
    elif spec.a == 1.0:
        room, p_want = _bump_fit(spec.c, delta, n)
        candidates.append(_snapped_bump(n, min(max(1, p_want), room), spec.c, delta, 1e-12))
    rng = np.random.default_rng(seed)
    best = 0.0
    zero = GridFunction.zeros(n)
    gains: dict[str, tuple[float, float]] = {}
    for idx in range(budget):
        if idx < len(candidates):
            v, w = candidates[idx], zero
        else:
            # the zero start has misfit slack delta and norm slack c
            shape, key = _draw_shape(rng, n)
            t = _scaled_step(cls, shape, key, (delta, spec.c), rng.uniform(0.2, 1.0), gains)
            if t is None:
                continue
            half = 0.5 * t
            v = GridFunction(half * shape)
            w = GridFunction(-half * shape)
        if is_feasible(v, cls).feasible and is_feasible(w, cls).feasible \
                and np.max(np.abs(cls.image(v) - cls.image(w))) <= delta:
            best = max(best, float(np.max(np.abs(v.values - w.values))))
    return best


def modulus_search(target: LatticeCompactum | CompactumSpec, delta: float,
                   prob: ProblemSpec, budget: int, seed: int = 0,
                   n: int | None = None) -> float:
    """Certified lower bound on omega(delta) by budgeted pair search.

    Given a LatticeCompactum the candidate pairs are sampled from its own
    member list, so the result can never exceed `modulus_bruteforce` on the
    same instance.  Given a CompactumSpec the search runs over the continuum
    of grid functions (structured sine/bump candidates first, then random
    perturbation pairs); `n` fixes the grid, defaulting to the operator
    matrix size.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if budget == 0:
        return 0.0
    if isinstance(target, LatticeCompactum):
        return _search_lattice(target, delta, prob, budget, seed)
    if n is None:
        n = prob.size()
    if n is None:
        raise ValueError("continuum search needs a grid size n")
    return _search_continuum(target, delta, prob, budget, seed, n)
