"""Modulus of continuity of the inverse operator on a compactum.

omega(delta) = sup{ sup|v - w| : sup|Av - Aw| <= delta, v, w in K }.

Its decay to zero as delta -> 0 is exactly what makes uniform-over-the-class
reconstruction possible on K.  This module computes it exactly, by pair
enumeration on small lattice compacta judged as `adversary` judges
membership: all members at once, phi by `CompactumSpec.phi_rows` and images
by the one forward map `ProblemSpec.apply_rows`.

One call serves all deltas of a command: one sort, then one scan of nested
key windows ring by ring, each pair formed once, under one pair guard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PairBudgetExceededError
from .operators import CompactumSpec, ProblemSpec

__all__ = ["LatticeCompactum", "modulus_bruteforce"]

PAIR_GUARD = 10_000_000
MEMBER_GUARD = 2_000_000
#: window pairs per block of the brute-force scan
PAIR_BLOCK = 4096


def _node_max_abs_diff(table: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """max over the rows of a node-major table of |table[:, j] - table[:, i]|."""
    out = np.abs(table[0, j] - table[0, i])
    for row in table[1:]:
        np.maximum(out, np.abs(row[j] - row[i]), out=out)
    return out


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
            # every level combination, in itertools.product order
            index = np.indices((len(self.levels),) * self.nodes).reshape(self.nodes, -1).T
            grid = np.asarray(self.levels)[index]
        keep = self.spec.phi_rows(grid) <= self.spec.c
        return grid[keep]


def modulus_bruteforce(compactum: LatticeCompactum, deltas, prob: ProblemSpec) -> list[float]:
    """Exact omega(delta) on the lattice for each of `deltas`, in their order.

    Members are stably sorted by the image column of widest spread, the key,
    and member i meets only later members with key <= fl(key_i + 2 delta).
    That window holds every pair the test max|image_i - image_j| <= delta
    accepts: fl(|key_j - key_i|) <= delta gives an exact difference of at
    most delta (1 + 2**-53) <= 2 delta, and rounding is monotone.  A window
    of key_i + delta is not one: it misses pairs at distance delta itself.
    The windows of ascending deltas nest, so ring r, window r less window
    r - 1, holds pairs that pass only at delta_r and above.  Rings are scanned in
    blocks of PAIR_BLOCK pairs: image test, then the separation of the pairs
    within the largest delta, which raises omega at each delta they meet.
    Each pair gives the same floats as in an all-pairs scan, so each omega
    is bit for bit the all-pairs maximum.  A ring stops once its omega
    reaches the widest node range, as every larger delta has then.  PAIR_GUARD
    bounds the pairs of the whole call, so it can stop several deltas where
    one call per delta would pass: when inner rings hold many pairs short of
    the widest range.
    """
    for delta in deltas:
        if not delta > 0.0:
            raise ValueError(f"delta must be positive, got {delta}")
    if len(deltas) == 0:
        return []
    ds = sorted(set(deltas))
    members = compactum.members()
    m = members.shape[0]
    if m < 2:
        return [0.0] * len(deltas)
    images = prob.apply_rows(members)
    spread = np.ptp(images, axis=0)
    k = np.argmax(spread)
    order = np.argsort(images[:, k], kind="stable")
    test = spread > 0.0  # a column of zero spread rejects no pair
    test[k] = True
    # node-major copies: one contiguous row per node
    members_t, images_t = members[order].T.copy(), images[order][:, test].T.copy()
    key = images_t[np.count_nonzero(test[:k])]
    widest = float(np.max(np.ptp(members_t, axis=1)))
    omega = [0.0] * len(ds)
    lo, scanned, window = np.arange(1, m + 1), 0, 0  # ring 0 starts after the member
    for r, delta in enumerate(ds):
        hi = np.searchsorted(key, key + 2.0 * delta, side="right")
        counts = hi - lo
        firsts = np.cumsum(counts) - counts  # index of each member's first ring pair
        total = int(firsts[-1] + counts[-1])
        window += total  # pairs of window r
        for start in range(0, total, PAIR_BLOCK):
            if omega[r] >= widest:
                break
            if scanned >= PAIR_GUARD:
                raise PairBudgetExceededError(
                    f"{m} feasible members give {window} window pairs; {scanned} scanned "
                    f"without reaching the widest range, at the {PAIR_GUARD} guard")
            stop = min(start + PAIR_BLOCK, total)
            rows = np.arange(np.searchsorted(firsts, start, side="right") - 1,
                             np.searchsorted(firsts, stop, side="left"))
            take = np.minimum(firsts[rows] + counts[rows], stop) - np.maximum(firsts[rows], start)
            i = np.repeat(rows, take)
            j = lo[i] + np.arange(start, stop) - firsts[i]
            dist = _node_max_abs_diff(images_t, i, j)
            ok = dist <= ds[-1]
            if ok.any():
                dist, sep = dist[ok], _node_max_abs_diff(members_t, i[ok], j[ok])
                for q in range(r, len(ds)):
                    omega[q] = max(omega[q], float(np.max(sep, where=dist <= ds[q], initial=0.0)))
            scanned += stop - start
        lo = hi
    return [omega[ds.index(d)] for d in deltas]
