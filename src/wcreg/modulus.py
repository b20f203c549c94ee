"""Modulus of continuity of the inverse operator on a compactum.

omega(delta) = sup{ sup|v - w| : sup|Av - Aw| <= delta, v, w in K }.

Its decay to zero as delta -> 0 is exactly what makes uniform-over-the-class
reconstruction possible on K.  This module computes it exactly, by pair
enumeration on small lattice compacta judged as `adversary` judges
membership: all members at once, phi by `CompactumSpec.phi_rows` and images
by the one forward map `ProblemSpec.apply_rows`.

One call serves all deltas: one sort, then one scan of nested key windows,
ring by ring and one offset band a step over contiguous slices, with one
guard checked before every band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PairBudgetExceededError
from .operators import CompactumSpec, ProblemSpec

__all__ = ["LatticeCompactum", "modulus_bruteforce"]

PAIR_GUARD = 10_000_000
MEMBER_GUARD = 2_000_000
#: most pairs one step of the brute-force scan forms
PAIR_BLOCK = 4096


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
    most delta (1 + 2**-53) <= 2 delta, and rounding is monotone (key_i +
    delta would miss pairs at distance delta).  Ring r, window r less window
    r - 1, holds pairs that pass only at delta_r and above.  Its band d, the
    pairs (i, i + d) from the first to the last row whose window reaches d,
    is read by contiguous slices of the sorted node-major tables, one band
    and at most PAIR_BLOCK pairs a step; its pairs outside ring r are real
    pairs too, so each omega is bit for bit the all-pairs maximum.  A ring
    stops once its omega reaches the widest node range, as every larger
    delta has then.  A delta at or above the widest image range passes every
    pair, as fl(|x - y|) <= fl(max - min), and takes no ring.  Before every
    band, PAIR_GUARD is checked against the window pairs of the rings and
    bands before it, so it can refuse deltas that each pass alone.  Band d
    follows every window pair of offset below d, d (d - 1) / 2 or more: no
    ring passes band sqrt(2 PAIR_GUARD) + 1.
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
    images = prob.apply_rows(members).T.copy()  # node-major: row j is image node j
    spread = np.ptp(images, axis=1)
    k = np.argmax(spread)
    order = np.argsort(images[k], kind="stable")
    test = spread > 0.0  # a column of zero spread rejects no pair
    members_t = np.take(members.T, order, axis=1)  # C-contiguous; a bare [:, order] is F-ordered
    images_t, key = np.take(images[test], order, axis=1), images[k, order]
    widest = float(np.max(np.ptp(members_t, axis=1)))
    scan = sum(delta < spread[k] for delta in ds)  # deltas below the widest image range
    omega = [0.0] * scan + [widest] * (len(ds) - scan)
    rows, start = np.arange(m), np.ones(m, dtype=int)
    for r in range(scan):
        reach = np.searchsorted(key, key + 2.0 * ds[r], side="right") - rows
        head, tail = np.maximum.accumulate(reach), np.maximum.accumulate(reach[::-1])
        stop = int(head[-1])
        # before[d]: the window pairs before band d
        before = np.sum(start) - m + np.cumsum(np.cumsum(
            np.bincount(start + 1, minlength=stop + 2) - np.bincount(reach + 1)))
        for d in range(int(np.min(start, where=reach > start, initial=m)), stop):
            if omega[r] >= widest:
                break
            if before[d] >= PAIR_GUARD:
                raise PairBudgetExceededError(
                    f"{m} feasible members give {reach.sum() - m} window pairs; {before[d]}"
                    f" scanned without reaching the widest range, at the {PAIR_GUARD} guard")
            first, end = int(head.searchsorted(d, "right")), m - int(tail.searchsorted(d, "right"))
            for a in range(first, end, PAIR_BLOCK):
                b = min(a + PAIR_BLOCK, end)
                dist = np.abs(images_t[:, a + d:b + d] - images_t[:, a:b]).max(axis=0)
                if dist.min() <= ds[scan - 1]:
                    # only pairs within the largest delta and above omega[r] raise an omega
                    sep = np.abs(members_t[:, a + d:b + d] - members_t[:, a:b]).max(axis=0)
                    hot = np.flatnonzero((sep > omega[r]) & (dist <= ds[scan - 1]))
                    sep, dist = sep[hot], dist[hot]
                    for q in range(r, scan):
                        omega[q] = max(omega[q],
                                       float(np.max(sep, where=dist <= ds[q], initial=0.0)))
        start = reach
    return [omega[ds.index(d)] for d in deltas]
