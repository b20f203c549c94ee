"""Feasible-set probes and worst-case error estimation.

The feasible set pairs a data constraint with an a-priori class constraint:

    S = {v : sup|Av - g_delta| <= delta  and  phi(v) <= c}

where A is the cumulative sum of `ProblemSpec` (trapezoid by default).  Any
two certified members v1, v2 of S are indistinguishable from the data, so
half their separation sup|v1 - v2| lower-bounds the worst-case error of
*every* reconstruction rule, linear or not.  Two constructions make that
bound concrete:

* `sine_pair` - for the class bounded only in sup norm, a sinusoid of
  frequency k ~ bound/(pi*delta) has an integral of size bound/(pi*k) <=
  delta yet full amplitude, so the separation stays near `bound` no matter
  how small delta gets.  No reconstruction rule can beat bound/2 on this
  class: differentiation with data known only in sup norm is unsolvable
  without a smoothness bound.

* `bump_pair` - for the literal Lipschitz class (Holder exponent 1), a
  grid-snapped triangle bump of height ~ sqrt(delta*bound/2) is feasible,
  so the class diameter shrinks like sqrt(delta) rather than staying flat.

`sample_feasible` populates an ensemble of certified members around a known
feasible element: one float64 array whose rows are the members, row 0 the
start.  Each round draws up to ROW_BLOCK shapes, steps along each shape by
0.9 * min(slack / gain) over the misfit and the norm, and certifies all
candidates with one row-wise membership test.
`sup_error_estimate` turns an ensemble into a certified lower bound on the
worst-case error of a given reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import GridTooCoarseError, InfeasibleProblemError
from .grid import GridFunction, NoisyData, _read_grid_table, _write_table, format_float
# holder_norm stays bound here because bench/selftest.py checks that the
# tracer rebinds wcreg.adversary.holder_norm
from .grid import holder_norm  # noqa: F401
from .operators import CompactumSpec, ProblemSpec

__all__ = [
    "FeasibleClass",
    "FeasibilityCheck",
    "PairCertificate",
    "AdversarialPair",
    "is_feasible",
    "sample_feasible",
    "sup_error_estimate",
    "sine_pair",
    "bump_pair",
    "write_pair_csv",
    "read_pair_csv",
]

#: escalating multiplicative trims used when float rounding or off-node
#: kinks push a construction an ulp past an exact constraint boundary
_SHAVE_LADDER = (0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3)


@dataclass(frozen=True, eq=False)
class FeasibleClass:
    """The feasible set S = {v : phi(v) <= c, sup|Av - g_delta| <= delta}.

    The class {phi <= c} is the CompactumSpec `spec`, the data tube of
    radius delta around g_delta is `data`, and the forward map A is the
    ProblemSpec `prob` (default: the trapezoid rule).  It states the
    set's rules once: every misfit sup|Av - g_delta| comes from `misfits`,
    and every membership verdict from `admits`.
    """

    spec: CompactumSpec
    data: NoisyData
    prob: ProblemSpec = ProblemSpec()

    @classmethod
    def for_zero_data(cls, spec: CompactumSpec, delta: float, n: int) -> "FeasibleClass":
        return cls(spec, NoisyData(GridFunction.zeros(n), delta))

    @property
    def delta(self) -> float:
        return self.data.delta

    @property
    def n(self) -> int:
        return self.data.g_delta.n

    def misfits(self, rows: np.ndarray) -> np.ndarray:
        """sup|A row - g_delta| of each row of a 2-D array: the one misfit."""
        return np.max(np.abs(self.prob.apply_rows(rows) - self.data.g_delta.values), axis=1)

    def residuals(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(misfit, norm) of each row of a 2-D array: `misfits` and
        phi(row).

        The one membership kernel.  Each row takes the floats it takes on
        its own (see `ProblemSpec.apply_rows` and `CompactumSpec.phi_rows`),
        so a row's verdict does not depend on the rows checked with it.
        """
        self.spec.require_nodes(self.n)
        return self.misfits(rows), self.spec.phi_rows(rows)

    def admits(self, misfit, norm):
        """The one membership verdict, misfit <= delta and norm <= c, on
        floats or elementwise on arrays."""
        return (misfit <= self.delta) & (norm <= self.spec.c)


class FeasibilityCheck(NamedTuple):
    feasible: bool
    misfit: float
    class_norm: float


class PairCertificate(NamedTuple):
    delta: float
    bound: float
    misfit1: float
    norm1: float
    misfit2: float
    norm2: float


@dataclass(frozen=True, eq=False)
class AdversarialPair:
    """Two certified feasible members and their sup-norm separation."""

    v1: GridFunction
    v2: GridFunction
    separation: float
    certificate: PairCertificate


def is_feasible(v: GridFunction, cls: FeasibleClass) -> FeasibilityCheck:
    """Both residuals (data misfit, class norm) plus the verdict
    `FeasibleClass.admits` on them: the one-row case of
    `FeasibleClass.residuals`."""
    if v.n != cls.n:
        raise ValueError(f"grid mismatch: candidate has {v.n} nodes, class data {cls.n}")
    mis, norm = (float(r[0]) for r in cls.residuals(v.values[None]))
    return FeasibilityCheck(cls.admits(mis, norm), mis, norm)


def _assemble_pair(v2: GridFunction, cls: FeasibleClass) -> AdversarialPair:
    """The pair (g_delta, v2) of a class on zero data, both members certified."""
    v1 = cls.data.g_delta
    c1 = is_feasible(v1, cls)
    c2 = is_feasible(v2, cls)
    if not (c1.feasible and c2.feasible):
        raise InfeasibleProblemError(
            "pair member failed the membership test: "
            f"misfits ({c1.misfit}, {c2.misfit}) vs delta {cls.delta}, "
            f"norms ({c1.class_norm}, {c2.class_norm}) vs bound {cls.spec.c}")
    sep = float(np.max(np.abs(v1.values - v2.values)))
    cert = PairCertificate(cls.delta, cls.spec.c, c1.misfit, c1.class_norm,
                           c2.misfit, c2.class_norm)
    return AdversarialPair(v1, v2, sep, cert)


# ---------------------------------------------------------------------------
# pair constructions


#: most nodes a construction's default grid may have: `bump_pair` clips its
#: default grid to it, `sine_pair` refuses a delta whose default grid exceeds it
MAX_DEFAULT_NODES = 2_000_001


def sine_pair(bound: float, delta: float, n: int | None = None) -> AdversarialPair:
    """Flat-amplitude pair for the sup-norm class: v1 = 0, v2 a sinusoid.

    Frequency k = ceil(bound / (pi * delta)) makes sup|A v2| = bound/(pi*k)
    <= delta in the continuum; on the grid the trapezoid rule damps the
    image further, so feasibility certifies exactly.  The grid must resolve
    the oscillation (at least 20 nodes per period); the default grid
    n = 20k + 1 puts the sine extrema on nodes, giving separation = bound,
    and is refused above MAX_DEFAULT_NODES.
    """
    if not bound > 0.0 or not delta > 0.0:
        raise ValueError("bound and delta must be positive")
    ratio = bound / (math.pi * delta)
    if not math.isfinite(ratio):
        raise GridTooCoarseError(f"bound={bound} and delta={delta} overflow the sine "
                                 "frequency bound/(pi*delta)")
    k = math.ceil(ratio)
    if n is None:
        n = 20 * k + 1
        if n > MAX_DEFAULT_NODES:
            raise GridTooCoarseError(
                f"frequency k={k} needs a default grid of {n} nodes, above the "
                f"{MAX_DEFAULT_NODES}-node ceiling; give the grid explicitly")
    if n < 20 * k + 1:
        raise GridTooCoarseError(
            f"grid with {n} nodes cannot resolve frequency k={k}; "
            f"need at least {20 * k + 1} nodes")
    cls = FeasibleClass.for_zero_data(CompactumSpec("sup-norm", bound), delta, n)
    x = np.linspace(0.0, 1.0, n)
    v2 = GridFunction(bound * np.sin(2.0 * math.pi * k * x))
    try:
        return _assemble_pair(v2, cls)
    except InfeasibleProblemError as exc:
        raise GridTooCoarseError(
            f"grid with {n} nodes leaves the sinusoid image above delta: {exc}") from exc


def bump_pair(bound: float, delta: float, n: int | None = None) -> AdversarialPair:
    """Triangle-bump pair for the Lipschitz class: v1 = 0, v2 a bump.

    The bump is centered at 1/2 with slopes +-bound/2 and ideal height
    min(sqrt(delta*bound/2), bound/2); its integral then peaks at exactly
    delta (or below, in the clipped branch), and the Lipschitz norm is
    height + bound/2 <= bound.  When the support fits the grid, the kinks
    are snapped onto nodes so the trapezoid image is exact; otherwise the
    clipped profile is sampled directly.  Either way the profile is trimmed
    by the smallest ladder factor that certifies feasibility exactly.
    """
    if not bound > 0.0 or not delta > 0.0:
        raise ValueError("bound and delta must be positive")
    height_ideal = min(math.sqrt(delta * bound / 2.0), bound / 2.0)
    if n is None:
        if height_ideal == 0.0:
            raise GridTooCoarseError(f"bound={bound} and delta={delta} underflow the bump "
                                     "height sqrt(delta*bound/2) to 0; give the grid")
        width_ideal = 2.0 * height_ideal / bound
        n = int(max(1001, min(MAX_DEFAULT_NODES, 8 * math.ceil(1.0 / width_ideal) + 1)))
    # the half-width free around the centre node
    room = (n - 1) // 2
    if room < 1:
        raise GridTooCoarseError(f"grid with {n} nodes leaves no room for a bump")
    dx = 1.0 / (n - 1)
    p = int(round(2.0 * height_ideal / bound / dx))
    cls = FeasibleClass.for_zero_data(CompactumSpec("holder-norm", bound, a=1.0), delta, n)

    if p <= room:
        # kinks on nodes, p either side of the centre: at width w = p*dx the
        # height min(bound*w/2, delta/w) keeps the slopes within bound/2 and
        # the exact trapezoid image within delta
        p = max(1, p)
        width = p * dx
        height = min(0.5 * bound * width, delta / width)
        profile = np.maximum(0.0, 1.0 - np.abs(np.arange(n) - room) / p)
    else:
        # support wider than the interval: sample the clipped profile, height included
        x = np.linspace(0.0, 1.0, n)
        height = 1.0
        profile = np.maximum(0.0, height_ideal - 0.5 * bound * np.abs(x - room * dx))
    for shave in _SHAVE_LADDER:
        v2 = GridFunction(height * (1.0 - shave) * profile)
        try:  # the first rung whose bump certifies makes the pair
            return _assemble_pair(v2, cls)
        except InfeasibleProblemError:
            pass
    raise InfeasibleProblemError(
        f"bump construction failed to certify for bound={bound}, delta={delta}, n={n}")


# ---------------------------------------------------------------------------
# ensembles


#: most candidate rows that one round of `sample_feasible` checks together;
#: it keeps a round's transient arrays at O(ROW_BLOCK * n) whatever the count
ROW_BLOCK = 64


def _draw_shape(rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    """One perturbation profile on the nodes `x` from the fixed dictionary.

    The draws (kind, then its parameters) happen in a fixed order on every
    attempt, so the ensemble is a pure function of the seed.
    """
    kind = int(rng.integers(0, 5))
    if kind == 0:
        k = int(rng.integers(1, 9))
        return np.sin(2.0 * math.pi * k * x)
    if kind == 1:
        k = int(rng.integers(1, 9))
        return np.cos(2.0 * math.pi * k * x)
    if kind == 2:
        c = rng.uniform(0.25, 0.75)
        w = rng.uniform(0.05, 0.25)
        return np.maximum(0.0, 1.0 - np.abs(x - c) / w)
    if kind == 3:
        # node-alternating profile: invisible to the trapezoid integral
        return np.where(np.arange(x.size) % 2 == 0, 1.0, -1.0)
    return np.ones(x.size)


def _ratios(slack: float, gains: np.ndarray) -> np.ndarray:
    """slack / gain for each gain, inf where the gain is 0; a quotient
    beyond the float range is inf without a warning, as in Python."""
    with np.errstate(over="ignore"):
        return np.divide(slack, gains, out=np.full(gains.shape, math.inf), where=gains != 0.0)


def _accepted_rows(cls: FeasibleClass, base: np.ndarray, shapes: np.ndarray,
                   steps: np.ndarray) -> np.ndarray:
    """The candidates base + steps[k] * shapes[k] that pass the membership
    test, in row order.  All pending rows are checked in one kernel call; a
    rejected row halves its step and is checked again, 40 checks at most."""
    accepted = np.zeros(len(shapes), dtype=bool)
    out = np.empty(shapes.shape)
    todo = np.arange(len(shapes))
    for _ in range(40):
        rows = base + steps[todo, None] * shapes[todo]
        ok = cls.admits(*cls.residuals(rows))
        out[todo[ok]] = rows[ok]
        accepted[todo[ok]] = True
        todo = todo[~ok]
        if todo.size == 0:
            break
        steps[todo] *= 0.5
    return out[accepted]


def sample_feasible(cls: FeasibleClass, count: int, seed: int | np.random.SeedSequence,
                    start: GridFunction) -> np.ndarray:
    """Up to `count` certified members of S around a feasible start element,
    as the rows of a (k, n) float64 array, k <= count.

    The start element must pass the membership test, else
    InfeasibleProblemError; row 0 is the start element, and count = 0 gives
    shape (0, n).  Each attempt draws a shape, a sign and a scale fraction.

    Attempts run in rounds.  A round draws the next count - k attempts, at
    most ROW_BLOCK and at most the attempts left of 30 * count + 100.  It
    takes the image gains sup|A shape| from one `apply_rows` call and the
    norm gains phi(shape) from one `phi_rows` call, both over every shape
    drawn.  The triangle inequality caps the step at t = 0.9 *
    min(misfit slack / image gain, norm slack / norm gain), a gain of 0
    giving inf.  A shape is live when t is positive and finite (a shape
    without misfit room has t = 0), and a live shape's candidate is
    start + sign * (t * frac) * shape.  The live candidates, none or all,
    are checked with one row-wise membership test
    (`FeasibleClass.residuals`); a rejected one halves its step and is
    checked again, up to 40 times.  The accepted candidates join in attempt
    order.  So every member passes the full membership test, no draw
    depends on an outcome, and each row takes the floats it takes alone: a
    seed gives exactly the members of checking one attempt at a time.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    chk = is_feasible(start, cls)
    if not chk.feasible:
        raise InfeasibleProblemError(
            "no feasible point found: start element has "
            f"misfit {chk.misfit} (delta {cls.delta}) and norm {chk.class_norm} "
            f"(bound {cls.spec.c})")
    members = np.empty((count, cls.n))
    if count == 0:
        return members
    members[0] = start.values
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, cls.n)
    misfit_slack, norm_slack = cls.delta - chk.misfit, cls.spec.c - chk.class_norm
    got, attempts, max_attempts = 1, 0, 30 * count + 100
    while got < count and attempts < max_attempts:
        size = min(count - got, max_attempts - attempts, ROW_BLOCK)
        attempts += size
        shapes, signs, fracs = np.empty((size, cls.n)), np.empty(size), np.empty(size)
        for i in range(size):
            shapes[i] = _draw_shape(rng, x)
            signs[i] = 1.0 if rng.uniform() < 0.5 else -1.0
            fracs[i] = rng.uniform(0.2, 1.0)
        image = _ratios(misfit_slack, np.max(np.abs(cls.prob.apply_rows(shapes)), axis=1))
        norm = _ratios(norm_slack, cls.spec.phi_rows(shapes))
        t = 0.9 * np.minimum(image, norm)
        live = (t > 0.0) & np.isfinite(t)
        accepted = _accepted_rows(cls, start.values, shapes[live],
                                  signs[live] * (t[live] * fracs[live]))
        members[got:got + len(accepted)] = accepted
        got += len(accepted)
    return members[:got]


def sup_error_estimate(reconstruction: GridFunction, ensemble: np.ndarray) -> float:
    """max over the rows v of a (k, n) ensemble of sup|reconstruction - v|.

    A certified *lower* bound on the true worst-case error (the supremum
    runs over the whole infinite class); members are assumed certified.
    """
    if len(ensemble) == 0:
        raise ValueError("sup_error_estimate needs a nonempty ensemble")
    if ensemble.ndim != 2 or ensemble.shape[1] != reconstruction.n:
        raise ValueError("grid mismatch between reconstruction and ensemble member: need "
                         f"a (k, {reconstruction.n}) array, got shape {ensemble.shape}")
    return float(np.abs(reconstruction.values - ensemble).max())


# ---------------------------------------------------------------------------
# serialization


#: the certificate lines of a pair file, in file order
_PAIR_KEYS = ("delta", "bound", "separation", "misfit1", "norm1", "misfit2", "norm2")


def write_pair_csv(pair: AdversarialPair, path: str | Path) -> None:
    """Pair export: certificate as `# key=value` comments, then x,v1,v2 rows."""
    meta = {"separation": pair.separation, **pair.certificate._asdict()}
    head = "".join(f"# {key}={format_float(meta[key])}\n" for key in _PAIR_KEYS)
    _write_table(path, "x,v1,v2", np.column_stack((pair.v1.x, pair.v1.values, pair.v2.values)),
                 lead=head)


def read_pair_csv(path: str | Path) -> AdversarialPair:
    """Read a pair file back, requiring every certificate line."""
    data, meta = _read_grid_table(path, "x,v1,v2")
    for key in _PAIR_KEYS:
        if key not in meta:
            raise ValueError(f"{path}: certificate line '# {key}=...' missing")
    cert = PairCertificate(*(meta[key] for key in PairCertificate._fields))
    return AdversarialPair(GridFunction(data[:, 1]), GridFunction(data[:, 2]),
                           meta["separation"], cert)
