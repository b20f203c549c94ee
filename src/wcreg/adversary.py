"""Feasible-set probes and worst-case error estimation.

The feasible set pairs a data constraint with an a-priori class constraint:

    S = {v : sup|Av - g_delta| <= delta  and  class_norm(v) <= bound}

where A is the cumulative trapezoid integral (or an explicit matrix).  Any
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

`sample_feasible` populates ensembles of certified members around a known
feasible element; `sup_error_estimate` turns an ensemble into a certified
lower bound on the worst-case error of a given reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import GridTooCoarseError, InfeasibleProblemError
# holder_norm stays bound here because bench/selftest.py checks that the
# tracer rebinds wcreg.adversary.holder_norm
from .grid import GridFunction, NoisyData, format_float, holder_norm, sup_norm  # noqa: F401
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
    "diameter_probe",
    "write_pair_csv",
    "read_pair_csv",
]

#: the compactum functional phi that bounds each class kind
_KIND_PHI = {"holder": "holder-norm", "sup-only": "sup-norm"}
CLASS_KINDS = tuple(_KIND_PHI)

#: escalating multiplicative trims used when float rounding or off-node
#: kinks push a construction an ulp past an exact constraint boundary
_SHAVE_LADDER = (0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3)


@dataclass(frozen=True, eq=False)
class FeasibleClass:
    """Membership test data for S: noise radius, class norm, and its bound.

    `kind` is "holder" (norm = discrete Holder a-norm) or "sup-only"
    (norm = plain sup norm).  The forward map defaults to the trapezoid
    integral; pass `operator_matrix` to use an explicit matrix instead.
    The class {norm <= bound} and the forward map are held as the
    CompactumSpec `spec` and the ProblemSpec `prob`, which do the work.
    """

    kind: str
    bound: float
    data: NoisyData
    a: float | None = None
    operator_matrix: np.ndarray | None = None
    spec: CompactumSpec = field(init=False, repr=False)
    prob: ProblemSpec = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in _KIND_PHI:
            raise ValueError(f"class kind must be one of {CLASS_KINDS}, got {self.kind!r}")
        spec = CompactumSpec(_KIND_PHI[self.kind], self.bound, a=self.a)
        prob = ProblemSpec() if self.operator_matrix is None else ProblemSpec(self.operator_matrix)
        if prob.size() not in (None, self.n):
            raise ValueError(f"operator matrix must be {self.n}x{self.n}, "
                             f"got {prob.operator.shape}")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "prob", prob)
        object.__setattr__(self, "operator_matrix", None if prob.is_integration else prob.operator)

    @classmethod
    def for_zero_data(cls, kind: str, bound: float, delta: float, n: int,
                      a: float | None = None) -> "FeasibleClass":
        return cls(kind, bound, NoisyData(GridFunction.zeros(n), delta), a=a)

    @classmethod
    def from_specs(cls, spec: CompactumSpec, prob: ProblemSpec,
                   data: NoisyData) -> "FeasibleClass":
        """The class {phi <= c} of `spec` under the operator of `prob`."""
        kind = next(k for k, phi in _KIND_PHI.items() if phi == spec.phi)
        return cls(kind, spec.c, data, a=spec.a,
                   operator_matrix=None if prob.is_integration else prob.operator)

    @property
    def delta(self) -> float:
        return self.data.delta

    @property
    def n(self) -> int:
        return self.data.g_delta.n

    def class_norm(self, v: GridFunction) -> float:
        return self.spec.phi_value(v)

    def image(self, v: GridFunction) -> np.ndarray:
        return self.prob.apply(v).values

    def misfit(self, v: GridFunction) -> float:
        return float(np.max(np.abs(self.image(v) - self.data.g_delta.values)))


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
    """Both residuals (data misfit, class norm) plus their conjunction."""
    if v.n != cls.n:
        raise ValueError(f"grid mismatch: candidate has {v.n} nodes, class data {cls.n}")
    mis = cls.misfit(v)
    norm = cls.class_norm(v)
    return FeasibilityCheck(mis <= cls.delta and norm <= cls.bound, mis, norm)


def _assemble_pair(v1: GridFunction, v2: GridFunction, cls: FeasibleClass) -> AdversarialPair:
    c1 = is_feasible(v1, cls)
    c2 = is_feasible(v2, cls)
    if not (c1.feasible and c2.feasible):
        raise InfeasibleProblemError(
            "pair member failed the membership test: "
            f"misfits ({c1.misfit}, {c2.misfit}) vs delta {cls.delta}, "
            f"norms ({c1.class_norm}, {c2.class_norm}) vs bound {cls.bound}")
    sep = sup_norm(GridFunction(v1.values - v2.values))
    cert = PairCertificate(cls.delta, cls.bound, c1.misfit, c1.class_norm,
                           c2.misfit, c2.class_norm)
    return AdversarialPair(v1, v2, sep, cert)


# ---------------------------------------------------------------------------
# pair constructions


def _sine_profile(bound: float, k: int, n: int) -> GridFunction:
    x = np.linspace(0.0, 1.0, n)
    return GridFunction(bound * np.sin(2.0 * math.pi * k * x))


def _sine_frequencies(bound: float, delta: float, n: int | None) -> tuple[range, int]:
    """Sine frequencies a sup-only class admits on the grid, and the grid size.

    k = ceil(bound / (pi * delta)) is the lowest frequency whose integral
    bound/(pi*k) stays within delta; the grid must resolve at least 20 nodes
    per period, so the range is empty on a grid too coarse for k.  The
    default grid n = 20k + 1 puts the sine extrema on nodes.
    """
    k = math.ceil(bound / (math.pi * delta))
    if n is None:
        n = 20 * k + 1
    return range(k, (n - 1) // 20 + 1), n


def sine_pair(bound: float, delta: float, n: int | None = None) -> AdversarialPair:
    """Flat-amplitude pair for the sup-only class: v1 = 0, v2 a sinusoid.

    Frequency k = ceil(bound / (pi * delta)) makes sup|A v2| = bound/(pi*k)
    <= delta in the continuum; on the grid the trapezoid rule damps the
    image further, so feasibility certifies exactly.  The grid must resolve
    the oscillation (at least 20 nodes per period); the default grid
    n = 20k + 1 puts the sine extrema on nodes, giving separation = bound.
    """
    if not bound > 0.0 or not delta > 0.0:
        raise ValueError("bound and delta must be positive")
    ks, n = _sine_frequencies(bound, delta, n)
    if not ks:
        raise GridTooCoarseError(
            f"grid with {n} nodes cannot resolve frequency k={ks.start}; "
            f"need at least {20 * ks.start + 1} nodes")
    cls = FeasibleClass.for_zero_data("sup-only", bound, delta, n)
    v2 = _sine_profile(bound, ks[0], n)
    try:
        return _assemble_pair(GridFunction.zeros(n), v2, cls)
    except InfeasibleProblemError as exc:
        raise GridTooCoarseError(
            f"grid with {n} nodes leaves the sinusoid image above delta: {exc}") from exc


def _bump_height(bound: float, delta: float) -> float:
    """Ideal bump height: the integral of the bump with slopes +-bound/2
    peaks at delta, and its Lipschitz norm height + bound/2 stays within bound."""
    return min(math.sqrt(delta * bound / 2.0), bound / 2.0)


def _bump_fit(bound: float, delta: float, n: int) -> tuple[int, int]:
    """(room, p): the half-width free around the centre node (n-1)//2 and the
    ideal half-width 2*height/bound snapped to whole nodes."""
    room = (n - 1) // 2
    if room < 1:
        raise GridTooCoarseError(f"grid with {n} nodes leaves no room for a bump")
    dx = 1.0 / (n - 1)
    return room, int(round(2.0 * _bump_height(bound, delta) / bound / dx))


def _snapped_bump(n: int, p: int, bound: float, delta: float, shave: float) -> GridFunction:
    """Triangle bump on p nodes either side of the centre node, kinks on nodes.

    At width w = p*dx the height min(bound*w/2, delta/w) keeps the slopes
    within bound/2 and the exact trapezoid image within delta; `shave` trims it.
    """
    dx = 1.0 / (n - 1)
    width = p * dx
    height = min(0.5 * bound * width, delta / width) * (1.0 - shave)
    offsets = np.abs(np.arange(n) - (n - 1) // 2)
    return GridFunction(height * np.maximum(0.0, 1.0 - offsets / p))


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
    height_ideal = _bump_height(bound, delta)
    if n is None:
        width_ideal = 2.0 * height_ideal / bound
        n = int(max(1001, min(2_000_001, 8 * math.ceil(1.0 / width_ideal) + 1)))
    room, p_want = _bump_fit(bound, delta, n)
    cls = FeasibleClass.for_zero_data("holder", bound, delta, n, a=1.0)
    zero = GridFunction.zeros(n)

    if p_want <= room:
        for shave in _SHAVE_LADDER:
            v2 = _snapped_bump(n, max(1, p_want), bound, delta, shave)
            if is_feasible(v2, cls).feasible:
                return _assemble_pair(zero, v2, cls)
    else:
        # support wider than the interval: sample the clipped profile
        x = np.linspace(0.0, 1.0, n)
        dx = 1.0 / (n - 1)
        profile = np.maximum(0.0, height_ideal - 0.5 * bound * np.abs(x - (n - 1) // 2 * dx))
        for shave in _SHAVE_LADDER:
            v2 = GridFunction(profile * (1.0 - shave))
            if is_feasible(v2, cls).feasible:
                return _assemble_pair(zero, v2, cls)
    raise InfeasibleProblemError(
        f"bump construction failed to certify for bound={bound}, delta={delta}, n={n}")


# ---------------------------------------------------------------------------
# ensembles


def _draw_shape(rng: np.random.Generator, n: int) -> tuple[np.ndarray, str | None]:
    """One perturbation profile from the fixed dictionary.

    The draws (kind, parameters, sign, scale fraction) happen in a fixed
    order on every attempt, so the ensemble is a pure function of the seed.
    Parameter-free shapes return a cache key so their norms are computed
    once per run.
    """
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
        # node-alternating profile: invisible to the trapezoid integral
        return np.where(np.arange(n) % 2 == 0, 1.0, -1.0), "alternating"
    return np.ones(n), "constant"


def _scaled_step(cls: FeasibleClass, shape: np.ndarray, key: str | None,
                 slack: tuple[float, float], frac: float,
                 gains: dict[str, tuple[float, float]]) -> float | None:
    """Step t along `shape` that the triangle inequality keeps inside S.

    t = 0.9 * min(misfit slack / image gain, norm slack / norm gain) * frac,
    or None when that is not positive and finite.  A shape with no misfit
    room is dropped before the O(n^2) norm scan.  The gains of shapes with
    a cache `key` are computed once per `gains` dict.
    """
    misfit_slack, norm_slack = slack
    if key in gains:
        image_gain, norm_gain = gains[key]
    else:
        image_gain = float(np.max(np.abs(cls.image(GridFunction(shape)))))
        # an infinite norm gain stands for "not scanned" and gives t_norm = 0
        norm_gain = math.inf
        if _ratio(misfit_slack, image_gain) > 0.0:
            norm_gain = cls.class_norm(GridFunction(shape))
        if key is not None:
            gains[key] = (image_gain, norm_gain)
    t = 0.9 * min(_ratio(misfit_slack, image_gain), _ratio(norm_slack, norm_gain))
    if not (t > 0.0 and math.isfinite(t)):
        return None
    return t * frac


def _ratio(slack: float, gain: float) -> float:
    return math.inf if gain == 0.0 else slack / gain


def sample_feasible(cls: FeasibleClass, count: int, seed: int | np.random.SeedSequence = 0,
                    start: GridFunction | None = None) -> list[GridFunction]:
    """Up to `count` certified members of S around a feasible start element.

    The start element (default: the zero function) must itself pass the
    membership test, else InfeasibleProblemError.  Perturbation amplitudes
    are capped through the triangle inequality by the remaining misfit and
    norm slack, then the candidate is re-verified exactly before being
    accepted; the first returned member is the start element itself.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    base = start if start is not None else GridFunction.zeros(cls.n)
    chk = is_feasible(base, cls)
    if not chk.feasible:
        raise InfeasibleProblemError(
            "no feasible point found: start element has "
            f"misfit {chk.misfit} (delta {cls.delta}) and norm {chk.class_norm} "
            f"(bound {cls.bound})")
    if count == 0:
        return []
    members = [base]
    rng = np.random.default_rng(seed)
    slack = (cls.delta - chk.misfit, cls.bound - chk.class_norm)
    gains: dict[str, tuple[float, float]] = {}
    attempts = 0
    max_attempts = 30 * count + 100
    while len(members) < count and attempts < max_attempts:
        attempts += 1
        shape, key = _draw_shape(rng, cls.n)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        t = _scaled_step(cls, shape, key, slack, rng.uniform(0.2, 1.0), gains)
        if t is None:
            continue
        for _ in range(40):
            candidate = GridFunction(base.values + (sign * t) * shape)
            if is_feasible(candidate, cls).feasible:
                members.append(candidate)
                break
            t *= 0.5
    return members


def sup_error_estimate(reconstruction: GridFunction, cls: FeasibleClass,
                       ensemble: Sequence[GridFunction]) -> float:
    """max over the ensemble of sup|reconstruction - v|.

    A certified *lower* bound on the true worst-case error (the supremum
    runs over the whole infinite class); members are assumed certified.
    """
    if len(ensemble) == 0:
        raise ValueError("sup_error_estimate needs a nonempty ensemble")
    worst = 0.0
    for v in ensemble:
        if v.n != reconstruction.n:
            raise ValueError("grid mismatch between reconstruction and ensemble member")
        worst = max(worst, float(np.max(np.abs(reconstruction.values - v.values))))
    return worst


# ---------------------------------------------------------------------------
# diameter search


def _sine_candidates(cls: FeasibleClass) -> Iterator[tuple[GridFunction, GridFunction]]:
    if cls.kind != "sup-only":
        return
    zero = GridFunction.zeros(cls.n)
    for k in _sine_frequencies(cls.bound, cls.delta, cls.n)[0]:
        yield zero, _sine_profile(cls.bound, k, cls.n)


def _bump_candidates(cls: FeasibleClass) -> Iterator[tuple[GridFunction, GridFunction]]:
    if cls.kind != "holder":
        return
    room, p_want = _bump_fit(cls.bound, cls.delta, cls.n)
    p0 = min(max(1, p_want), room)
    zero = GridFunction.zeros(cls.n)
    seen = set()
    for j in range(room):
        for p in (p0 - j, p0 + j):
            if p < 1 or p > room or p in seen:
                continue
            seen.add(p)
            for shave in _SHAVE_LADDER:
                v2 = _snapped_bump(cls.n, p, cls.bound, cls.delta, shave)
                if is_feasible(v2, cls).feasible:
                    yield zero, v2
                    break


def _random_candidates(cls: FeasibleClass, seed, base: GridFunction
                       ) -> Iterator[tuple[GridFunction, GridFunction]]:
    chk = is_feasible(base, cls)
    if not chk.feasible:
        return
    rng = np.random.default_rng(seed)
    slack = (cls.delta - chk.misfit, cls.bound - chk.class_norm)
    gains: dict[str, tuple[float, float]] = {}
    while True:
        shape, key = _draw_shape(rng, cls.n)
        t = _scaled_step(cls, shape, key, slack, rng.uniform(0.2, 1.0), gains)
        if t is None:
            yield base, base
            continue
        yield (GridFunction(base.values + t * shape),
               GridFunction(base.values - t * shape))


def diameter_probe(cls: FeasibleClass, generators: Sequence[str] = ("sine", "bump", "random-search"),
                   budget: int = 32, seed: int = 0,
                   start: GridFunction | None = None) -> float:
    """Largest certified separation among feasible pairs within the budget.

    Candidate pairs are drawn round-robin from the requested generator
    streams; each candidate consumes one unit of budget whether or not it
    certifies, which makes the result monotone nondecreasing in the budget
    for a fixed seed.  Half the returned value lower-bounds the worst-case
    error of every reconstruction rule on this class.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    base = start if start is not None else GridFunction.zeros(cls.n)
    streams = []
    for name in generators:
        if name == "sine":
            streams.append(_sine_candidates(cls))
        elif name == "bump":
            streams.append(_bump_candidates(cls))
        elif name == "random-search":
            streams.append(_random_candidates(cls, seed, base))
        else:
            raise ValueError(f"unknown generator {name!r}")
    best = 0.0
    used = 0
    while used < budget and streams:
        exhausted = []
        for stream in streams:
            if used >= budget:
                break
            try:
                v1, v2 = next(stream)
            except StopIteration:
                exhausted.append(stream)
                continue
            used += 1
            if is_feasible(v1, cls).feasible and is_feasible(v2, cls).feasible:
                best = max(best, sup_norm(GridFunction(v1.values - v2.values)))
        for stream in exhausted:
            streams.remove(stream)
    return best


# ---------------------------------------------------------------------------
# serialization


#: the certificate lines of a pair file, in file order
_PAIR_KEYS = ("delta", "bound", "separation", "misfit1", "norm1", "misfit2", "norm2")


def write_pair_csv(pair: AdversarialPair, path: str | Path) -> None:
    """Pair export: certificate as `# key=value` comments, then x,v1,v2 rows."""
    meta = {"separation": pair.separation, **pair.certificate._asdict()}
    lines = [f"# {key}={format_float(meta[key])}" for key in _PAIR_KEYS] + ["x,v1,v2"]
    x = pair.v1.x
    for k in range(pair.v1.n):
        lines.append(",".join(format_float(val)
                              for val in (x[k], pair.v1.values[k], pair.v2.values[k])))
    Path(path).write_text("\n".join(lines) + "\n")


def read_pair_csv(path: str | Path) -> AdversarialPair:
    meta: dict[str, float] = {}
    rows = []
    header_seen = False
    for ln in Path(path).read_text().splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("#"):
            key, _, val = ln[1:].strip().partition("=")
            meta[key.strip()] = float(val)
        elif not header_seen:
            if ln.lower() != "x,v1,v2":
                raise ValueError(f"{path}: expected header 'x,v1,v2'")
            header_seen = True
        else:
            rows.append([float(c) for c in ln.split(",")])
    data = np.asarray(rows)
    if not header_seen or data.shape[0] < 2 or data.shape[1] != 3:
        raise ValueError(f"{path}: malformed pair file")
    for key in _PAIR_KEYS:
        if key not in meta:
            raise ValueError(f"{path}: certificate line '# {key}=...' missing")
    cert = PairCertificate(*(meta[key] for key in PairCertificate._fields))
    return AdversarialPair(GridFunction(data[:, 1]), GridFunction(data[:, 2]),
                           meta["separation"], cert)
