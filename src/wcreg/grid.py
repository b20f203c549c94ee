"""Sampled functions on the uniform unit-interval grid.

Everything downstream works with real values attached to the n equispaced
nodes of [0, 1], read as the piecewise-linear interpolant through those
samples.  The nodes are numpy's `linspace(0, 1, n)`: node k is
fl(k * fl(1/(n-1))) and the last node is exactly 1, which is not always the
correctly rounded k/(n-1) (at n = 6, node 3 is 0.6000000000000001).  This
module owns the shared material: the container type, sup and Holder norms
of the samples, bounded noise injection, and the CSV serialization used by
the command-line tools, which writes a table `CSV_BLOCK` rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "GridFunction",
    "NoisyData",
    "NOISE_MODELS",
    "sup_norm",
    "holder_norm",
    "integrate",
    "noise_pattern",
    "add_noise",
    "format_float",
    "write_grid_csv",
    "read_grid_csv",
    "read_csv_table",
]

NOISE_MODELS = ("uniform-iid", "alternating-worst-case")

_NOISE_ALIASES = {
    "uniform": "uniform-iid",
    "uniform-iid": "uniform-iid",
    "alternating": "alternating-worst-case",
    "alternating-worst-case": "alternating-worst-case",
    "none": "none",
}


def format_float(value: float) -> str:
    """Serialize a float with 17 significant digits (lossless round-trip)."""
    return "%.17g" % (float(value),)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real values sampled on the uniform grid over [0, 1].

    Node k sits at `linspace(0, 1, n)[k]`, fl(k * fl(1/(n-1))), and the
    last node at 1; the spacing is 1/(n-1).  Values are frozen after
    construction, so instances can be shared freely across threads.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("GridFunction needs a 1-D array with at least 2 nodes")
        if not np.all(np.isfinite(vals)):
            raise ValueError("GridFunction values must all be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def spacing(self) -> float:
        return 1.0 / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n)

    @classmethod
    def zeros(cls, n: int) -> "GridFunction":
        return cls(np.zeros(n))


@dataclass(frozen=True, eq=False)
class NoisyData:
    """Observed samples g_delta together with their sup-norm noise radius."""

    g_delta: GridFunction
    delta: float

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError(f"noise level delta must be positive, got {self.delta}")


def sup_norm(f: GridFunction) -> float:
    """Maximum absolute sample value (discrete sup norm on [0, 1])."""
    return float(np.max(np.abs(f.values)))


def _pair_bands(values: np.ndarray, positions: np.ndarray, power: float,
                best: np.ndarray):
    """The Holder-quotient kernel: |v_j - v_i| / (x_j - x_i)**power over the
    node pairs i < j, scanned by offset band d = j - i.

    `values` is node-major, a transposed view or a copy: axis 0 runs over
    the n nodes at the nondecreasing `positions`, any further axes over
    independent rows.  Its layout changes no bit, as every operation is
    elementwise or a maximum.  Yields the quotients q of each band
    d = 1, 2, ..., with q[k] that of pair (k, k + d).  The caller keeps
    `best`, shaped like q[0], at its running row maxima.

    Pruning: before band d the scan stops once every row has span = 0 or
    span / min_k((x_{k+d} - x_k)**power) * (1 + 1e-12) < best, with span the
    row's max - min.  Rounded subtraction and division are monotone, so no
    pair at offset >= d has a larger difference or a smaller distance, and
    the 1e-12 margin covers the rounding of pow: every pair left unscanned is
    strictly below `best`.  At powers other than 1, row maxima thus equal
    those of the exhaustive scan bit for bit.
    Callers start `best` at 0, which no row with span > 0 falls below, so
    before band 1 only the test for rows that are all dead is made: a scan
    of such rows yields no band.

    At power 1 only band 1 is scanned.  A single node has no band at any
    power, so its seminorm is 0.  By the mediant inequality the exact
    quotient of a pair i < j is a weighted mean of the exact adjacent
    quotients over [i, j), so the exact maximum over all pairs is an
    adjacent one.  Each adjacent quotient takes two roundings, subtraction
    and division (the gaps of linspace nodes are formed exactly, by
    Sterbenz's lemma), so away from underflow the result lies within
    2u + u^2 relative, u = 2^-53, of the exact maximum on either side:
    within 2 ulps.
    """
    n = values.shape[0]
    span = values.max(axis=0) - values.min(axis=0)
    dead = span == 0.0
    if dead.all():
        return
    tail = (1,) * (values.ndim - 1)
    for d in range(1, min(2, n) if power == 1 else n):
        scale = (positions[d:] - positions[:-d]) ** power
        if d > 1 and (dead | (span / scale.min() * (1.0 + 1e-12) < best)).all():
            return
        yield np.abs(values[d:] - values[:-d]) / scale.reshape(scale.shape + tail)


def _max_pair_quotient(values: np.ndarray, positions: np.ndarray, power: float) -> np.ndarray:
    """Largest pair quotient of each row of node-major `values`, a view or a
    copy (see `_pair_bands`)."""
    best = np.zeros(values.shape[1:])
    for quot in _pair_bands(values, positions, power, best):
        np.maximum(best, quot.max(axis=0), out=best)
    return best


@lru_cache(maxsize=8)
def _nodes(n: int) -> np.ndarray:
    """The n grid nodes `linspace(0, 1, n)`, read-only and cached per n."""
    x = np.linspace(0.0, 1.0, n)
    x.flags.writeable = False
    return x


def _holder_norms(values: np.ndarray, a: float) -> np.ndarray:
    """Discrete Holder norm (see `holder_norm`) of each row of `values`, a
    1-D row or a 2-D array of rows."""
    # node-major: a view, whose reductions run along each row's nodes, or a
    # copy when rows outnumber nodes, so that numpy's inner loop takes the
    # longer axis
    vals = values.T
    if vals.ndim == 2 and vals.shape[1] > vals.shape[0]:
        vals = np.ascontiguousarray(vals)
    x = _nodes(vals.shape[0])
    sup = np.max(np.abs(vals), axis=0)
    if a <= 1.0:
        return sup + _max_pair_quotient(vals, x, a)
    slopes = (vals[1:] - vals[:-1]) / (x[1] - x[0])
    return (sup + np.max(np.abs(slopes), axis=0)
            + _max_pair_quotient(slopes, x[:-1], a - 1.0))


def holder_norm(f: GridFunction, a: float) -> float:
    """Discrete Holder norm of the samples.

    For a <= 1 this is the sup norm plus the order-a difference-quotient
    seminorm over all node pairs.  For 1 < a <= 2 the forward slopes
    s_k = (f_{k+1} - f_k)/spacing stand in for the derivative (located at
    x_k), and the norm is sup|f| + sup|s| plus the order-(a-1) quotient
    seminorm of the slopes.

    Both classes of the paper, a = 1 (values) and a = 2 (slopes), take
    quotients at power 1, where the seminorm is the largest adjacent
    quotient, within 2 ulps of the exact maximum over all pairs (see
    `_pair_bands`).
    """
    if not (0.0 < a <= 2.0):
        raise ValueError(f"Holder exponent a must lie in (0, 2], got {a}")
    if f.n < 3:
        raise ValueError("holder_norm needs at least 3 nodes")
    return float(_holder_norms(f.values, a))


def _integrate_rows(rows: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral of each row of a 2-D array, by the
    recurrence y_0 = 0, y_{k+1} = y_k + dx/2 * (v_k + v_{k+1}) along the row.

    Each row takes the same floating-point operations in the same order
    (`cumsum` accumulates sequentially), so row k equals
    `integrate(GridFunction(rows[k]))` bit for bit.
    """
    increments = (rows[:, :-1] + rows[:, 1:]) * (0.5 * (1.0 / (rows.shape[1] - 1)))
    out = np.empty(rows.shape)
    out[:, 0] = 0.0
    np.cumsum(increments, axis=1, out=out[:, 1:])
    return out


def integrate(v: GridFunction) -> GridFunction:
    """Cumulative trapezoid integral from 0 to each node: the one-row case
    of `_integrate_rows`.

    Exact for the piecewise-linear reading of the samples, so this is the
    model's integration operator with no internal quadrature error.
    """
    return GridFunction(_integrate_rows(v.values[None])[0])


def noise_pattern(model: str, n: int, seed: int | np.random.SeedSequence = 0,
                  scale: float = 1.0) -> np.ndarray:
    """Perturbation of the noise model on n nodes, entries in [-scale, scale].

    "uniform-iid" (or "uniform") draws each node independently and
    uniformly (PCG64 generator, reproducible from the seed).
    "alternating-worst-case" (or "alternating") is the deterministic
    pattern (-1)^k * scale, the sign flip between neighbouring nodes that
    drives one-sided difference quotients to their extremes.  "none" is zero.
    """
    kind = _NOISE_ALIASES.get(model)
    if kind is None:
        raise ValueError(f"unknown noise model {model!r}; choose from "
                         f"{NOISE_MODELS + ('none',)}")
    if kind == "uniform-iid":
        return np.random.default_rng(seed).uniform(-scale, scale, n)
    if kind == "alternating-worst-case":
        return np.where(np.arange(n) % 2 == 0, scale, -scale)
    return np.zeros(n)


def add_noise(g: GridFunction, delta: float, model: str = "uniform-iid",
              seed: int | np.random.SeedSequence = 0) -> NoisyData:
    """Perturb exact data within the closed sup-norm ball of radius delta
    by the `noise_pattern` of `model` at scale delta."""
    if not delta > 0.0:
        raise ValueError(f"noise level delta must be positive, got {delta}")
    pert = noise_pattern(model, g.n, seed, delta)
    noisy = g.values + pert
    # adding the perturbation rounds, which can leave the *stored* values one
    # ulp outside the ball; nudge those nodes back so the bound holds exactly
    over = np.abs(noisy - g.values) > delta
    while np.any(over):
        noisy[over] = np.nextafter(noisy[over], g.values[over])
        over = np.abs(noisy - g.values) > delta
    return NoisyData(GridFunction(noisy), delta)


#: rows that a CSV export formats and writes at a time
CSV_BLOCK = 1024


def _csv_rows(rows) -> str:
    """CSV lines of a float64 table, each value as `format_float` writes it:
    one `%` on a repeated line template, and '' for zero rows."""
    table = np.array(rows, dtype=np.float64)
    line = ",".join(["%.17g"] * table.shape[-1]) + "\n"
    return line * len(table) % tuple(table.ravel().tolist())


def _write_table(path: str | Path, header: str, rows,
                 meta: dict[str, float] | None = None, lead: str = "") -> None:
    """Write the `lead` text, a header line, rows of full-precision floats,
    then `# key=value` lines.  The rows become one float64 array before the
    file is opened, so a bad table leaves no file, and are written
    `CSV_BLOCK` at a time, so the text held is one block's."""
    table = np.asarray(rows, dtype=np.float64)
    tail = "".join(f"# {key}={format_float(value)}\n" for key, value in (meta or {}).items())
    with open(path, "w") as fh:
        fh.write(lead + header + "\n")
        for start in range(0, len(table), CSV_BLOCK):
            fh.write(_csv_rows(table[start:start + CSV_BLOCK]))
        fh.write(tail)


def write_grid_csv(f: GridFunction, path: str | Path) -> None:
    """Write `x,value` rows at full double precision."""
    _write_table(path, "x,value", np.column_stack((f.x, f.values)))


def _scan_table(path: str | Path) -> tuple[list[str], list[tuple[int, str]], dict[str, float]]:
    """Header cells, numbered data lines and `# key=value` metadata of a CSV file.

    The rules of every CSV reader: blank lines are skipped.  A line starting
    with `#` is a comment; when it reads `key=value` with a float value it
    is a metadata entry, otherwise it is ignored.  The first other line is
    the header, its cells stripped of spaces and lower-cased; every later
    line is a data line.
    """
    header: list[str] = []
    lines: list[tuple[int, str]] = []
    meta: dict[str, float] = {}
    for number, ln in enumerate(Path(path).read_text().splitlines(), start=1):
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("#"):
            key, _, value = ln[1:].partition("=")
            try:
                meta[key.strip()] = float(value)
            except ValueError:
                pass  # a plain comment: no `=`, or no number after it
        elif not header:
            header = [c.strip().lower() for c in ln.split(",")]
        else:
            lines.append((number, ln))
    return header, lines, meta


def _parse_rows(path: str | Path, lines: list[tuple[int, str]],
                header: list[str]) -> list[list[float]]:
    """Float cells of the numbered data lines of `_scan_table`.  The first
    line must have as many cells as the `header`, every later line as many
    as the first, and every cell must be a float; the error for the first
    line that breaks a rule names the file and the line."""
    rows: list[list[float]] = []
    for number, ln in lines:
        cells = ln.split(",")
        if rows and len(cells) != len(rows[0]):
            raise ValueError(f"{path}: line {number} has {len(cells)} cells, "
                             f"line {lines[0][0]} has {len(rows[0])}")
        if not rows and len(cells) != len(header):
            raise ValueError(f"{path}: line {number} has {len(cells)} cells, "
                             f"the header has {len(header)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from None
    return rows


def read_csv_table(path: str | Path) -> tuple[list[str], list[list[float]], dict[str, float]]:
    """Header, float rows and metadata of any emitted table (see `_scan_table`
    and `_parse_rows`); the rows must have as many cells as the header."""
    header, lines, meta = _scan_table(path)
    return header, _parse_rows(path, lines, header), meta


def _read_grid_table(path: str | Path, columns: str) -> tuple[np.ndarray, dict[str, float]]:
    """Rows and metadata of a grid file with header `columns`, at least two
    rows as wide as the header (see `_parse_rows`) and the uniform grid on
    [0, 1] as its x column."""
    header, lines, meta = _scan_table(path)
    if header != columns.split(","):
        raise ValueError(f"{path}: expected header '{columns}'")
    rows = _parse_rows(path, lines, header)
    if len(rows) < 2:
        count = {2: "two", 3: "three"}[len(header)]
        raise ValueError(f"{path}: expected {count} columns and at least two rows")
    data = np.array(rows)
    if np.max(np.abs(data[:, 0] - np.linspace(0.0, 1.0, data.shape[0]))) > 1e-12:
        raise ValueError(f"{path}: x column is not the uniform grid on [0, 1]")
    return data, meta


def read_grid_csv(path: str | Path) -> GridFunction:
    """Read a `x,value` CSV back into a GridFunction, checking the grid."""
    return GridFunction(_read_grid_table(path, "x,value")[0][:, 1])
