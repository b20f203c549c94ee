"""Sampled functions on the uniform unit-interval grid.

Everything downstream works with real values attached to the n equispaced
nodes x_k = k/(n-1) of [0, 1], read as the piecewise-linear interpolant
through those samples.  This module owns the shared material: the container
type, sup and Holder norms of the samples, bounded noise injection, and the
CSV serialization used by the command-line tools.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "GridFunction",
    "HolderParams",
    "NoisyData",
    "NOISE_MODELS",
    "sup_norm",
    "holder_norm",
    "integrate",
    "add_noise",
    "format_float",
    "write_grid_csv",
    "read_grid_csv",
]

NOISE_MODELS = ("uniform-iid", "alternating-worst-case")

_NOISE_ALIASES = {
    "uniform": "uniform-iid",
    "uniform-iid": "uniform-iid",
    "alternating": "alternating-worst-case",
    "alternating-worst-case": "alternating-worst-case",
}


def format_float(value: float) -> str:
    """Serialize a float with 17 significant digits (lossless round-trip)."""
    return "%.17g" % (float(value),)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real values sampled on the uniform grid over [0, 1].

    Node k sits at x_k = k/(n-1) exactly; the spacing is 1/(n-1).  Values
    are frozen after construction, so instances can be shared freely across
    threads.
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
    def from_callable(cls, func: Callable[[np.ndarray], np.ndarray], n: int) -> "GridFunction":
        x = np.linspace(0.0, 1.0, n)
        return cls(np.asarray(func(x), dtype=float))

    @classmethod
    def zeros(cls, n: int) -> "GridFunction":
        return cls(np.zeros(n))


@dataclass(frozen=True)
class HolderParams:
    """A-priori smoothness class: exponent a in (0, 2] and norm budget m > 0."""

    a: float
    m: float

    def __post_init__(self):
        if not (0.0 < self.a <= 2.0):
            raise ValueError(f"Holder exponent a must lie in (0, 2], got {self.a}")
        if not self.m > 0.0:
            raise ValueError(f"norm budget m must be positive, got {self.m}")


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


def _pair_quotients(values: np.ndarray, positions: np.ndarray, power: float):
    """The Holder-quotient kernel: |v_i - v_j| / |x_i - x_j|**power for every
    node pair i, j along the last axis of `values`, exhaustive O(n^2).

    Yields (i0, block) with block[..., r, j] the quotient of pair (i0 + r, j);
    the diagonal reads 0.  Row blocks keep peak memory bounded on large grids.
    """
    n = values.shape[-1]
    block = max(1, 2_000_000 // values.size)
    for start in range(0, n, block):
        stop = min(start + block, n)
        dv = np.abs(values[..., start:stop, None] - values[..., None, :])
        dx = np.abs(positions[start:stop, None] - positions[None, :])
        yield start, dv / np.where(dx == 0.0, np.inf, dx) ** power


def _max_pair_quotient(values: np.ndarray, positions: np.ndarray, power: float) -> np.ndarray:
    """Largest pair quotient of each row (last axis) of `values`."""
    best = np.zeros(values.shape[:-1])
    for _, quot in _pair_quotients(values, positions, power):
        np.maximum(best, quot.max(axis=(-2, -1)), out=best)
    return best


def _first_max_pair(values: np.ndarray, positions: np.ndarray,
                    power: float) -> tuple[float, int, int]:
    """Largest pair quotient of a 1-D array with its row-major first maximizer (i, j)."""
    best, i, j = 0.0, 0, 0
    for start, quot in _pair_quotients(values, positions, power):
        r, col = np.unravel_index(np.argmax(quot), quot.shape)
        if quot[r, col] > best:
            best, i, j = float(quot[r, col]), start + int(r), int(col)
    return best, i, j


def _holder_norms(values: np.ndarray, a: float) -> np.ndarray:
    """Discrete Holder norm (see `holder_norm`) of each row of `values`."""
    x = np.linspace(0.0, 1.0, values.shape[-1])
    sup = np.max(np.abs(values), axis=-1)
    if a <= 1.0:
        return sup + _max_pair_quotient(values, x, a)
    slopes = np.diff(values, axis=-1) / (x[1] - x[0])
    return (sup + np.max(np.abs(slopes), axis=-1)
            + _max_pair_quotient(slopes, x[:-1], a - 1.0))


def holder_norm(f: GridFunction, a: float) -> float:
    """Discrete Holder norm of the samples.

    For a <= 1 this is the sup norm plus the order-a difference-quotient
    seminorm over all node pairs.  For 1 < a <= 2 the forward slopes
    s_k = (f_{k+1} - f_k)/spacing stand in for the derivative (located at
    x_k), and the norm is sup|f| + sup|s| plus the order-(a-1) quotient
    seminorm of the slopes.
    """
    if not (0.0 < a <= 2.0):
        raise ValueError(f"Holder exponent a must lie in (0, 2], got {a}")
    if f.n < 3:
        raise ValueError("holder_norm needs at least 3 nodes")
    return float(_holder_norms(f.values, a))


def integrate(v: GridFunction) -> GridFunction:
    """Cumulative trapezoid integral from 0 to each node.

    Exact for the piecewise-linear reading of the samples, so this is the
    model's integration operator with no internal quadrature error.
    """
    vals = v.values
    increments = (vals[:-1] + vals[1:]) * (0.5 * v.spacing)
    out = np.empty(v.n)
    out[0] = 0.0
    np.cumsum(increments, out=out[1:])
    return GridFunction(out)


def add_noise(g: GridFunction, delta: float, model: str = "uniform-iid",
              seed: int | np.random.SeedSequence = 0) -> NoisyData:
    """Perturb exact data within the closed sup-norm ball of radius delta.

    "uniform-iid" draws each node perturbation independently from
    [-delta, delta] (PCG64 generator, reproducible from the seed).
    "alternating-worst-case" uses the deterministic pattern (-1)^k * delta,
    the sign flip between neighbouring nodes that drives one-sided
    difference quotients to their extremes.
    """
    if not delta > 0.0:
        raise ValueError(f"noise level delta must be positive, got {delta}")
    kind = _NOISE_ALIASES.get(model)
    if kind is None:
        raise ValueError(f"unknown noise model {model!r}; choose from {NOISE_MODELS}")
    if kind == "uniform-iid":
        rng = np.random.default_rng(seed)
        pert = rng.uniform(-delta, delta, g.n)
    else:
        pert = np.where(np.arange(g.n) % 2 == 0, delta, -delta)
    noisy = g.values + pert
    # adding the perturbation rounds, which can leave the *stored* values one
    # ulp outside the ball; nudge those nodes back so the bound holds exactly
    over = np.abs(noisy - g.values) > delta
    while np.any(over):
        noisy[over] = np.nextafter(noisy[over], g.values[over])
        over = np.abs(noisy - g.values) > delta
    return NoisyData(GridFunction(noisy), delta)


def _write_table(path: str | Path, header: str, rows,
                 meta: dict[str, float] | None = None) -> None:
    """Write a header line, rows of full-precision floats, then `# key=value` lines."""
    lines = [header]
    for row in rows:
        lines.append(",".join(format_float(v) for v in row))
    for key, value in (meta or {}).items():
        lines.append(f"# {key}={format_float(value)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_grid_csv(f: GridFunction, path: str | Path) -> None:
    """Write `x,value` rows at full double precision."""
    _write_table(path, "x,value", zip(f.x, f.values))


def read_grid_csv(path: str | Path) -> GridFunction:
    """Read a `x,value` CSV back into a GridFunction, checking the grid."""
    rows = [ln for ln in Path(path).read_text().splitlines()
            if ln.strip() and not ln.startswith("#")]
    if not rows or rows[0].strip().lower() != "x,value":
        raise ValueError(f"{path}: expected header 'x,value'")
    data = np.array([[float(c) for c in ln.split(",")] for ln in rows[1:]])
    if data.ndim != 2 or data.shape[0] < 2 or data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns and at least two rows")
    n = data.shape[0]
    if np.max(np.abs(data[:, 0] - np.linspace(0.0, 1.0, n))) > 1e-12:
        raise ValueError(f"{path}: x column is not the uniform grid on [0, 1]")
    return GridFunction(data[:, 1])
