"""Certified finite-difference differentiation of noisy antiderivative data.

Given samples of g(x) = integral of u from 0 to x, observed only within a
sup-norm radius delta, the reconstruction is a symmetric difference
quotient with step h in the interior and one-sided quotients over 2h within
h of each endpoint, so every node amplifies the noise by delta/h.  The step
balances that against the smoothness penalty m * h**(a-1) of the a-priori
Holder class, and

    eta = delta/h + m * h**(a-1)

certifies the worst-case sup error over every class member consistent with
the data, not just the one true solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarseError
from .grid import GridFunction, NoisyData
from .operators import CompactumSpec

__all__ = [
    "RegularizerOutput",
    "step_size",
    "differentiate",
    "error_bound",
    "regularize",
]

#: longest admissible step; keeps both one-sided zones and an interior zone
MAX_STEP = 0.25


@dataclass(frozen=True, eq=False)
class RegularizerOutput:
    """Reconstruction together with the step used and its certified bound."""

    u_delta: GridFunction
    h_used: float
    eta: float


def step_size(delta: float, spec: CompactumSpec) -> float:
    """Step choice h = (delta / ((a-1) m))**(1/a), capped at 1/4, for the
    Holder class `spec` = {holder_norm_a <= m}.

    The unclipped value is the exact minimizer of delta/h + m*h**(a-1) over
    h > 0.  Defined only for a > 1: when a <= 1 the bound's term
    m*h**(a-1) does not fall with h, so this rule has no step to choose.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if spec.phi != "holder-norm" or not spec.a > 1.0:
        raise ValueError(f"step rule requires a > 1, got a={spec.a}")
    return min((delta / ((spec.a - 1.0) * spec.c)) ** (1.0 / spec.a), MAX_STEP)


def differentiate(data: NoisyData, h: float) -> GridFunction:
    """Difference-quotient derivative of the samples with step h.

    h must be a positive integer multiple of the grid spacing, at most 1/3.
    Interior nodes (h <= x <= 1-h) get the symmetric quotient over 2h; the
    first and last h-zones get forward and backward quotients over 2h,
    (g(x+2h) - g(x))/(2h) and its mirror image.  Over 2h the noise term is
    delta/h, as in the interior, and the truncation term at most m*h.
    The map is linear in the data.
    """
    g = data.g_delta
    n = g.n
    m_raw = h * (n - 1)
    m = int(round(m_raw))
    if abs(m_raw - m) > 1e-8 * max(1.0, abs(m_raw)):
        raise ValueError(
            f"step h={h} is not an integer multiple of the grid spacing {g.spacing}")
    if m < 1:
        raise ValueError(f"step h={h} lies below the grid spacing {g.spacing}")
    if 3 * m > n - 1:
        raise ValueError(f"step h={h} exceeds a third of the interval")
    return GridFunction(_quotients(g.values, m, h))


def _quotients(vals: np.ndarray, m: int, h: float) -> np.ndarray:
    """The quotients of `differentiate` at step h = m grid spacings, as a new
    row; unchecked: 1 <= 3m <= n - 1 is the caller's."""
    n = vals.size
    out = np.empty(n)
    out[m:n - m] = (vals[2 * m:] - vals[:n - 2 * m]) / (2.0 * h)
    out[:m] = (vals[2 * m:3 * m] - vals[:m]) / (2.0 * h)
    out[n - m:] = (vals[n - m:] - vals[n - 3 * m:n - 2 * m]) / (2.0 * h)
    return out


def error_bound(delta: float, spec: CompactumSpec, h: float) -> float:
    """Certified worst-case sup error eta = delta/h + m * h**(a-1) over the
    Holder class `spec` = {holder_norm_a <= m}."""
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not h > 0.0:
        raise ValueError(f"step h must be positive, got {h}")
    if spec.phi != "holder-norm" or not spec.a > 1.0:
        raise ValueError(f"error bound requires a > 1, got a={spec.a}")
    return delta / h + spec.c * h ** (spec.a - 1.0)


def regularize(data: NoisyData, spec: CompactumSpec) -> RegularizerOutput:
    """Full reconstruction: step rule, snapped to the grid, plus certificate.

    The ideal step is snapped to the nearest positive multiple of the grid
    spacing (interpolating the data off-grid would add unanalyzed error),
    and the certified bound eta is evaluated at the snapped step.  A grid
    spacing above the longest step 1/4 is refused.
    """
    g = data.g_delta
    n = g.n
    dx = g.spacing
    h_ideal = step_size(data.delta, spec)
    if dx > MAX_STEP:
        raise GridTooCoarseError(f"grid spacing {dx} exceeds the maximal step {MAX_STEP}")
    m = max(1, int(round(h_ideal / dx)))
    m = min(m, (n - 1) // 3)
    h = m / (n - 1)
    u = differentiate(data, h)
    return RegularizerOutput(u, h, error_bound(data.delta, spec, h))

