"""Problem descriptions: the forward operator and the constraint functional.

The built-in operator is the cumulative trapezoid integration map of the
grid module.  Note that on the grid it is *not* injective: the
node-alternating vector (1, -1, 1, ...) integrates to exactly zero because
every trapezoid increment averages two neighbouring samples.  The underlying
continuum operator is injective; the alternating direction is a discrete
artifact, and it matters for worst-case probes (see the adversary and
modulus modules).  Callers that need an injective grid operator choose the
right-rectangle rule, `ProblemSpec("rectangle")`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, _holder_norms, _integrate_rows
from .grid import holder_norm  # noqa: F401 (bench/selftest.py checks the tracer rebinds it here)

__all__ = ["CompactumSpec", "ProblemSpec"]

PHI_KINDS = ("sup-norm", "holder-norm")
#: the cumulative rules of `ProblemSpec`
RULES = ("trapezoid", "rectangle")


@dataclass(frozen=True, eq=False)
class CompactumSpec:
    """Norm-like functional phi plus a bound c, defining {v : phi(v) <= c}.

    On the finite grid the sublevel set is closed and bounded, hence
    compact, for either functional choice.
    """

    phi: str
    c: float
    a: float | None = None

    def __post_init__(self):
        if self.phi not in PHI_KINDS:
            raise ValueError(f"phi must be one of {PHI_KINDS}, got {self.phi!r}")
        if not self.c > 0.0:
            raise ValueError(f"compactum bound c must be positive, got {self.c}")
        if self.phi == "holder-norm":
            if self.a is None or not (0.0 < self.a <= 2.0):
                raise ValueError("holder-norm phi needs an exponent a in (0, 2]")

    def phi_value(self, f: GridFunction) -> float:
        """phi(f): `phi_rows` of one row, after `require_nodes`."""
        self.require_nodes(f.n)
        return float(self.phi_rows(f.values))

    def phi_rows(self, rows: np.ndarray) -> np.ndarray:
        """phi of one 1-D row, or of each row of a 2-D array: the one
        row-wise phi.

        On rows of at least 3 nodes, where `phi_value` is defined, row k
        equals `phi_value(GridFunction(rows[k]))` bit for bit: maxima are
        exact, and the Holder kernel gives each row the quotients and maximum
        it gives that row alone (see `grid._pair_bands`).  Unlike `phi_value`
        it checks neither the node count (see `require_nodes`) nor that the
        values are finite.
        """
        if self.phi == "sup-norm":
            return np.max(np.abs(rows), axis=-1)
        return _holder_norms(rows, self.a)

    def require_nodes(self, n: int) -> None:
        """Reject a Holder class on fewer than 3 nodes, where `holder_norm`
        is undefined."""
        if self.phi == "holder-norm" and n < 3:
            raise ValueError("holder_norm needs at least 3 nodes")


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Forward map A: the cumulative sum of a grid function by one of RULES.

    "trapezoid" (the default) is the recurrence of `grid.integrate`, not
    injective on the grid (alternating kernel, see module docstring).
    "rectangle" is the right-rectangle sum y_k = dx * sum_{j<=k} v_j, which
    is.
    """

    rule: str = "trapezoid"

    def __post_init__(self):
        if not (isinstance(self.rule, str) and self.rule in RULES):
            raise ValueError(f"forward rule must be one of {RULES}, got {self.rule!r}")

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """A applied to each row of a 2-D array, the one forward map.

        Either rule runs its recurrence along the rows, so each row takes
        the floats it takes on its own and no n-by-n array is formed.
        """
        if self.rule == "trapezoid":
            return _integrate_rows(rows)
        return np.cumsum(rows * (1.0 / (rows.shape[1] - 1)), axis=1)

    def apply(self, f: GridFunction) -> GridFunction:
        """Af: the one-row case of `apply_rows`."""
        return GridFunction(self.apply_rows(f.values[None])[0])
