"""Problem descriptions: the forward operator and the constraint functional.

The built-in operator is the cumulative trapezoid integration map of the
grid module.  Note that as an n-by-n matrix it is *not* injective: the
node-alternating vector (1, -1, 1, ...) integrates to exactly zero because
every trapezoid increment averages two neighbouring samples.  The underlying
continuum operator is injective; the alternating direction is a discrete
artifact, and it matters for worst-case probes (see the adversary and
modulus modules).  Callers that need an injective grid operator can supply
an explicit matrix, e.g. `rectangle_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, _holder_norms, _integrate_rows, holder_norm, sup_norm

__all__ = [
    "CompactumSpec",
    "ProblemSpec",
    "integration_matrix",
    "rectangle_matrix",
]

PHI_KINDS = ("sup-norm", "holder-norm")


def integration_matrix(n: int) -> np.ndarray:
    """Dense matrix of the cumulative trapezoid integral on n nodes.

    Row k carries weights dx * (1/2, 1, ..., 1, 1/2) over nodes 0..k; row 0
    is zero.  Equals `grid.integrate` in exact arithmetic, not bit for bit.
    Each call builds a fresh array, the exact reference of the forward map
    `ProblemSpec.apply_rows`.
    """
    if n < 2:
        raise ValueError("integration matrix needs at least 2 nodes")
    dx = 1.0 / (n - 1)
    a = np.tri(n)
    a *= dx
    idx = np.arange(n)
    a[idx, idx] = 0.5 * dx
    a[:, 0] = 0.5 * dx
    a[0, :] = 0.0
    return a


def rectangle_matrix(n: int) -> np.ndarray:
    """Right-rectangle cumulative sum: lower triangular with dx diagonal.

    Unlike the trapezoid map this matrix is injective, which makes it the
    operator of choice for modulus-decay tests.
    """
    if n < 2:
        raise ValueError("rectangle matrix needs at least 2 nodes")
    dx = 1.0 / (n - 1)
    return np.tril(np.full((n, n), dx), 0)


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
        if self.phi == "sup-norm":
            return sup_norm(f)
        return holder_norm(f, self.a)

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
    """Forward operator: an explicit square matrix, or None for the built-in
    trapezoid integration map.

    The built-in integration matrix is not injective on the grid
    (alternating kernel, see module docstring); `rectangle_matrix` is.
    """

    operator: np.ndarray | None = None

    def __post_init__(self):
        if self.operator is not None:
            mat = np.asarray(self.operator, dtype=float)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 2:
                raise ValueError("explicit operator must be a square matrix, n >= 2")
            object.__setattr__(self, "operator", mat)

    def matrix(self, n: int) -> np.ndarray:
        if self.operator is None:
            return integration_matrix(n)
        if self.operator.shape[0] != n:
            raise ValueError(
                f"operator matrix is {self.operator.shape[0]}x{self.operator.shape[0]}, "
                f"but the grid has {n} nodes")
        return self.operator

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """A applied to each row of a 2-D array, the one forward map.

        The built-in map runs the trapezoid recurrence along the rows; an
        explicit matrix takes one stacked product of the rows as column
        vectors, which gives every row the bits of its single matrix-vector
        product `mat @ row`.
        """
        if self.operator is None:
            return _integrate_rows(rows)
        mat = self.matrix(rows.shape[1])
        return (mat @ rows[:, :, None])[:, :, 0]

    def apply(self, f: GridFunction) -> GridFunction:
        """Af: the one-row case of `apply_rows`."""
        return GridFunction(self.apply_rows(f.values[None])[0])
