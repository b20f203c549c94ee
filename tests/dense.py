"""Dense n-by-n matrices of the forward rules: test oracles only.

`ProblemSpec` runs each rule as a recurrence along the rows and never forms
these matrices.  A matrix product sums in another order than the
recurrence, so the two agree to rounding, not bit for bit: at node k, each
lies within k eps of the exact sum times the partial sum of |dx v| up to
node k, so they lie within 2 n eps times that partial sum of each other.
"""

import numpy as np


def integration_matrix(n: int) -> np.ndarray:
    """Dense matrix of the cumulative trapezoid rule on n nodes.

    Row k carries weights dx * (1/2, 1, ..., 1, 1/2) over nodes 0..k; row 0
    is zero.
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
    """Dense matrix of the right-rectangle rule: lower triangular, all dx."""
    if n < 2:
        raise ValueError("rectangle matrix needs at least 2 nodes")
    dx = 1.0 / (n - 1)
    return np.tril(np.full((n, n), dx), 0)


def rule_matrix(prob, n: int) -> np.ndarray:
    """The dense matrix of `prob`'s rule on n nodes."""
    return {"trapezoid": integration_matrix, "rectangle": rectangle_matrix}[prob.rule](n)


def assert_matches_matrix(image: np.ndarray, mat: np.ndarray, rows: np.ndarray) -> None:
    """Each row of `image` is `mat @ row` to 2 n eps times the partial sums
    of |dx row|: the rounding of two summation orders."""
    n = rows.shape[1]
    scale = np.cumsum(np.abs(rows), axis=1) / (n - 1)
    assert np.all(np.abs(image - rows @ mat.T) <= 2 * n * np.finfo(float).eps * scale)


class MatrixMap:
    """A forward map given by an arbitrary square matrix, for callers that
    read only `apply_rows` (`modulus_bruteforce`): one stacked product,
    which gives each row the bits of its own `mat @ row`."""

    def __init__(self, mat: np.ndarray):
        self.mat = np.asarray(mat, dtype=float)

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        return (self.mat @ rows[:, :, None])[:, :, 0]
