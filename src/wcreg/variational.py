"""Constrained variational reconstruction on a compactum.

Minimizes F(v) = sup|Av - g_delta| + delta * phi(v) over the feasible set
{v : sup|Av - g_delta| <= delta, phi(v) <= c}.  Both terms are convex and
piecewise linear on the grid, so the solver is a projected subgradient
descent with best-iterate tracking.  The output is feasible; whether it is
a near-minimizer is checked after the fact against

    F(v_delta) <= 2 * (1 + phi(u)) * delta

whenever the true coefficient u is known (any point below that threshold is
an acceptable near-minimizer: the infimum itself is at most
(1 + phi(u)) * delta because u is feasible).  The descent does not always
reach it; the `variational` command warns for each row that misses it.
`convergence_study` sweeps the
noise level and records how the reconstruction error and an ensemble
worst-case estimate shrink together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .adversary import (_SHAVE_LADDER, FeasibleClass, is_feasible, sample_feasible,
                        sup_error_estimate)
from .derivative import differentiate
from .errors import InfeasibleProblemError
from .grid import GridFunction, NoisyData, _first_max_pair, _nodes, noise_pattern
from .operators import CompactumSpec, ProblemSpec

__all__ = [
    "VariationalResult",
    "StudyRow",
    "objective",
    "minimize",
    "convergence_study",
]


@dataclass(frozen=True, eq=False)
class VariationalResult:
    """Feasible near-minimizer with its objective decomposition."""

    v_delta: GridFunction
    objective_value: float
    misfit: float
    phi_value: float


class StudyRow(NamedTuple):
    delta: float
    misfit: float
    phi: float
    objective: float
    sup_err_truth: float
    sup_err_ensemble: float


def objective(v: GridFunction, data: NoisyData, spec: CompactumSpec,
              prob: ProblemSpec) -> float:
    """F(v) = sup|Av - g_delta| + delta * phi(v), from the terms that
    `is_feasible` forms."""
    check = is_feasible(v, FeasibleClass(spec, data, prob))
    return check.misfit + data.delta * check.class_norm


class _Maximizers(NamedTuple):
    """Where the terms of phi(v) peak, kept from the pass that formed phi(v)."""

    sup: int  # first argmax of |v|
    slopes: np.ndarray | None  # forward slopes of v (a > 1)
    slope: int  # first argmax of |slopes| (a > 1)
    pair: tuple[float, int, int]  # `_first_max_pair` of v (a <= 1) or of the slopes


def _phi(spec: CompactumSpec, vals: np.ndarray) -> tuple[float, _Maximizers]:
    """phi of a raw row with the maximizers of its terms, in one pass.

    phi = sup|v| + max|s| + quot (Holder a > 1; the slope term drops at
    a <= 1 and both at sup-norm), each term read at its first maximizer.
    `_first_max_pair` scans the bands of `_pair_bands` as `_max_pair_quotient`
    does and reaches the same maximum, so phi equals
    `spec.phi_value(GridFunction(vals))` bit for bit.  A non-finite phi is
    formed again by `spec.phi_rows`, whose maxima propagate nan; it raises
    `phi_value`'s error when the values themselves are not finite.
    """
    n = vals.size
    i_sup = int(np.abs(vals).argmax())
    phi = abs(vals.item(i_sup))
    slopes, k, pair = None, 0, (0.0, 0, 0)
    if spec.phi == "holder-norm":
        x = _nodes(n)
        if spec.a <= 1.0:
            pair = _first_max_pair(vals, x, spec.a)
        else:
            slopes = (vals[1:] - vals[:-1]) / (x[1] - x[0])
            k = int(np.abs(slopes).argmax())
            phi += abs(slopes.item(k))
            pair = _first_max_pair(slopes, x[:-1], spec.a - 1.0)
        phi += pair[0]
    if not math.isfinite(phi):
        if not np.isfinite(vals).all():
            raise ValueError("GridFunction values must all be finite")
        phi = float(spec.phi_rows(vals))
    return phi, _Maximizers(i_sup, slopes, k, pair)


def _phi_subgradient(vals: np.ndarray, at: _Maximizers, spec: CompactumSpec) -> np.ndarray:
    """A subgradient of phi at vals (sum of subgradients of the max terms),
    from the maximizers `at` that `_phi(spec, vals)` kept."""
    n = vals.size
    grad = np.zeros(n)
    grad[at.sup] += np.sign(vals[at.sup])
    if spec.phi == "sup-norm":
        return grad
    a = spec.a
    x = _nodes(n)
    dx = x[1] - x[0]
    quot, i, j = at.pair
    if a <= 1.0:
        if quot > 0.0:
            s = np.sign(vals[i] - vals[j]) / abs(x[i] - x[j]) ** a
            grad[i] += s
            grad[j] -= s
        return grad
    slopes, k = at.slopes, at.slope
    s = np.sign(slopes[k]) / dx
    grad[k + 1] += s
    grad[k] -= s
    if quot > 0.0:
        s = np.sign(slopes[i] - slopes[j]) / (abs(x[i] - x[j]) ** (a - 1.0) * dx)
        grad[i + 1] += s
        grad[i] -= s
        grad[j + 1] -= s
        grad[j] += s
    return grad


def _rescaled(spec: CompactumSpec, vals: np.ndarray, phi: float
              ) -> tuple[np.ndarray, float, _Maximizers]:
    """vals, with phi(vals) = phi > c, pulled radially just inside {phi <= c},
    together with its recomputed phi and maximizers."""
    vals = vals * (spec.c / phi) * (1.0 - 1e-12)
    return (vals,) + _phi(spec, vals)


def _poly_fits(x: np.ndarray, y: np.ndarray, degrees: Sequence[int]) -> list[np.ndarray]:
    """Least-squares polynomial fits of y on x, read at x, one per degree.

    Each row equals `np.polynomial.Polynomial.fit(x, y, d)(x)` bit for bit
    (numpy 2.4): x is mapped onto the window [-1, 1], the Vandermonde columns
    are scaled by their 2-norms before `lstsq`, and the fit is read by Horner
    in the mapped variable.  One Vandermonde serves every degree.
    """
    if not degrees:
        return []
    lo, hi = x.min(), x.max()
    t = (hi * -1.0 - lo * 1.0) / (hi - lo) + 2.0 / (hi - lo) * x
    van = np.empty((max(degrees) + 1, x.size))
    van[0] = t * 0 + 1
    van[1] = t
    for i in range(2, len(van)):
        van[i] = van[i - 1] * t
    norms = np.sqrt(np.square(van).sum(1))
    norms[norms == 0] = 1
    rcond = x.size * np.finfo(float).eps
    rows = []
    for d in degrees:
        scale = norms[:d + 1]
        coef = np.linalg.lstsq(van[:d + 1].T / scale, y + 0.0, rcond)[0] / scale
        fit = coef[-1] + t * 0
        for ck in coef[-2::-1]:
            fit = ck + fit * t
        rows.append(fit)
    return rows


def _anchor_candidates(data: NoisyData, spec: CompactumSpec, prob: ProblemSpec) -> np.ndarray:
    """Deterministic data-fit probes, one per row: zero, the crude
    derivative, smoothed derivatives or least squares, and polynomial fits
    of the crude derivative of degrees 1, 2, 3 and 5 (those up to n - 2).

    The polynomial probes are formed in-module by `_poly_fits`, equal to
    `Polynomial.fit(x, grad, d)(x)` without importing `numpy.polynomial`.
    Each raw candidate is also offered rescaled onto {phi <= c}; candidates
    that fail both constraints are simply not selected.
    """
    g = data.g_delta
    n = g.n
    out: list[np.ndarray] = [np.zeros(n)]
    grad = np.gradient(g.values, g.spacing)
    if n >= 3:
        grad[0] = grad[1]
        grad[-1] = grad[-2]
    out.append(grad)
    if prob.operator is None:
        m = 1
        ladder = []
        while 3 * m <= n - 1 and m <= (n - 1) // 4 + 1:
            ladder.append(m)
            m *= 2
        top = (n - 1) // 4
        if top >= 1 and top not in ladder:
            ladder.append(top)
        for m in ladder:
            out.append(differentiate(data, m / (n - 1)).values)
    else:
        out.append(np.linalg.lstsq(prob.matrix(n), g.values, rcond=None)[0])
    # smooth polynomial fits of the crude derivative: the only probes with a
    # small Holder seminorm, since the others carry node-scale kinks
    out += _poly_fits(g.x, grad, [deg for deg in (1, 2, 3, 5) if deg <= n - 2])
    out += [_rescaled(spec, vals, phi)[0] for vals in out[1:]
            if (phi := _phi(spec, vals)[0]) > spec.c]
    return np.array(out)


def _tube_step(cls: FeasibleClass, base: np.ndarray, base_res: np.ndarray,
               direction: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(t, b + t d, its residual) for the t where the segment from the
    incumbent b leaves the data tube of `cls`.

    Along the segment the residual is r0 + t r1, r0 = base_res = Ab - g and
    r1 = Ad, so the exit is t = min(1, min over r1_k != 0 of
    (sign(r1_k) delta - r0_k) / r1_k).  When rounding puts the misfit formed
    at t above delta, t is trimmed by the shave ladder; the last resort,
    t = 0, is the incumbent itself.  Residuals are `cls.residual`.
    """
    delta = cls.delta
    r1 = cls.prob.apply_rows(direction[None])[0]
    moving = r1 != 0.0
    t = 1.0
    if moving.any():
        exits = (np.copysign(delta, r1[moving]) - base_res[moving]) / r1[moving]
        t = min(t, float(exits.min()))
    for shave in _SHAVE_LADDER:
        step = t * (1.0 - shave)
        v = base + step * direction
        res = cls.residual(v[None])[0]
        if np.abs(res).max() <= delta:
            return step, v, res
    return 0.0, base, base_res


def minimize(data: NoisyData, spec: CompactumSpec, prob: ProblemSpec,
             budget: int = 2000, stop_at: float | None = None) -> VariationalResult:
    """Projected subgradient descent on F over the feasible set.

    Starts from the best feasible data-fit probe (error if none passes both
    constraints), keeps the first-found best iterate, restores phi <= c by
    radial rescaling and misfit <= delta by a step back toward the incumbent.
    `stop_at` accepts the first iterate with F <= stop_at, the
    minimizing-sequence acceptance rule.  The whole run is deterministic.

    The feasible set is one `FeasibleClass`: each residual Av - g is formed
    once, by its `residual`, and each membership verdict is its `admits`.
    The iterate's and the incumbent's residuals are kept, not recomputed.
    An iterate outside the data tube is pulled back along the segment
    toward the incumbent by `_tube_step`.  The adjoint is read by
    rows, `prob.row`; the built-in map's matrix is never formed.  Likewise
    each iterate's Holder terms are formed once, by `_phi`: the maximizers
    it keeps with phi give the next subgradient without a second scan.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    cls = FeasibleClass(spec, data, prob)
    n, delta, c = cls.n, cls.delta, spec.c
    cands = _anchor_candidates(data, spec, prob)
    misfits, phis = cls.residuals(cands)
    f_vals = np.where(cls.admits(misfits, phis), misfits + delta * phis, math.inf)
    k = int(np.argmin(f_vals))  # the first best probe
    if f_vals[k] == math.inf:
        raise InfeasibleProblemError(
            "infeasible problem: no data-fit probe satisfies both "
            f"misfit <= {delta} and phi <= {c}")
    best_vals, best_res = cands[k], cls.residual(cands[k:k + 1])[0]
    best = (float(f_vals[k]), float(misfits[k]), float(phis[k]))  # (objective, misfit, phi)

    def result() -> VariationalResult:
        return VariationalResult(GridFunction(best_vals), best[1] + delta * best[2],
                                 best[1], best[2])

    if stop_at is not None and best[0] <= stop_at:
        return result()

    # the largest row norm as `np.linalg.norm(a_mat, axis=1)` forms it; the
    # built-in rows are nested prefixes with positive weights, the last largest
    rows = prob.row(n - 1, n)[None] if prob.operator is None else prob.operator
    lip_mis = float(np.sqrt(np.add.reduce(rows * rows, axis=1)).max())
    dx = 1.0 / (n - 1)
    if spec.phi == "sup-norm":
        lip_phi = 1.0
    elif spec.a <= 1.0:
        lip_phi = 1.0 + 2.0 / dx ** spec.a
    else:
        lip_phi = 1.0 + 2.0 / dx + 4.0 / dx ** spec.a
    step0 = c / (10.0 * max(lip_mis + delta * lip_phi, 1e-12))

    v, res = best_vals, best_res
    at = _phi(spec, v)[1]
    for it in range(1, budget + 1):
        j = int(np.argmax(np.abs(res)))
        sub = np.sign(res[j]) * prob.row(j, n) + delta * _phi_subgradient(v, at, spec)
        v = v - (step0 / math.sqrt(it)) * sub
        phi, at = _phi(spec, v)
        if phi > c:
            v, phi, at = _rescaled(spec, v, phi)
        res = cls.residual(v[None])[0]
        if np.abs(res).max() > delta:
            # both constraints are convex along the segment to the feasible
            # incumbent, so its exit point stays admissible
            _, v, res = _tube_step(cls, best_vals, best_res, v - best_vals)
            phi, at = _phi(spec, v)
            if phi > c:
                v, phi, at = _rescaled(spec, v, phi)
                res = cls.residual(v[None])[0]
        mis = float(np.abs(res).max())
        if cls.admits(mis, phi):
            f_val = mis + delta * phi
            if f_val < best[0]:
                best_vals, best_res = v, res
                best = (f_val, mis, phi)
                if stop_at is not None and best[0] <= stop_at:
                    break
    return result()


#: noise amplitude of the study data, as a fraction of delta
NOISE_MARGIN = 0.5


def convergence_study(u_true: GridFunction, deltas: Sequence[float],
                      spec: CompactumSpec, prob: ProblemSpec,
                      noise: str = "uniform-iid", seed: int = 0,
                      budget: int = 2000, ensemble_count: int = 32) -> list[StudyRow]:
    """One reconstruction row per noise level, largest delta first.

    Data are generated as g + (NOISE_MARGIN * delta) * xi with a single unit
    pattern xi shared across the sweep (common random numbers), so the true
    coefficient sits strictly inside the data tube and rows are comparable.
    `noise` is a model of `grid.noise_pattern`.
    Each row records the solve, the sup error against the known truth, and
    an ensemble worst-case estimate.
    """
    phi_u = spec.phi_value(u_true)
    if phi_u > spec.c:
        raise ValueError(f"phi(u_true) = {phi_u} exceeds the compactum bound {spec.c}")
    noise_ss, ensemble_ss = np.random.SeedSequence(seed).spawn(2)
    xi = noise_pattern(noise, u_true.n, noise_ss)
    if len(deltas) == 0:
        return []
    g = prob.apply(u_true)
    children = ensemble_ss.spawn(len(deltas))
    rows = []
    for child, delta in zip(children, sorted(deltas, reverse=True)):
        data = NoisyData(GridFunction(g.values + (NOISE_MARGIN * delta) * xi), delta)
        res = minimize(data, spec, prob, budget=budget, stop_at=2.0 * (1.0 + phi_u) * delta)
        err = float(np.max(np.abs(res.v_delta.values - u_true.values)))
        cls = FeasibleClass(spec, data, prob)
        ensemble = sample_feasible(cls, ensemble_count, child, start=u_true)
        sup_est = sup_error_estimate(res.v_delta, ensemble)
        rows.append(StudyRow(delta, res.misfit, res.phi_value, res.objective_value,
                             err, sup_est))
    return rows
