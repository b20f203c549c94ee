"""Constrained variational reconstruction on a compactum.

Minimizes F(v) = sup|Av - g_delta| + delta * phi(v) over the feasible set
{v : sup|Av - g_delta| <= delta, phi(v) <= c}.  Both terms are convex and
piecewise linear on the grid, so the solver is a projected subgradient
descent with best-iterate tracking; correctness is certified after the fact
by feasibility of the output plus the near-minimizer bound

    F(v_delta) <= 2 * (1 + phi(u)) * delta

whenever the true coefficient u is known (any point below that threshold is
an acceptable near-minimizer: the infimum itself is at most
(1 + phi(u)) * delta because u is feasible).  `convergence_study` sweeps the
noise level and records how the reconstruction error, an ensemble
worst-case estimate, and the matched modulus of continuity shrink together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .adversary import FeasibleClass, sample_feasible, sup_error_estimate
from .derivative import differentiate
from .errors import InfeasibleProblemError
from .grid import (NOISE_MODELS, GridFunction, NoisyData, _NOISE_ALIASES, _first_max_pair,
                   _write_table, sup_norm)
from .modulus import LatticeCompactum, modulus_bruteforce
from .operators import CompactumSpec, ProblemSpec

__all__ = [
    "VariationalResult",
    "StudyRow",
    "objective",
    "minimize",
    "regularize_variational",
    "convergence_study",
    "write_convergence_csv",
    "STUDY_HEADER",
]

STUDY_HEADER = "delta,misfit,phi,objective,sup_err_truth,sup_err_ensemble,omega_2delta"


@dataclass(frozen=True, eq=False)
class VariationalResult:
    """Feasible near-minimizer with its objective decomposition."""

    v_delta: GridFunction
    objective_value: float
    misfit: float
    phi_value: float
    certificate_bound: float


class StudyRow(NamedTuple):
    delta: float
    misfit: float
    phi: float
    objective: float
    sup_err_truth: float
    sup_err_ensemble: float
    omega_2delta: float


def objective(v: GridFunction, data: NoisyData, spec: CompactumSpec,
              prob: ProblemSpec) -> float:
    """F(v) = sup|Av - g_delta| + delta * phi(v)."""
    if v.n != data.g_delta.n:
        raise ValueError(f"grid mismatch: v has {v.n} nodes, data {data.g_delta.n}")
    mis = float(np.max(np.abs(prob.apply(v).values - data.g_delta.values)))
    return mis + data.delta * spec.phi_value(v)


def _phi_subgradient(vals: np.ndarray, x: np.ndarray, spec: CompactumSpec) -> np.ndarray:
    """A subgradient of phi at vals (sum of subgradients of the max terms)."""
    n = vals.size
    grad = np.zeros(n)
    i_sup = int(np.argmax(np.abs(vals)))
    grad[i_sup] += np.sign(vals[i_sup])
    if spec.phi == "sup-norm":
        return grad
    a = spec.a
    dx = x[1] - x[0]
    if a <= 1.0:
        quot, i, j = _first_max_pair(vals, x, a)
        if quot > 0.0:
            s = np.sign(vals[i] - vals[j]) / abs(x[i] - x[j]) ** a
            grad[i] += s
            grad[j] -= s
        return grad
    slopes = np.diff(vals) / dx
    k = int(np.argmax(np.abs(slopes)))
    s = np.sign(slopes[k]) / dx
    grad[k + 1] += s
    grad[k] -= s
    quot, i, j = _first_max_pair(slopes, x[:-1], a - 1.0)
    if quot > 0.0:
        s = np.sign(slopes[i] - slopes[j]) / (abs(x[i] - x[j]) ** (a - 1.0) * dx)
        grad[i + 1] += s
        grad[i] -= s
        grad[j + 1] -= s
        grad[j] += s
    return grad


def _anchor_candidates(data: NoisyData, spec: CompactumSpec, prob: ProblemSpec,
                       a_mat: np.ndarray) -> list[np.ndarray]:
    """Deterministic data-fit probes: zero, smoothed derivatives, least squares.

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
    if prob.is_integration:
        m = 1
        ladder = []
        while 2 * m <= n - 1 and m <= (n - 1) // 4 + 1:
            ladder.append(m)
            m *= 2
        top = (n - 1) // 4
        if top >= 1 and top not in ladder:
            ladder.append(top)
        for m in ladder:
            out.append(differentiate(data, m / (n - 1)).values)
    else:
        out.append(np.linalg.lstsq(a_mat, g.values, rcond=None)[0])
    # smooth polynomial fits of the crude derivative: the only probes with a
    # small Holder seminorm, since the others carry node-scale kinks
    x = g.x
    for deg in (1, 2, 3, 5):
        if deg <= n - 2:
            poly = np.polynomial.Polynomial.fit(x, grad, deg)
            out.append(poly(x))
    scaled = []
    for vals in out[1:]:
        phi = spec.phi_value(GridFunction(vals))
        if phi > spec.c:
            scaled.append(vals * (spec.c / phi) * (1.0 - 1e-12))
    return out + scaled


def minimize(data: NoisyData, spec: CompactumSpec, prob: ProblemSpec,
             budget: int = 2000, phi_u: float | None = None,
             stop_at: float | None = None) -> VariationalResult:
    """Projected subgradient descent on F over the feasible set.

    Starts from the best feasible data-fit probe (error if none passes both
    constraints), keeps the first-found best iterate, restores phi <= c by
    radial rescaling and misfit <= delta by bisection toward the incumbent.
    `stop_at` accepts the first iterate with F <= stop_at, the
    minimizing-sequence acceptance rule; `phi_u`, when the true coefficient
    is known, fixes the reported certificate at 2*(1+phi_u)*delta.  The
    whole run is deterministic.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    n = data.g_delta.n
    a_mat = prob.matrix(n)
    g = data.g_delta.values
    delta = data.delta
    c = spec.c
    x = data.g_delta.x

    def misfit_of(vals: np.ndarray) -> float:
        return float(np.max(np.abs(a_mat @ vals - g)))

    def phi_of(vals: np.ndarray) -> float:
        return spec.phi_value(GridFunction(vals))

    best_vals = None
    best = (math.inf, math.inf, math.inf)  # (objective, misfit, phi)
    for cand in _anchor_candidates(data, spec, prob, a_mat):
        mis = misfit_of(cand)
        phi = phi_of(cand)
        if mis <= delta and phi <= c:
            f_val = mis + delta * phi
            if f_val < best[0]:
                best_vals = cand.copy()
                best = (f_val, mis, phi)
    if best_vals is None:
        raise InfeasibleProblemError(
            "infeasible problem: no data-fit probe satisfies both "
            f"misfit <= {delta} and phi <= {c}")

    def result() -> VariationalResult:
        cert = best[0] if phi_u is None else 2.0 * (1.0 + phi_u) * delta
        return VariationalResult(GridFunction(best_vals), best[1] + delta * best[2],
                                 best[1], best[2], cert)

    if stop_at is not None and best[0] <= stop_at:
        return result()

    row_norms = np.linalg.norm(a_mat, axis=1)
    lip_mis = float(np.max(row_norms))
    dx = x[1] - x[0]
    if spec.phi == "sup-norm":
        lip_phi = 1.0
    elif spec.a <= 1.0:
        lip_phi = 1.0 + 2.0 / dx ** spec.a
    else:
        lip_phi = 1.0 + 2.0 / dx + 4.0 / dx ** spec.a
    step0 = c / (10.0 * max(lip_mis + delta * lip_phi, 1e-12))

    v = best_vals.copy()
    for it in range(1, budget + 1):
        residual = a_mat @ v - g
        j = int(np.argmax(np.abs(residual)))
        sub = np.sign(residual[j]) * a_mat[j] + delta * _phi_subgradient(v, x, spec)
        v = v - (step0 / math.sqrt(it)) * sub
        phi = phi_of(v)
        if phi > c:
            v = v * (c / phi) * (1.0 - 1e-12)
        mis = misfit_of(v)
        if mis > delta:
            # bisect toward the feasible incumbent; both constraints are
            # convex along the segment, so the endpoint stays admissible
            direction = v - best_vals
            lo, hi = 0.0, 1.0
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                if misfit_of(best_vals + mid * direction) <= delta:
                    lo = mid
                else:
                    hi = mid
            v = best_vals + lo * direction
            mis = misfit_of(v)
            phi = phi_of(v)
            if phi > c:
                v = v * (c / phi) * (1.0 - 1e-12)
                phi = phi_of(v)
                mis = misfit_of(v)
        if mis <= delta and phi <= c:
            f_val = mis + delta * phi
            if f_val < best[0]:
                best_vals = v.copy()
                best = (f_val, mis, phi)
                if stop_at is not None and best[0] <= stop_at:
                    break
    return result()


def regularize_variational(data: NoisyData, spec: CompactumSpec, prob: ProblemSpec,
                           budget: int = 2000, phi_u: float | None = None,
                           stop_at: float | None = None) -> VariationalResult:
    """`minimize` with the output feasibility contract enforced strictly."""
    res = minimize(data, spec, prob, budget=budget, phi_u=phi_u, stop_at=stop_at)
    if res.misfit > data.delta or res.phi_value > spec.c:
        raise InfeasibleProblemError(
            f"output violates feasibility: misfit {res.misfit} vs delta "
            f"{data.delta}, phi {res.phi_value} vs c {spec.c}")
    return res


#: noise amplitude of the study data, as a fraction of delta
NOISE_MARGIN = 0.5
#: nodes and levels of the lattice compactum that gives omega(2*delta)
LATTICE_NODES = 3
LATTICE_LEVELS = 9


def convergence_study(u_true: GridFunction, deltas: Sequence[float],
                      spec: CompactumSpec, prob: ProblemSpec,
                      noise: str = "uniform-iid", seed: int = 0,
                      budget: int = 2000, ensemble_count: int = 32) -> list[StudyRow]:
    """One reconstruction row per noise level, largest delta first.

    Data are generated as g + (NOISE_MARGIN * delta) * xi with a single unit
    pattern xi shared across the sweep (common random numbers), so the true
    coefficient sits strictly inside the data tube and rows are comparable.
    `noise` is a noise model of the grid module or "none" (xi = 0).
    Each row records the solve, the sup error against the known truth, an
    ensemble worst-case estimate, and the exact modulus omega(2*delta) of a
    small matched lattice compactum (same phi and c).
    """
    phi_u = spec.phi_value(u_true)
    if phi_u > spec.c:
        raise ValueError(f"phi(u_true) = {phi_u} exceeds the compactum bound {spec.c}")
    if noise != "none" and noise not in _NOISE_ALIASES:
        raise ValueError(f"unknown noise model {noise!r}; choose from "
                         f"{('none',) + NOISE_MODELS}")
    if len(deltas) == 0:
        return []
    g = prob.apply(u_true)
    n = u_true.n
    root = np.random.SeedSequence(seed)
    noise_ss, ensemble_ss = root.spawn(2)
    model = _NOISE_ALIASES.get(noise)
    if model == "uniform-iid":
        xi = np.random.default_rng(noise_ss).uniform(-1.0, 1.0, n)
    elif model == "alternating-worst-case":
        xi = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    else:
        xi = np.zeros(n)
    children = ensemble_ss.spawn(len(deltas))
    lattice = LatticeCompactum(LATTICE_NODES,
                               tuple(np.linspace(-spec.c, spec.c, LATTICE_LEVELS)),
                               spec)
    rows = []
    for child, delta in zip(children, sorted(deltas, reverse=True)):
        data = NoisyData(GridFunction(g.values + (NOISE_MARGIN * delta) * xi), delta)
        res = regularize_variational(data, spec, prob, budget=budget, phi_u=phi_u,
                                     stop_at=2.0 * (1.0 + phi_u) * delta)
        err = sup_norm(GridFunction(res.v_delta.values - u_true.values))
        cls = FeasibleClass.from_specs(spec, prob, data)
        ensemble = sample_feasible(cls, ensemble_count, child, start=u_true)
        sup_est = sup_error_estimate(res.v_delta, cls, ensemble)
        if prob.is_integration or prob.size() == LATTICE_NODES:
            omega = modulus_bruteforce(lattice, 2.0 * delta, prob)
        else:
            omega = math.nan
        rows.append(StudyRow(delta, res.misfit, res.phi_value, res.objective_value,
                             err, sup_est, omega))
    return rows


def write_convergence_csv(rows: Sequence[StudyRow], path: str | Path) -> None:
    _write_table(path, STUDY_HEADER, rows)
