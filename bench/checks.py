"""Output checks written independently of wcreg.

Every quantity a workload's outputs claim is recomputed here from the raw
values: the trapezoid image, the discrete Holder norm and the step rule.
Only the CSV readers come from wcreg (`read_csv_table`, `read_pair_csv`),
because reading the files back through them is itself a check that the
written format still parses.

Each check returns a list of failure messages; an empty list means the
output passed.  Tolerances are relative and stated where they are used.
"""

from __future__ import annotations

import math

import numpy as np

#: relative slack for comparing two float computations of one quantity
#: that round differently (e.g. a dense matrix product against a cumsum)
REL_TOL = 1e-9


def trapezoid(values: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral from 0 on the uniform grid of [0, 1]."""
    values = np.asarray(values, dtype=float)
    half_dx = 0.5 / (values.size - 1)
    return np.concatenate(([0.0], np.cumsum((values[1:] + values[:-1]) * half_dx)))


def misfit(values: np.ndarray, data: np.ndarray) -> float:
    """sup |A v - data| with A the trapezoid integral."""
    return float(np.max(np.abs(trapezoid(values) - data)))


def _quotient_seminorm(values: np.ndarray, dx: float, power: float) -> float:
    """max over i < j of |v_j - v_i| / ((j - i) dx)**power, one offset at a time."""
    best = 0.0
    for d in range(1, values.size):
        span = float(np.max(np.abs(values[d:] - values[:-d])))
        best = max(best, span / (d * dx) ** power)
    return best


def holder_norm(values: np.ndarray, a: float) -> float:
    """Discrete Holder a-norm on the uniform grid, as defined in wcreg.grid.

    For a <= 1: sup|v| plus the order-a quotient seminorm of the values.
    For 1 < a <= 2: sup|v| + sup|s| plus the order-(a-1) seminorm of the
    forward slopes s.
    """
    values = np.asarray(values, dtype=float)
    dx = 1.0 / (values.size - 1)
    sup = float(np.max(np.abs(values)))
    if a <= 1.0:
        return sup + _quotient_seminorm(values, dx, a)
    slopes = np.diff(values) / dx
    return sup + float(np.max(np.abs(slopes))) + _quotient_seminorm(slopes, dx, a - 1.0)


def close(x: float, y: float, rel: float = REL_TOL) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y), 1e-300)


def check_sweep(header, rows, meta, deltas, a, m) -> tuple[list[str], int]:
    """Sweep table against the step rule; returns failures and the number of
    rows whose ensemble lower bound exceeds the certificate eta."""
    fails = []
    if header != ["delta", "h", "eta", "sup_err_est"]:
        return [f"sweep.csv header {header}"], 0
    want = sorted(deltas, reverse=True)
    if [r[0] for r in rows] != want:
        return [f"sweep.csv deltas {[r[0] for r in rows]} != {want}"], 0
    violations = 0
    for delta, h, eta, est in rows:
        h_ref = min((delta / ((a - 1.0) * m)) ** (1.0 / a), 0.25)
        if not close(h, h_ref, 1e-12):
            fails.append(f"delta={delta}: h={h}, step rule gives {h_ref}")
        eta_ref = delta / h_ref + m * h_ref ** (a - 1.0)
        if not close(eta, eta_ref, 1e-12):
            fails.append(f"delta={delta}: eta={eta}, expected {eta_ref}")
        if not (math.isfinite(est) and est > 0.0):
            fails.append(f"delta={delta}: sup_err_est={est} is not a positive number")
        violations += est > eta
    slope = meta.get("eta_loglog_slope")
    if slope is None or not close(slope, 1.0 - 1.0 / a, 1e-6):
        fails.append(f"eta_loglog_slope={slope}, expected {1.0 - 1.0 / a}")
    if not math.isfinite(meta.get("err_loglog_slope", math.nan)):
        fails.append("err_loglog_slope missing or not finite")
    return fails, violations


def check_pair(pair, delta: float, bound: float, separation: float) -> list[str]:
    """An adversarial Lipschitz pair (zero data) against its own certificate."""
    fails = []
    cert = pair.certificate
    if cert.delta != delta or cert.bound != bound:
        fails.append(f"certificate (delta, bound)=({cert.delta}, {cert.bound}), "
                     f"expected ({delta}, {bound})")
    v1, v2 = pair.v1.values, pair.v2.values
    sep = float(np.max(np.abs(v1 - v2)))
    if sep != pair.separation or sep != separation:
        fails.append(f"separation {sep} recomputed, file says {pair.separation}, "
                     f"table says {separation}")
    if not 0.0 < sep <= bound:
        fails.append(f"separation {sep} outside (0, {bound}]")
    zero = np.zeros(v1.size)
    for label, v, mis_claim, norm_claim in (("v1", v1, cert.misfit1, cert.norm1),
                                            ("v2", v2, cert.misfit2, cert.norm2)):
        mis = misfit(v, zero)
        if mis > delta * (1.0 + REL_TOL) or not close(mis, mis_claim):
            fails.append(f"{label}: misfit {mis} recomputed, certificate {mis_claim}, "
                         f"delta {delta}")
        norm = holder_norm(v, 1.0)
        if norm > bound * (1.0 + REL_TOL) or not close(norm, norm_claim):
            fails.append(f"{label}: Lipschitz norm {norm} recomputed, certificate "
                         f"{norm_claim}, bound {bound}")
    return fails


def check_solution(v: np.ndarray, data: np.ndarray, delta: float, c: float, a: float,
                   reported_objective: float, phi_u: float) -> tuple[list[str], float]:
    """A variational output: feasible, its objective as reported, and within
    the certificate 2 (1 + phi(u)) delta.  Returns failures and the ratio
    F(v) / (2 (1 + phi(u)) delta)."""
    fails = []
    mis = misfit(v, data)
    phi = holder_norm(v, a)
    if mis > delta * (1.0 + REL_TOL):
        fails.append(f"misfit {mis} exceeds delta {delta}")
    if phi > c * (1.0 + REL_TOL):
        fails.append(f"phi {phi} exceeds c {c}")
    objective = mis + delta * phi
    if not close(objective, reported_objective, 1e-6):
        fails.append(f"objective {objective} recomputed, reported {reported_objective}")
    ratio = objective / (2.0 * (1.0 + phi_u) * delta)
    if not ratio <= 1.0:
        fails.append(f"objective ratio {ratio} exceeds the certificate")
    return fails, ratio


def check_modulus(header, rows, deltas, c) -> list[str]:
    """omega(delta) table: requested deltas, 0 <= omega <= 2c, monotone in delta."""
    if header != ["delta", "omega"]:
        return [f"modulus.csv header {header}"]
    want = sorted(deltas, reverse=True)
    if [r[0] for r in rows] != want:
        return [f"modulus.csv deltas {[r[0] for r in rows]} != {want}"]
    fails = [f"delta={d}: omega={w} outside [0, {2.0 * c}]"
             for d, w in rows if not 0.0 <= w <= 2.0 * c]
    omegas = [w for _, w in rows]
    if any(later > earlier for earlier, later in zip(omegas, omegas[1:])):
        fails.append(f"omega {omegas} grows as delta shrinks")
    return fails
