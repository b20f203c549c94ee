"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import itertools
import math
import time

import numpy as np
import pytest

from wcreg import (CompactumSpec, FeasibleClass, GridFunction, LatticeCompactum, NoisyData,
                   ProblemSpec, add_noise, bump_pair, convergence_study, error_bound,
                   integrate, is_feasible, minimize, modulus_bruteforce, regularize,
                   sine_pair, step_size)
from wcreg.cli import main

from dense import rule_matrix
from test_derivative import stencil_worst_noise


def report(num, text):
    print(f"criterion {num}: PASS - {text}")


def test_criterion_1_rate_and_ensemble_bound():
    # eta(delta) = 2*sqrt(delta) exactly for a=2, m=1; the error against the
    # truth, a class member, stays below eta at every delta; runtime < 30 s
    start = time.time()
    params = CompactumSpec("holder-norm", 1.0, a=2.0)
    deltas = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    etas = np.array([error_bound(d, params, step_size(d, params)) for d in deltas])
    for d, eta in zip(deltas, etas):
        assert eta == pytest.approx(2.0 * math.sqrt(d), rel=1e-12)
    slope, intercept = np.polyfit(np.log(deltas), np.log(etas), 1)
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert intercept == pytest.approx(math.log(2.0), abs=1e-12)

    n = 641
    u = GridFunction(0.4 * np.linspace(0.0, 1.0, n))
    g = integrate(u)
    for delta in deltas:
        data = add_noise(g, delta, "alternating-worst-case", 0)
        assert is_feasible(u, FeasibleClass(params, data)).feasible
        recon = regularize(data, params)
        measured = float(np.max(np.abs(recon.u_delta.values - u.values)))
        assert measured <= 2.0 * math.sqrt(delta)
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(1, f"eta = 2*sqrt(delta) exactly, error against the truth below eta, "
              f"{elapsed:.1f}s")


def test_criterion_2_exactness():
    # exact data for g(x) = x^2/2 on 1001 nodes: interior reconstruction
    # equals x_k within 1e-12
    n = 1001
    x = np.linspace(0.0, 1.0, n)
    data = NoisyData(GridFunction(x ** 2 / 2.0), 1e-6)
    res = regularize(data, CompactumSpec("holder-norm", 1.0, a=2.0))
    worst = np.max(np.abs(res.u_delta.values[1:-1] - x[1:-1]))
    assert worst <= 1e-12
    report(2, f"interior reconstruction error {worst:.3g} <= 1e-12")


def test_criterion_3_noise_term_tightness():
    # +-delta noise alternating at the stencil period on g = 0 yields
    # interior magnitudes of exactly delta/h
    n = 641
    delta = 1e-4
    params = CompactumSpec("holder-norm", 1.0, a=2.0)
    m = round(step_size(delta, params) * (n - 1))
    data = NoisyData(stencil_worst_noise(n, m, delta), delta)
    res = regularize(data, params)
    assert round(res.h_used * (n - 1)) == m
    interior = np.abs(res.u_delta.values[m:n - m])
    worst = np.max(np.abs(interior - delta / res.h_used))
    assert worst <= 1e-12
    report(3, f"interior magnitudes equal delta/h = {delta / res.h_used:.6g} "
              f"within {worst:.3g}")


def test_criterion_4_sup_only_impossibility():
    # sine pairs at m=1: certified feasible, separation >= 0.98 for every
    # delta, hence a delta-independent lower bound >= 0.49 on the worst-case
    # error of any reconstruction rule; runtime < 10 s
    start = time.time()
    separations = []
    for delta in (1e-2, 1e-3, 1e-4):
        pair = sine_pair(1.0, delta)
        cls = FeasibleClass.for_zero_data(CompactumSpec("sup-norm", 1.0), delta, pair.v1.n)
        assert is_feasible(pair.v1, cls).feasible
        assert is_feasible(pair.v2, cls).feasible
        assert pair.separation >= 0.98
        separations.append(pair.separation)
    inf_sup_bound = min(separations) / 2.0
    assert inf_sup_bound >= 0.49
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(4, f"separations {['%.4f' % s for s in separations]}, "
              f"inf-sup lower bound {inf_sup_bound:.3f} >= 0.49, {elapsed:.1f}s")


def test_criterion_5_lipschitz_class_probe():
    # bump pairs at m=2: separation follows sqrt(delta) over three decades
    deltas = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    seps = np.array([bump_pair(2.0, d).separation for d in deltas])
    slope = np.polyfit(np.log(deltas), np.log(seps), 1)[0]
    assert abs(slope - 0.5) <= 0.05
    report(5, f"bump separation log-log slope {slope:.4f} within 0.5 +- 0.05")


def test_criterion_6_variational_certificate():
    # 3-node oracle instance: certificate F <= 2(1+phi(u))*delta and
    # objective within one lattice step of the exhaustive optimum; < 60 s
    start = time.time()
    u = GridFunction(np.ones(3))
    data = NoisyData(integrate(u), 0.1)
    spec = CompactumSpec("sup-norm", 2.0)
    prob = ProblemSpec()

    a_mat = rule_matrix(prob, 3)
    levels = np.arange(-20, 21) / 10.0
    members = np.array(list(itertools.product(levels, repeat=3)))
    misfit = np.max(np.abs(members @ a_mat.T - data.g_delta.values), axis=1)
    phi = np.max(np.abs(members), axis=1)
    feasible = (misfit <= data.delta) & (phi <= spec.c)
    oracle = float(np.min(misfit[feasible] + data.delta * phi[feasible]))

    res = minimize(data, spec, prob)
    certificate = 2.0 * (1.0 + 1.0) * 0.1
    assert res.objective_value <= certificate
    assert res.objective_value <= oracle + 0.02
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(6, f"objective {res.objective_value:.4f} <= certificate {certificate} "
              f"and within 0.02 of lattice optimum {oracle:.4f}, {elapsed:.1f}s")


def test_criterion_7_convergence():
    # u = 1, phi = sup-norm, c = 2: reconstruction error nonincreasing over
    # the delta sweep buffered by a factor-3 drop overall
    u = GridFunction(np.ones(101))
    deltas = (1e-1, 3e-2, 1e-2, 3e-3)
    rows = convergence_study(u, deltas, CompactumSpec("sup-norm", 2.0),
                             ProblemSpec(), noise="uniform-iid", seed=0)
    errs = [row.sup_err_truth for row in rows]
    assert all(b <= a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < errs[0] / 3.0
    report(7, f"errors {['%.4g' % e for e in errs]} nonincreasing, "
              f"final {errs[-1]:.4g} < first/3 = {errs[0] / 3:.4g}")


def test_criterion_8_modulus_pattern():
    # constants lattice, 21 levels in [-1, 1]: omega nondecreasing, zero
    # below the minimal image gap, 2 for delta >= 2, min(2, .) pattern at
    # every tested delta
    spec = CompactumSpec("sup-norm", 1.0)
    lattice = LatticeCompactum(5, tuple(np.arange(-10, 11) / 10.0), spec,
                               constants_only=True)
    prob = ProblemSpec()
    tested = [0.05] + [round(0.1 * k + 0.05, 3) for k in range(1, 21)] + [2.0, 2.5]
    values = modulus_bruteforce(lattice, tested, prob)
    for delta, omega in zip(tested, values, strict=True):
        expected = min(2.0, 0.1 * int(delta / 0.1 + 1e-9))
        assert omega == pytest.approx(expected, abs=1e-12)
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[0] == 0.0
    assert modulus_bruteforce(lattice, [2.0], prob) == [pytest.approx(2.0, abs=1e-12)]
    report(8, "omega matches min(2, 0.1*floor(delta/0.1)) at all "
              f"{len(tested)} tested deltas")


def test_criterion_9_cli_determinism(tmp_path):
    # every command rerun with the same config and seed gives byte-identical
    # outputs
    commands = [
        ("differentiate", "--truth", "quadratic", "--delta", "1e-4",
         "--a", "2", "--m", "1", "--noise", "alternating-worst-case"),
        ("sweep", "--deltas", "1e-2,1e-3", "--a", "2", "--m", "1",
         "--noise", "alternating-worst-case"),
        ("adversary", "--class", "sup", "--m", "1", "--deltas", "1e-2,1e-3"),
        ("variational", "--truth", "constant", "--deltas", "1e-1,1e-2",
         "--phi", "sup-norm", "--c", "2"),
        ("modulus", "--phi", "sup-norm", "--c", "1", "--levels", "21",
         "--lattice-nodes", "5", "--constants-only", "true",
         "--deltas", "0.15,0.35,2.5"),
    ]
    for idx, args in enumerate(commands):
        out1 = tmp_path / f"{args[0]}_1"
        out2 = tmp_path / f"{args[0]}_2"
        assert main([*args, "--seed", "11", "--out", str(out1)]) == 0
        assert main([*args, "--seed", "11", "--out", str(out2)]) == 0
        tree1 = {p.name: p.read_bytes() for p in sorted(out1.iterdir())}
        tree2 = {p.name: p.read_bytes() for p in sorted(out2.iterdir())}
        assert tree1 == tree2
    report(9, f"all {len(commands)} commands byte-identical on rerun")
