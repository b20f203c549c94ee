"""Command-line experiment runner.

Subcommands: differentiate, sweep, adversary, variational, modulus.  Each
writes plot-ready CSV files into --out; all floats carry 17 significant
digits and no output contains timestamps, so a rerun with the same config
and seed is byte-identical.  Exit codes: 0 success, 2 configuration or
validation error, 3 runtime error (infeasibility, coarse grids, guards).
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .adversary import FeasibleClass, bump_pair, sample_feasible, sine_pair, \
    sup_error_estimate, write_pair_csv
from .config import (_FIELD_TO_KEY, _FLOAT_FIELDS, _INT_FIELDS, ExperimentConfig,
                     parse_key_values)
from .derivative import error_bound, regularize, step_size
from .errors import ConfigError
from .grid import (GridFunction, HolderParams, NoisyData, _NOISE_ALIASES, _write_table,
                   add_noise, holder_norm, integrate, read_grid_csv, write_grid_csv)
from .modulus import LatticeCompactum, modulus_bruteforce, modulus_search
from .operators import CompactumSpec, ProblemSpec
from .variational import convergence_study, write_convergence_csv

__all__ = ["main", "run", "builtin_truth", "read_csv_table"]

COMMANDS = ("differentiate", "sweep", "adversary", "variational", "modulus")


def builtin_truth(name: str, n: int) -> GridFunction:
    """Built-in truths: quadratic (u(x)=x, quadratic data), constant,
    sine(k), abs-shift (u(x)=|x-1/2|)."""
    x = np.linspace(0.0, 1.0, n)
    if name == "quadratic":
        return GridFunction(x)
    if name == "constant":
        return GridFunction(np.ones(n))
    if name == "abs-shift":
        return GridFunction(np.abs(x - 0.5))
    match = re.fullmatch(r"sine\((\d+)\)", name)
    if match:
        k = int(match.group(1))
        return GridFunction(np.sin(2.0 * np.pi * k * x))
    raise ConfigError(f"unknown builtin truth {name!r}; "
                      "choose quadratic, constant, sine(k), or abs-shift")


def read_csv_table(path: str | Path) -> tuple[list[str], list[list[float]], dict[str, float]]:
    """Generic reader for the emitted tables: header, float rows, # key=value meta."""
    header: list[str] = []
    rows: list[list[float]] = []
    meta: dict[str, float] = {}
    for ln in Path(path).read_text().splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("#"):
            key, sep, value = ln[1:].strip().partition("=")
            if sep:
                meta[key.strip()] = float(value)
            continue
        if not header:
            header = [c.strip() for c in ln.split(",")]
        else:
            rows.append([float(c) for c in ln.split(",")])
    return header, rows, meta


def _loglog_slope(xs, ys) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 2 or np.any(xs <= 0.0) or np.any(ys <= 0.0):
        return float("nan")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


# ---------------------------------------------------------------------------
# commands


def _noisy_data(cfg: ExperimentConfig, g: GridFunction, delta: float,
                seed) -> NoisyData:
    if cfg.noise == "none":
        return NoisyData(g, delta)
    return add_noise(g, delta, cfg.noise, seed)


def cmd_differentiate(cfg: ExperimentConfig, out: Path) -> None:
    n = cfg.grid or 1001
    if cfg.input is not None:
        g_delta = read_grid_csv(cfg.input)
        data = NoisyData(g_delta, cfg.delta)
    else:
        u = builtin_truth(cfg.truth, n)
        data = _noisy_data(cfg, integrate(u), cfg.delta, cfg.seed)
    result = regularize(data, HolderParams(cfg.a, cfg.m))
    write_grid_csv(result.u_delta, out / "reconstruction.csv")
    _write_table(out / "summary.csv", "delta,h,eta",
                 [(cfg.delta, result.h_used, result.eta)])


def _scaled_truth(cfg: ExperimentConfig, n: int, params: HolderParams) -> GridFunction:
    """Builtin truth rescaled into the interior of the a-priori class, so the
    ensemble class actually contains the data-generating element."""
    u = builtin_truth(cfg.truth, n)
    norm = holder_norm(u, params.a)
    cap = 0.8 * params.m
    if norm > cap:
        u = GridFunction(u.values * (cap / norm))
    return u


def cmd_sweep(cfg: ExperimentConfig, out: Path) -> None:
    n = cfg.grid or 641
    params = HolderParams(cfg.a, cfg.m)
    u = _scaled_truth(cfg, n, params)
    g = integrate(u)
    deltas = sorted(cfg.deltas, reverse=True)
    children = np.random.SeedSequence(cfg.seed).spawn(2 * len(deltas))
    rows = []
    for i, delta in enumerate(deltas):
        data = _noisy_data(cfg, g, delta, children[2 * i])
        result = regularize(data, params)
        h_rule = step_size(delta, params)
        cls = FeasibleClass("holder", cfg.m, data, a=cfg.a)
        ensemble = sample_feasible(cls, cfg.count, children[2 * i + 1], start=u)
        est = sup_error_estimate(result.u_delta, cls, ensemble)
        rows.append((delta, h_rule, error_bound(delta, params, h_rule), est))
    meta = {"eta_loglog_slope": _loglog_slope([r[0] for r in rows], [r[2] for r in rows]),
            "err_loglog_slope": _loglog_slope([r[0] for r in rows], [r[3] for r in rows])}
    _write_table(out / "sweep.csv", "delta,h,eta,sup_err_est", rows, meta)


def cmd_adversary(cfg: ExperimentConfig, out: Path) -> None:
    deltas = sorted(cfg.deltas, reverse=True)
    rows = []
    for i, delta in enumerate(deltas):
        if cfg.class_kind == "sup":
            pair = sine_pair(cfg.m, delta, n=cfg.grid)
        else:
            pair = bump_pair(cfg.m, delta, n=cfg.grid)
        write_pair_csv(pair, out / f"pair_{i:03d}.csv")
        rows.append((delta, pair.separation))
    _write_table(out / "diameters.csv", "delta,separation", rows)


def _compactum(cfg: ExperimentConfig) -> CompactumSpec:
    a = cfg.a if cfg.phi == "holder-norm" else None
    return CompactumSpec(cfg.phi, cfg.c, a=a)


def cmd_variational(cfg: ExperimentConfig, out: Path) -> None:
    n = cfg.grid or 101
    u = builtin_truth(cfg.truth, n)
    rows = convergence_study(u, cfg.deltas, _compactum(cfg), ProblemSpec(),
                             noise=cfg.noise, seed=cfg.seed, budget=cfg.budget,
                             ensemble_count=cfg.count)
    write_convergence_csv(rows, out / "convergence.csv")


def cmd_modulus(cfg: ExperimentConfig, out: Path) -> None:
    spec = _compactum(cfg)
    lattice = LatticeCompactum(cfg.lattice_nodes,
                               tuple(np.linspace(-cfg.c, cfg.c, cfg.levels)),
                               spec, constants_only=cfg.constants_only)
    prob = ProblemSpec()
    rows = []
    for delta in sorted(cfg.deltas, reverse=True):
        if cfg.mode == "bruteforce":
            omega = modulus_bruteforce(lattice, delta, prob)
        else:
            omega = modulus_search(lattice, delta, prob, cfg.budget, seed=cfg.seed)
        rows.append((delta, omega))
    _write_table(out / "modulus.csv", "delta,omega", rows)


_RUNNERS = {
    "differentiate": cmd_differentiate,
    "sweep": cmd_sweep,
    "adversary": cmd_adversary,
    "variational": cmd_variational,
    "modulus": cmd_modulus,
}


# ---------------------------------------------------------------------------
# validation


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _validate(cfg: ExperimentConfig) -> None:
    _require(cfg.command in COMMANDS, f"unknown command {cfg.command!r}")
    _require(cfg.out is not None, "--out is required")
    _require(cfg.grid is None or cfg.grid >= 5, "grid must have at least 5 nodes")
    _require(all(d > 0 for d in cfg.deltas), "all deltas must be positive")
    _require(cfg.noise == "none" or cfg.noise in _NOISE_ALIASES,
             f"unknown noise model {cfg.noise!r}")
    if cfg.command == "differentiate":
        _require(cfg.delta is not None and cfg.delta > 0, "delta must be positive")
        _require(cfg.a > 1.0, "the step rule requires a > 1")
        _require(cfg.m > 0, "class bound m must be positive")
        if cfg.input is not None:
            _require(Path(cfg.input).is_file(), f"input file not found: {cfg.input}")
    elif cfg.command == "sweep":
        _require(len(cfg.deltas) >= 2, "sweep needs at least 2 deltas")
        _require(cfg.a > 1.0, "the step rule requires a > 1")
        _require(cfg.m > 0, "class bound m must be positive")
        _require(cfg.count >= 1, "ensemble count must be at least 1")
    elif cfg.command == "adversary":
        _require(cfg.class_kind in ("sup", "lip"),
                 f"class must be 'sup' or 'lip', got {cfg.class_kind!r}")
        _require(cfg.m > 0, "class bound m must be positive")
    elif cfg.command == "variational":
        _require(cfg.phi in ("sup-norm", "holder-norm"),
                 f"phi must be 'sup-norm' or 'holder-norm', got {cfg.phi!r}")
        _require(cfg.c > 0, "compactum bound c must be positive")
        _require(cfg.budget >= 0, "budget must be nonnegative")
        _require(cfg.count >= 1, "ensemble count must be at least 1")
    elif cfg.command == "modulus":
        _require(cfg.phi in ("sup-norm", "holder-norm"),
                 f"phi must be 'sup-norm' or 'holder-norm', got {cfg.phi!r}")
        _require(cfg.c > 0, "compactum bound c must be positive")
        _require(cfg.mode in ("bruteforce", "search"),
                 f"mode must be 'bruteforce' or 'search', got {cfg.mode!r}")
        _require(cfg.levels >= 1, "levels must be at least 1")
        _require(cfg.lattice_nodes >= 2, "lattice needs at least 2 nodes")
        _require(cfg.budget >= 1 or cfg.mode == "bruteforce",
                 "search mode needs a positive budget")


# ---------------------------------------------------------------------------
# argument plumbing


#: config fields set by a flag: every field but the subcommand itself
_FLAG_FIELDS = tuple(f.name for f in fields(ExperimentConfig) if f.name != "command")
_FLAG_HELP = {"out": "output directory", "deltas": "comma-separated list"}


def _build_parser() -> argparse.ArgumentParser:
    """One flag per config field, named by its config-file key."""
    parser = argparse.ArgumentParser(prog="wcreg",
                                     description="worst-case regularization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        for field in _FLAG_FIELDS:
            flag = "--" + _FIELD_TO_KEY.get(field, field)
            kwargs = {"dest": field, "default": None, "help": _FLAG_HELP.get(field)}
            if field in _INT_FIELDS:
                p.add_argument(flag, type=int, **kwargs)
            elif field in _FLOAT_FIELDS:
                p.add_argument(flag, type=float, **kwargs)
            elif isinstance(getattr(ExperimentConfig, field), bool):
                p.add_argument(flag, choices=("true", "false"), **kwargs)
            else:
                p.add_argument(flag, **kwargs)
    return parser


def _merge(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config is not None:
        cfg = cfg.updated(parse_key_values(args.config))
    overrides = {field: getattr(args, field) for field in _FLAG_FIELDS
                 if getattr(args, field) is not None}
    overrides["command"] = args.command
    return cfg.updated(overrides)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge(args)
        _validate(cfg)
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
    except ConfigError as exc:
        print(f"wcreg: config error: {exc}", file=sys.stderr)
        return 2
    try:
        _RUNNERS[cfg.command](cfg, out)
    except ConfigError as exc:
        print(f"wcreg: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - exit code contract, no bare crashes
        print(f"wcreg: error: {exc}", file=sys.stderr)
        return 3
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
