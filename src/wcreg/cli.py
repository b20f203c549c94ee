"""Command-line experiment runner.

One table, `_COMMANDS`, gives each command (differentiate, sweep,
adversary, variational, modulus) its runner and the config fields it reads.
All commands take the same flags, before or after the command; a flag for a
field the command does not read is named in a warning on stderr and
otherwise ignored.  Validation is one ordered list of rules, each on one
field and checked only for the commands that read it.  Each command writes
plot-ready CSV files into --out with 17-significant-digit floats and no
timestamps, so a rerun with the same config and seed is byte-identical.
Exit codes: 0 success, 2 configuration or validation error, 3 runtime error
(infeasibility, coarse grids, guards, an unusable --out).
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np

from .adversary import bump_pair, sine_pair, write_pair_csv
from .config import ExperimentConfig, _key, parse_key_values
from .derivative import error_bound, regularize, step_size
from .errors import ConfigError
from .grid import (_NOISE_ALIASES, GridFunction, NoisyData, _write_table, add_noise,
                   holder_norm, integrate, read_csv_table, read_grid_csv, write_grid_csv)
from .modulus import LatticeCompactum, modulus_bruteforce
from .operators import PHI_KINDS, CompactumSpec, ProblemSpec
from .variational import StudyRow, convergence_study

__all__ = ["main", "run", "builtin_truth", "read_csv_table"]


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


def _loglog_slope(xs, ys) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(set(xs.tolist())) < 2 or np.any(xs <= 0.0) or np.any(ys <= 0.0):
        return float("nan")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


# ---------------------------------------------------------------------------
# commands


def _scaled_truth(cfg: ExperimentConfig, n: int, spec: CompactumSpec) -> GridFunction:
    """Builtin truth rescaled into the interior of the a-priori class, so the
    class that the certificates cover contains the data-generating element."""
    u = builtin_truth(cfg.truth, n)
    norm = holder_norm(u, spec.a)
    cap = 0.8 * spec.c
    if norm > cap:
        u = GridFunction(u.values * (cap / norm))
    return u


def cmd_differentiate(cfg: ExperimentConfig, out: Path) -> None:
    spec = CompactumSpec("holder-norm", cfg.m, a=cfg.a)
    if cfg.input is not None:
        data = NoisyData(read_grid_csv(cfg.input), cfg.delta)
    else:
        u = _scaled_truth(cfg, cfg.grid or 1001, spec)
        data = add_noise(integrate(u), cfg.delta, cfg.noise, cfg.seed)
    result = regularize(data, spec)
    write_grid_csv(result.u_delta, out / "reconstruction.csv")
    _write_table(out / "summary.csv", "delta,h,eta",
                 [(cfg.delta, result.h_used, result.eta)])


def cmd_sweep(cfg: ExperimentConfig, out: Path) -> None:
    """One row per delta: the step rule's h and eta, and sup_err_est =
    sup|R(g_delta) - u|, the error against the truth, which lies in the
    feasible set and so bounds R's worst case over it from below."""
    n = cfg.grid or 641
    spec = CompactumSpec("holder-norm", cfg.m, a=cfg.a)
    u = _scaled_truth(cfg, n, spec)
    g = integrate(u)
    deltas = sorted(cfg.deltas, reverse=True)
    # delta i draws its noise from child 2i of the seed, as it always has
    children = np.random.SeedSequence(cfg.seed).spawn(2 * len(deltas))[::2]
    rows = []
    for child, delta in zip(children, deltas):
        result = regularize(add_noise(g, delta, cfg.noise, child), spec)
        h_rule = step_size(delta, spec)
        err = float(np.max(np.abs(result.u_delta.values - u.values)))
        rows.append((delta, h_rule, error_bound(delta, spec, h_rule), err))
    meta = {"eta_loglog_slope": _loglog_slope([r[0] for r in rows], [r[2] for r in rows]),
            "err_loglog_slope": _loglog_slope([r[0] for r in rows], [r[3] for r in rows])}
    _write_table(out / "sweep.csv", "delta,h,eta,sup_err_est", rows, meta)


#: the pair construction of each adversary class
_PAIRS = {"sup": sine_pair, "lip": bump_pair}


def cmd_adversary(cfg: ExperimentConfig, out: Path) -> None:
    deltas = sorted(cfg.deltas, reverse=True)
    rows = []
    for i, delta in enumerate(deltas):
        pair = _PAIRS[cfg.class_kind](cfg.m, delta, n=cfg.grid)
        write_pair_csv(pair, out / f"pair_{i:03d}.csv")
        rows.append((delta, pair.separation))
    _write_table(out / "diameters.csv", "delta,separation", rows)


def _compactum(cfg: ExperimentConfig) -> CompactumSpec:
    a = cfg.a if cfg.phi == "holder-norm" else None
    return CompactumSpec(cfg.phi, cfg.c, a=a)


def cmd_variational(cfg: ExperimentConfig, out: Path) -> None:
    u = builtin_truth(cfg.truth, cfg.grid or 101)
    spec = _compactum(cfg)
    rows = convergence_study(u, cfg.deltas, spec, ProblemSpec(),
                             noise=cfg.noise, seed=cfg.seed)
    _write_table(out / "convergence.csv", ",".join(StudyRow._fields), rows)
    phi_u = spec.phi_value(u)
    for row in rows:
        bound = 2.0 * (1.0 + phi_u) * row.delta
        if row.objective > bound:
            print(f"wcreg: warning: at delta {row.delta!r} the objective F = "
                  f"{row.objective!r} exceeds the certificate 2(1+phi(u))delta = {bound!r}",
                  file=sys.stderr)


def cmd_modulus(cfg: ExperimentConfig, out: Path) -> None:
    spec = _compactum(cfg)
    lattice = LatticeCompactum(cfg.lattice_nodes,
                               tuple(np.linspace(-cfg.c, cfg.c, cfg.levels)),
                               spec, constants_only=cfg.constants_only)
    deltas = sorted(cfg.deltas, reverse=True)
    rows = list(zip(deltas, modulus_bruteforce(lattice, deltas, ProblemSpec())))
    _write_table(out / "modulus.csv", "delta,omega", rows)


#: each command's runner and the config fields it reads besides `out`; a
#: flag for any other field is accepted but ignored, with a warning on stderr
_COMMANDS = {
    "differentiate": (cmd_differentiate,
                      {"grid", "input", "truth", "delta", "a", "m", "noise", "seed"}),
    "sweep": (cmd_sweep, {"grid", "truth", "deltas", "a", "m", "noise", "seed"}),
    "adversary": (cmd_adversary, {"grid", "deltas", "m", "class_kind"}),
    "variational": (cmd_variational,
                    {"grid", "truth", "deltas", "a", "c", "phi", "noise", "seed"}),
    "modulus": (cmd_modulus, {"deltas", "a", "c", "phi", "mode", "levels", "lattice_nodes",
                              "constants_only"}),
}
COMMANDS = tuple(_COMMANDS)


def _reads(command: str, input_file) -> set:
    """The fields `command` reads, `out` included; with an input file,
    differentiate makes no data."""
    reads = _COMMANDS[command][1] | {"out"}
    if command == "differentiate" and input_file is not None:
        reads -= {"grid", "truth", "noise", "seed"}
    return reads


# ---------------------------------------------------------------------------
# validation


def _validate(cfg: ExperimentConfig) -> None:
    """Check, in order, the rules of the fields the command reads.  Each rule
    is a row (field, ok, message); only sweep's row names a command.  Every
    row is evaluated, so its test must be safe for any config.  A command
    line that breaks several rules reports the first one its command checks."""
    reads = _reads(cfg.command, cfg.input)
    rules = (
        ("out", cfg.out is not None, "--out is required"),
        ("grid", cfg.grid is None or cfg.grid >= 5, "grid must have at least 5 nodes"),
        ("deltas", all(d > 0 for d in cfg.deltas), "all deltas must be positive"),
        ("noise", cfg.noise in _NOISE_ALIASES, f"unknown noise model {cfg.noise!r}"),
        ("delta", cfg.delta is not None and cfg.delta > 0, "delta must be positive"),
        ("deltas", cfg.command != "sweep" or len(cfg.deltas) >= 2,
         "sweep needs at least 2 deltas"),
        ("class_kind", cfg.class_kind in _PAIRS,
         f"class must be 'sup' or 'lip', got {cfg.class_kind!r}"),
        ("phi", cfg.phi in PHI_KINDS,
         f"phi must be 'sup-norm' or 'holder-norm', got {cfg.phi!r}"),
        ("c", cfg.c > 0, "compactum bound c must be positive"),
        # the step rule is for the Holder class of --a and --m; a class given
        # by --phi has an exponent only when phi is the Holder norm
        ("a", "phi" in reads or cfg.a > 1.0, "the step rule requires a > 1"),
        ("a", ("phi" in reads and cfg.phi != "holder-norm") or 0.0 < cfg.a <= 2.0,
         f"Holder exponent a must lie in (0, 2], got {cfg.a}"),
        ("m", cfg.m > 0, "class bound m must be positive"),
        ("input", cfg.input is None or Path(cfg.input).is_file(),
         f"input file not found: {cfg.input}"),
        ("seed", cfg.seed >= 0, "seed must be nonnegative"),
        ("mode", cfg.mode == "bruteforce", f"mode must be 'bruteforce', got {cfg.mode!r}"),
        ("levels", cfg.levels >= 1, "levels must be at least 1"),
        ("lattice_nodes", cfg.lattice_nodes >= 2, "lattice needs at least 2 nodes"),
        # an infinite bound passes the sign rules above; checked last, so a
        # line that breaks those rules too keeps their message
        ("delta", cfg.delta is None or math.isfinite(cfg.delta), "--delta must be finite"),
        ("deltas", all(map(math.isfinite, cfg.deltas)), "--deltas must be finite"),
        ("m", math.isfinite(cfg.m), "--m must be finite"),
        ("c", math.isfinite(cfg.c), "--c must be finite"),
    )
    for field, ok, message in rules:
        if not ok and field in reads:
            raise ConfigError(message)


# ---------------------------------------------------------------------------
# argument plumbing


#: config fields set by a flag: every field but the command itself
_FLAG_FIELDS = tuple(name for name in ExperimentConfig._fields if name != "command")
_FLAG_HELP = {"out": "output directory", "deltas": "comma-separated list"}


def _build_parser() -> argparse.ArgumentParser:
    """The command and one flag per config field (its config-file key), in any
    order.  Values stay strings, so `ExperimentConfig.updated` parses them as
    it parses a file."""
    parser = argparse.ArgumentParser(prog="wcreg",
                                     description="worst-case regularization toolkit")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="key=value config file")
    for field in _FLAG_FIELDS:
        parser.add_argument("--" + _key(field), dest=field, default=None,
                            help=_FLAG_HELP.get(field))
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
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's rejections (2) and --help (0)
        return exc.code
    try:
        cfg, error = _merge(args), None
    except ConfigError as exc:  # reported after the warnings, which then go by the flags
        cfg, error = None, exc
    reads = _reads(args.command, args.input if cfg is None else cfg.input)
    for field in _FLAG_FIELDS:
        if getattr(args, field) is not None and field not in reads:
            print(f"wcreg: warning: {args.command} ignores --{_key(field)}", file=sys.stderr)
    try:
        if error is not None:
            raise error
        _validate(cfg)
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[cfg.command][0](cfg, out)
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
