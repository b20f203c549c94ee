"""Experiment configuration: flat key=value files, flag overrides.

The format is one `key = value` pair per line with `#` comments, chosen to
be trivially parseable and diff-friendly for experiment provenance.
"""

# no `from __future__ import annotations`: NamedTuple would compile each of
# the field annotations, kept as strings, into a ForwardRef at import
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError

__all__ = ["ExperimentConfig", "parse_key_values"]

# field name <-> file/flag key, where they differ
_FIELD_TO_KEY = {"class_kind": "class", "lattice_nodes": "lattice-nodes",
                 "constants_only": "constants-only"}
_KEY_TO_FIELD = {v: k for k, v in _FIELD_TO_KEY.items()}


class ExperimentConfig(NamedTuple):
    """One experiment's settings, immutable.

    A named tuple, not a dataclass: the class builds in a fraction of the
    time, which every command line pays at start-up.  Like any tuple it
    compares equal to a plain tuple of the same items, and its field
    `count` shadows `tuple.count`.
    """

    command: str = ""
    out: str | None = None
    seed: int = 0
    grid: int | None = None
    input: str | None = None
    truth: str = "quadratic"
    delta: float | None = None
    deltas: tuple = ()
    a: float = 2.0
    m: float = 1.0
    c: float = 1.0
    phi: str = "sup-norm"
    noise: str = "uniform-iid"
    class_kind: str = "sup"
    count: int = 100
    budget: int = 2000
    mode: str = "bruteforce"
    levels: int = 21
    lattice_nodes: int = 3
    constants_only: bool = False

    def updated(self, overrides: dict) -> "ExperimentConfig":
        """New config with string/typed overrides applied on top of self."""
        values = {}
        for key, raw in overrides.items():
            name = _KEY_TO_FIELD.get(key, key.replace("-", "_"))
            if name not in self._fields:
                raise ConfigError(f"unknown config key {key!r}")
            values[name] = _coerce(name, raw) if isinstance(raw, str) else raw
        return self._replace(**values)


_INT_FIELDS = {"seed", "grid", "count", "budget", "levels", "lattice_nodes"}
_FLOAT_FIELDS = {"delta", "a", "m", "c"}


def _coerce(name: str, raw: str):
    raw = raw.strip()
    try:
        if name == "deltas":
            return tuple(float(tok) for tok in raw.split(",") if tok.strip()) if raw else ()
        if name == "constants_only":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if name in _INT_FIELDS:
            return int(raw)
        if name in _FLOAT_FIELDS:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name!r}: {raw!r}") from exc
    return raw


def parse_key_values(path: str | Path) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, str] = {}
    for idx, line in enumerate(p.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{idx}: expected 'key = value', got {line!r}")
        out[key.strip()] = value.strip()
    return out
