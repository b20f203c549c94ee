"""Experiment configuration: flat key=value files, flag overrides.

The format is one `key = value` pair per line with `#` comments, chosen to
be trivially parseable and diff-friendly for experiment provenance.  One
rule, `_key`, names each field's key and flag, and one map, `_PARSERS`,
turns a key's string into the field's value.
"""

# no `from __future__ import annotations`: NamedTuple would compile each of
# the field annotations, kept as strings, into a ForwardRef at import
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError

__all__ = ["ExperimentConfig", "parse_key_values"]


def _key(field: str) -> str:
    """The file key and flag name of a config field."""
    return "class" if field == "class_kind" else field.replace("_", "-")


#: the words a yes/no field accepts
_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

#: the parser of each field that is not a string; a bad value makes it
#: raise ValueError or KeyError
_PARSERS = {
    **dict.fromkeys(("seed", "grid", "count", "levels", "lattice_nodes"), int),
    **dict.fromkeys(("delta", "a", "m", "c"), float),
    "deltas": lambda raw: tuple(float(tok) for tok in raw.split(",") if tok.strip()),
    "constants_only": lambda raw: _BOOLEANS[raw.lower()],
}


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
    # read by no command: bench/workloads.py still passes `sweep --count`
    count: int = 100
    mode: str = "bruteforce"
    levels: int = 21
    lattice_nodes: int = 3
    constants_only: bool = False

    def updated(self, overrides: dict) -> "ExperimentConfig":
        """New config with string/typed overrides applied on top of self."""
        values = {}
        for key, raw in overrides.items():
            name = "class_kind" if key == "class" else key.replace("-", "_")
            if name not in self._fields:
                raise ConfigError(f"unknown config key {key!r}")
            if isinstance(raw, str):
                raw = raw.strip()
                try:
                    raw = _PARSERS.get(name, str)(raw)
                except (KeyError, ValueError) as exc:
                    raise ConfigError(f"bad value for {name!r}: {raw!r}") from exc
            values[name] = raw
        return self._replace(**values)


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
