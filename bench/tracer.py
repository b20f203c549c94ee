"""Spans around wcreg's public functions, recorded from outside the package.

wcreg modules bind each other's functions by name (`from .grid import
holder_norm`), so a call from `wcreg.adversary` goes through the name bound
in `wcreg.adversary`, not through `wcreg.grid`.  `Tracer.install` therefore
rebinds every public function in *every* wcreg module namespace that holds
it, and `uninstall` restores the originals.

A span is (name, start_ns, end_ns, parent index, note).  Spans stay in
memory until the caller writes them out.  A layer's self time is its span's
duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

#: wcreg modules whose public (`__all__`) functions are wrapped
LAYERS = ("grid", "operators", "derivative", "adversary", "variational", "modulus",
          "cli", "config")

#: layers reported as a self-time total (cli has its own cli.main.self_s)
COMPUTE_LAYERS = ("grid", "operators", "derivative", "adversary", "variational",
                  "modulus")

#: called once per written value; a span each would swamp what it measures,
#: so its time counts in the caller's self time
UNWRAPPED = {"grid.format_float"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _holder_pairs(args, kwargs, result):
    n = _arg(args, kwargs, 0, "f").n
    scanned = n if _arg(args, kwargs, 1, "a") <= 1.0 else n - 1
    return scanned * scanned


def _sample_counts(args, kwargs, result):
    return (_arg(args, kwargs, 1, "count"), len(result))


#: per-call facts a metric needs, taken from the arguments and the result
NOTES = {
    "grid.holder_norm": _holder_pairs,
    "adversary.is_feasible": lambda args, kwargs, result: bool(result.feasible),
    "adversary.sample_feasible": _sample_counts,
    "adversary.bump_pair": lambda args, kwargs, result: result.v1.n,
    "variational.minimize": lambda args, kwargs, result: _arg(args, kwargs, 3, "budget"),
    "modulus.LatticeCompactum.members": lambda args, kwargs, result: len(result),
}


class Tracer:
    """Records spans for wcreg's public functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, func, name):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if note is not None:
                spans[idx] = (name, start, end, parent, note(args, kwargs, result))
            return result

        return traced

    def _rebind(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"wcreg.{layer}")
            for attr in mod.__all__:
                func = getattr(mod, attr)
                name = f"{layer}.{attr}"
                if (inspect.isfunction(func) and func.__module__ == mod.__name__
                        and name not in UNWRAPPED):
                    wrappers[id(func)] = self._wrap(func, name)
        for key, mod in sorted(sys.modules.items()):
            if key == "wcreg" or key.startswith("wcreg."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrappers:
                        self._rebind(mod, attr, wrappers[id(value)])
        lattice = sys.modules["wcreg.modulus"].LatticeCompactum
        self._rebind(lattice, "members",
                     self._wrap(lattice.members, "modulus.LatticeCompactum.members"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _self_ns(spans: list[tuple]) -> list[int]:
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; 0 where a layer was not called."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    notes: dict[str, list] = {}
    for (name, _, _, _, info), ns in zip(spans, _self_ns(spans)):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + ns * 1e-9
        notes.setdefault(name, []).append(info)
    # pairs scanned by each brute-force call, from its own members() child
    lattice_pairs = sum(m * (m - 1) // 2
                        for (name, _, _, parent, m) in spans
                        if name == "modulus.LatticeCompactum.members" and parent >= 0
                        and spans[parent][0] == "modulus.modulus_bruteforce")
    holder_pairs = sum(notes.get("grid.holder_norm", []))
    samples = notes.get("adversary.sample_feasible", [])
    members = sum(got for _, got in samples)
    budget = sum(notes.get("variational.minimize", []))

    def s(name):
        return self_s.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    out = {
        "grid.holder_norm.calls": c("grid.holder_norm"),
        "grid.holder_norm.self_s": s("grid.holder_norm"),
        "grid.holder_norm.ns_per_pair": _ratio(s("grid.holder_norm") * 1e9, holder_pairs),
        "grid.integrate.calls": c("grid.integrate"),
        "grid.integrate.self_s": s("grid.integrate"),
        "adversary.is_feasible.calls": c("adversary.is_feasible"),
        "adversary.is_feasible.self_s": s("adversary.is_feasible"),
        "adversary.is_feasible.accept_ratio": _ratio(
            sum(notes.get("adversary.is_feasible", [])), c("adversary.is_feasible")),
        "adversary.sample_feasible.self_s": s("adversary.sample_feasible"),
        "adversary.sample_feasible.s_per_member": _ratio(s("adversary.sample_feasible"),
                                                         members),
        "adversary.sample_feasible.fill_ratio": _ratio(members,
                                                       sum(want for want, _ in samples)),
        "adversary.bump_pair.self_s": s("adversary.bump_pair"),
        "adversary.bump_pair.n": max(notes.get("adversary.bump_pair", [0])),
        "adversary.write_pair_csv.self_s": s("adversary.write_pair_csv"),
        "derivative.regularize.calls": c("derivative.regularize"),
        "derivative.regularize.self_s": s("derivative.regularize"),
        "variational.minimize.self_s": s("variational.minimize"),
        "variational.minimize.s_per_iter": _ratio(s("variational.minimize"), budget),
        "operators.integration_matrix.calls": c("operators.integration_matrix"),
        "operators.integration_matrix.self_s": s("operators.integration_matrix"),
        "modulus.LatticeCompactum.members.self_s": s("modulus.LatticeCompactum.members"),
        "modulus.modulus_bruteforce.self_s": s("modulus.modulus_bruteforce"),
        "modulus.modulus_bruteforce.pairs": lattice_pairs,
        "modulus.modulus_bruteforce.ns_per_pair": _ratio(
            s("modulus.modulus_bruteforce") * 1e9, lattice_pairs),
        "cli.main.self_s": s("cli.main"),
    }
    for layer in COMPUTE_LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                     if k.startswith(layer + "."))
    return out


def top_self_times(spans: list[tuple], limit: int = 5) -> list[tuple[str, float]]:
    """The functions with the most self time in these spans, largest first."""
    totals: dict[str, float] = {}
    for (name, *_), ns in zip(spans, _self_ns(spans)):
        totals[name] = totals.get(name, 0.0) + ns * 1e-9
    return sorted(totals.items(), key=lambda kv: -kv[1])[:limit]
