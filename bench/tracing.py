"""Spans and counters wrapped around the library from outside.

Tracer.install_spans replaces every public function of the library's
modules with a timing wrapper, in every module namespace that binds it, and
uninstall puts the originals back; nothing under src/ is edited. Spans are
aggregated in memory per name: calls, total seconds, self seconds (total
minus the time of child spans), items emitted (length of list results) and
repeated calls (arguments already seen by this tracer).

Tracer.install_counts wraps the hottest small operations instead (gfpoly
arithmetic, GammaVec construction and arithmetic, Lattice construction)
with bare counters. Run it in a pass of its own: timing millions of tiny
calls would distort the spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("roots", "limits", "partitions", "kostant", "strata", "gfpoly", "oracle", "cli")
REPEAT_TRACKED = frozenset({"partitions.gamma_partitions", "kostant.kostant_poly"})
GFPOLY_COUNTED = ("mul", "add", "sub", "divmod_poly", "xgcd", "div_z_power")
GAMMAVEC_COUNTED = ("__post_init__", "leq", "__add__", "__sub__")
# counter names, which are also the names of the metrics they feed
COUNTERS = frozenset(
    {f"gfpoly.{op}.calls" for op in GFPOLY_COUNTED} | {"roots.gammavec_ops.calls", "oracle.lattice.constructed"}
)


class SpanStat:
    __slots__ = ("calls", "total_s", "self_s", "emitted", "repeats")

    def __init__(self) -> None:
        self.calls = self.emitted = self.repeats = 0
        self.total_s = self.self_s = 0.0

    def as_list(self) -> list:
        return [self.calls, self.total_s, self.self_s, self.emitted, self.repeats]

    def merge(self, values) -> None:
        calls, total_s, self_s, emitted, repeats = values
        self.calls += calls
        self.total_s += total_s
        self.self_s += self_s
        self.emitted += emitted
        self.repeats += repeats


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, SpanStat] = {}
        self.counts: dict[str, int] = {}
        # seconds in spans opened while no span was open
        self.top_s = 0.0
        # seconds in library spans whose parent is a cli span
        self.under_cli_s = 0.0
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    @staticmethod
    def _modules() -> dict:
        mods = {layer: importlib.import_module(f"quasiflags.{layer}") for layer in LAYERS}
        mods["quasiflags"] = importlib.import_module("quasiflags")
        return mods

    def install_spans(self) -> None:
        """Time every public module-level function except gfpoly's."""
        mods = self._modules()
        for layer in LAYERS:
            if layer == "gfpoly":
                continue
            mod = mods[layer]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                self._rebind(mods.values(), fn, self._span(layer, f"{layer}.{name}", fn))

    def install_counts(self) -> None:
        mods = self._modules()
        for name in GFPOLY_COUNTED:
            fn = getattr(mods["gfpoly"], name)
            self._rebind(mods.values(), fn, self._counter(f"gfpoly.{name}.calls", fn))
        gammavec = mods["roots"].GammaVec
        for name in GAMMAVEC_COUNTED:
            self._patch(gammavec, name, self._counter("roots.gammavec_ops.calls", gammavec.__dict__[name]))
        lattice = mods["oracle"].Lattice
        self._patch(lattice, "__post_init__", self._counter("oracle.lattice.constructed", lattice.__post_init__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrappers -----------------------------------------------------------

    def _span(self, layer: str, name: str, fn):
        stat = self.spans.setdefault(name, SpanStat())
        stack = self._stack
        seen = set() if name in REPEAT_TRACKED else None
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if seen is not None:
                key = (args, tuple(sorted(kwargs.items())))
                if key in seen:
                    stat.repeats += 1
                else:
                    seen.add(key)
            frame = [0.0, layer]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    if parent[1] == "cli" and layer != "cli":
                        self.under_cli_s += dt
                else:
                    self.top_s += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - frame[0]
            if type(result) is list:
                stat.emitted += len(result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- spans timed by the caller -------------------------------------------

    def record(self, name: str, seconds: float, child_s: float = 0.0) -> None:
        """Add one top-level span measured outside any wrapper."""
        self.spans.setdefault(name, SpanStat()).merge([1, seconds, seconds - child_s, 0, 0])
        self.top_s += seconds

    def merge(self, other: dict) -> None:
        """Fold in the as_dict() of a tracer from another process."""
        for name, values in other["spans"].items():
            self.spans.setdefault(name, SpanStat()).merge(values)
        for name, n in other["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + n
        self.under_cli_s += other["under_cli_s"]

    def as_dict(self) -> dict:
        return {
            "spans": {name: stat.as_list() for name, stat in self.spans.items()},
            "counts": dict(self.counts),
            "top_s": self.top_s,
            "under_cli_s": self.under_cli_s,
        }
