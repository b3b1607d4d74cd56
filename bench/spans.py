"""Measure syncword's layers from outside the program.

`Patcher` replaces a function everywhere it is bound: on its own module and
on every ``from .x import f`` binding in the other modules of the package,
so calls made inside the package go through the replacement too.

`Recorder` uses it to wrap every public function of the layer modules (and
every public method of their classes) in a span: name, start, end, parent
span and op id.  Spans are kept in flat arrays in memory and written out
once, at the end.  Counters are read from return values only, never from
inside the program.  Spans inside forked scan workers are not recorded: the
recorder switches itself off in a forked child.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import os
from array import array
from collections import Counter
from operator import sub
from time import perf_counter

# One layer per module, listed bottom-up.
LAYERS = ("automaton", "word_matrix", "linspace", "series", "sync",
          "enumeration", "cli")

# Only `main` is wrapped in the CLI, so its self time is everything the CLI
# does itself: argparse set-up, input loading, JSON encoding and output.
CLI_WRAPPED = ("main",)

# Private methods that are layer boundaries in their own right.
EXTRA_METHODS = {("linspace", "SpanSolver", "__init__")}

SYNC_CHECKS = ("is_irreducible", "suffix_distinctness_check",
               "near_sync_suffixes", "left_stability_check",
               "reset_collapse_check")


def _subsets(counters, result):
    if result is not None:
        counters["sync.subsets_expanded"] += result.states_expanded


def _adds(counters, result):
    counters["linspace.adds_attempted"] += 1
    counters["linspace.adds_useful"] += bool(result)


def _battery(counters, result):
    counters["enumeration.checks_run"] += len(result)
    counters["enumeration.checks_failed"] += sum(not r.passed for r in result)


def _scan(counters, result):
    counters["enumeration.tables_covered"] += result.n ** (result.n * result.k)
    counters["enumeration.tables_searched"] += result.total


RETURN_HOOKS = {
    "sync.shortest_reset_word": _subsets,
    "linspace.RowEchelon.add": _adds,
    "enumeration.verify_automaton": _battery,
    "enumeration.extremal_scan": _scan,
}


def layer_modules() -> dict:
    return {layer: importlib.import_module(f"syncword.{layer}")
            for layer in LAYERS}


class Patcher:
    """Rebinds names across the syncword package and undoes it in reverse."""

    def __init__(self):
        import syncword
        self.modules = [syncword, *layer_modules().values()]
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_function(self, original, replacement):
        """Point every module-level binding of `original` at `replacement`."""
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def replace_method(self, cls, attr: str, replacement):
        self._set(cls, attr, replacement)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Recorder:
    """Span recorder installed as wrappers around the layers' public API."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counters: Counter = Counter()
        self.active = False
        self._patcher: Patcher | None = None
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        self.active = False

    def _wrap(self, fn, span_name: str):
        sid = self._ids.setdefault(span_name, len(self.names))
        if sid == len(self.names):
            self.names.append(span_name)
        hook = RETURN_HOOKS.get(span_name)
        rec = self
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self.stack

        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(sid)
            parents.append(stack[-1])
            ops.append(rec.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(rec.counters, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        patcher = Patcher()
        for layer, mod in layer_modules().items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if layer == "cli":
                    if attr in CLI_WRAPPED:
                        patcher.replace_function(obj, self._wrap(obj, f"cli.{attr}"))
                elif inspect.isfunction(obj) and not attr.startswith("_"):
                    patcher.replace_function(obj, self._wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    self._wrap_class(patcher, layer, obj)
        self._patcher = patcher
        self.active = True

    def _wrap_class(self, patcher: Patcher, layer: str, cls):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and (layer, cls.__name__, attr) not in EXTRA_METHODS:
                continue
            span_name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(value):
                patcher.replace_method(cls, attr, self._wrap(value, span_name))
            elif isinstance(value, (classmethod, staticmethod)):
                patcher.replace_method(
                    cls, attr, type(value)(self._wrap(value.__func__, span_name)))

    def uninstall(self):
        self.active = False
        if self._patcher is not None:
            self._patcher.undo()
            self._patcher = None

    # -- analysis --------------------------------------------------------

    def summarize(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls nest strictly, so the children never overlap.
        """
        durations = array("d", map(sub, self.end, self.start))
        selfs = array("d", durations)
        for i, p in enumerate(self.parent):
            if p >= 0:
                selfs[p] -= durations[i]
        count = len(self.names)
        calls, incl, own = [0] * count, [0.0] * count, [0.0] * count
        for i, sid in enumerate(self.name):
            calls[sid] += 1
            incl[sid] += durations[i]
            own[sid] += selfs[i]
        return {name: {"calls": calls[sid], "incl_s": incl[sid], "self_s": own[sid]}
                for sid, name in enumerate(self.names)}

    def write(self, path):
        """Gzip file: one JSON header line, then the raw field arrays in order."""
        header = {"names": self.names, "spans": len(self.name),
                  "fields": [["name", "i"], ["parent", "i"], ["op", "i"],
                             ["start", "d"], ["end", "d"]],
                  "counters": dict(self.counters)}
        with gzip.open(path, "wb", compresslevel=1) as f:
            f.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(f)


def layer_metrics(summary: dict[str, dict], counters: Counter) -> dict[str, float]:
    """The per-layer metrics of the benchmark, from one traced pass."""

    def total(prefix: str, field: str = "self_s", names=None) -> float:
        return sum(entry[field] for name, entry in summary.items()
                   if name.startswith(prefix)
                   and (names is None or name.rsplit(".", 1)[1] in names))

    def one(name: str, field: str):
        return summary.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    subsets = counters["sync.subsets_expanded"]
    covered = counters["enumeration.tables_covered"]
    out = {"cli.main.self_s": one("cli.main", "self_s")}
    for layer in LAYERS[:-1]:
        out[f"{layer}.self_s"] = total(f"{layer}.")
    out["automaton.calls"] = total("automaton.", "calls")
    out["series.calls"] = total("series.", "calls")
    for name in ("sync.shortest_reset_word", "word_matrix.matrix_of_word",
                 "word_matrix.multiply", "linspace.RowEchelon.add",
                 "linspace.RowEchelon.contains", "linspace.SpanSolver.solve",
                 "enumeration.canonical_flat"):
        out[f"{name}.calls"] = one(name, "calls")
        out[f"{name}.self_s"] = one(name, "self_s")
    out["sync.subsets_expanded"] = subsets
    out["sync.us_per_subset"] = ratio(
        1e6 * one("sync.shortest_reset_word", "self_s"), subsets)
    out["sync.checks.self_s"] = total("sync.", names=SYNC_CHECKS)
    out["linspace.SpanSolver.factor_s"] = one("linspace.SpanSolver.__init__", "incl_s")
    out["linspace.flatten.calls"] = one("linspace.flatten", "calls")
    out["linspace.add_useful_ratio"] = ratio(counters["linspace.adds_useful"],
                                             counters["linspace.adds_attempted"])
    out["enumeration.extremal_scan.self_s"] = one("enumeration.extremal_scan", "self_s")
    out["enumeration.tables_covered"] = covered
    out["enumeration.tables_searched"] = counters["enumeration.tables_searched"]
    out["enumeration.searched_ratio"] = ratio(
        counters["enumeration.tables_searched"], covered)
    out["enumeration.us_per_table"] = ratio(
        1e6 * one("enumeration.extremal_scan", "incl_s"), covered)
    out["enumeration.verify_automaton.self_s"] = one(
        "enumeration.verify_automaton", "self_s")
    out["enumeration.checks_run"] = counters["enumeration.checks_run"]
    out["enumeration.checks_failed"] = counters["enumeration.checks_failed"]
    return out
