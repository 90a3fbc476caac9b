"""Spans around the public functions of every ``mfequil`` module.

The wrappers are installed from outside the package: each public function
(and each public method of a class defined in a module, plus ``__init__`` of
the classes that are not dataclasses) is replaced by a wrapper in every
``mfequil`` namespace that binds it, including dicts such as the CLI stage
table.  A wrapper opens a span, calls the original, and closes the span.
Spans nest on one stack, so a span's self time is its duration minus the
durations of the spans it directly contains.

Counts that need an argument or a result (rows fitted, rows projected,
normals drawn, Picard sweeps) are taken at the same boundaries.

No code in ``src/`` knows about any of this; with tracing off nothing is
installed.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import pkgutil
import time

import numpy as np


def _rows_of_last_axis(arr) -> int:
    a = np.asarray(arr)
    return int(a.size // a.shape[-1]) if a.ndim else 1


def _count_project(args, kwargs, result):
    z = args[1] if len(args) > 1 else kwargs["z"]
    return {"rows": _rows_of_last_axis(z)}


def _count_fit(args, kwargs, result):
    targets = args[1] if len(args) > 1 else kwargs["targets"]
    return {"rows": int(np.asarray(targets).shape[0])}


def _count_normals(args, kwargs, result):
    return {"normals": int(np.asarray(result).size)}


def _count_picard(args, kwargs, result):
    sol = result[0] if isinstance(result, tuple) else result
    return {"sweeps": int(sol.picard_iters)}


# span name -> function(args, kwargs, result) -> {counter: increment}
COUNTERS = {
    "market.project": _count_project,
    "regression.RidgeConditioner.fit": _count_fit,
    "paths.normal_block_array": _count_normals,
    "bsde.solve_agent_bsde": _count_picard,
    "bsde.solve_under_q": _count_picard,
}


class Tracer:
    """Span stack plus per-name totals: calls, self and inclusive seconds."""

    def __init__(self):
        self._stack: list[list] = []     # [start, seconds in child spans]
        self.stats: dict[str, dict] = {}

    def _entry(self, name: str) -> dict:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        return entry

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        stack = self._stack
        entry = self._entry(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = time.perf_counter() - frame[0]
                entry["calls"] += 1
                entry["total_s"] += dur
                entry["self_s"] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if counter is not None:
                for key, inc in counter(args, kwargs, result).items():
                    entry[key] = entry.get(key, 0) + inc
            return result

        return traced


# parallel.run_blocks runs its caller's closures (Gram blocks, normal draws);
# a span there would move that work out of the caller's layer.
UNTRACED_MODULES = {"parallel"}


def _targets(package) -> tuple[list, dict]:
    """Modules of the package and {id(original): (span name, original, owner)}."""
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        modules.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    found: dict[int, tuple] = {}
    for mod in modules[1:]:
        short = mod.__name__.rsplit(".", 1)[1]
        if short in UNTRACED_MODULES:
            continue
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found[id(obj)] = (f"{short}.{attr}", obj, None)
            elif inspect.isclass(obj):
                for meth_name, meth in vars(obj).items():
                    public = not meth_name.startswith("_")
                    ctor = meth_name == "__init__" and not dataclasses.is_dataclass(obj)
                    if inspect.isfunction(meth) and (public or ctor):
                        found[id(meth)] = (f"{short}.{obj.__name__}.{meth_name}", meth,
                                           (obj, meth_name))
    return modules, found


def install(tracer: Tracer) -> None:
    """Wrap every public function and method of mfequil, in place."""
    package = importlib.import_module("mfequil")
    modules, found = _targets(package)
    wrappers = {key: tracer.wrap(name, fn) for key, (name, fn, _) in found.items()}
    for key, (_, _, owner) in found.items():
        if owner is not None:
            setattr(owner[0], owner[1], wrappers[key])
    for mod in modules:
        ns = vars(mod)
        for attr, obj in list(ns.items()):
            if id(obj) in wrappers and inspect.isfunction(obj):
                ns[attr] = wrappers[id(obj)]
            elif isinstance(obj, dict):
                for k, v in list(obj.items()):
                    if inspect.isfunction(v) and id(v) in wrappers:
                        obj[k] = wrappers[id(v)]
