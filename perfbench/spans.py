"""Spans around calls into the program's modules, for the traced mode.

`Tracer` keeps spans in memory as ``(id, parent, name, start, end)``
tuples of a single thread. `instrument` replaces every public function
and method of the traced modules with a wrapper that records one span
per call, in every module namespace that holds a reference to it, and
restores the originals on exit. Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

# module -> layer prefix of its span names
TRACED_MODULES = {
    "phaselab.solver": "solver",
    "phaselab.measures": "measures",
    "phaselab.record": "record",
    "phaselab.sharp": "sharp",
    "phaselab.varifold": "varifold",
    "phaselab.lab.extract": "lab.extract",
    "phaselab.lab.experiments": "lab.experiments",
    "phaselab.lab.config": "lab.config",
}

# Helpers whose time is charged to their caller's span: `observe` is a
# thin shell over `diagnostics` and `write_series_csv` over
# `series_csv_text`, so spans of their own would leave the callers' self
# times near zero. The rest are elementwise or accessor helpers called
# from the step kernel, the measures or the report.
UNTRACED = {
    "measures.diagnostics",
    "solver.double_well",
    "solver.double_well_prime",
    "record.series_csv_text",
    "record.summary",
    "record.series",
    "record.times",
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[int] = []
        self._next = 0

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps([sid, parent, name, start, end]) + "\n")


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``, where a
    span's self time is its duration minus its direct children's."""
    child_time: dict[int, float] = {}
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, dict[str, float]] = {}
    for sid, _, name, start, end in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - child_time.get(sid, 0.0)
    return out


def _targets(modname: str, prefix: str):
    """(owner, attribute, span name) of each public function defined in
    the module and each public method of its public classes."""
    mod = importlib.import_module(modname)
    for attr, obj in list(vars(mod).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
            continue
        if inspect.isfunction(obj):
            yield mod, attr, f"{prefix}.{attr}"
        elif inspect.isclass(obj):
            for meth, fn in list(vars(obj).items()):
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield obj, meth, f"{prefix}.{meth}"


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the traced modules' public callables for the duration of the
    block. Names imported into other modules (``from .x import f``) are
    replaced there too, so a call is traced whichever name it uses."""
    replaced: list[tuple[object, str, object]] = []
    wrappers: dict[int, object] = {}
    for modname, prefix in TRACED_MODULES.items():
        for owner, attr, name in _targets(modname, prefix):
            if name in UNTRACED:
                continue
            fn = vars(owner)[attr]
            wrappers[id(fn)] = tracer.wrap(name, fn)
            replaced.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)])
    for modname, mod in list(sys.modules.items()):
        if modname != "phaselab" and not modname.startswith("phaselab."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                replaced.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
    try:
        yield tracer
    finally:
        for owner, attr, fn in reversed(replaced):
            setattr(owner, attr, fn)
