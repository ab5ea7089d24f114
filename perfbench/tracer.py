"""Outside-in layer tracer for the hilbloch benchmark.

The tracer never edits the program.  It replaces a public function or method
with a timing wrapper at every place the program can reach it from: the
attribute of the class that defines a method, every module-level name in the
``hilbloch`` package bound to a function (``from .quadrature import
integrate_radial`` in ``measures``, ``weights`` and ``suites`` makes three such
names), and every module-level dict that holds the function (the norm and
report-format dispatch tables).  ``uninstall`` puts every original back.

Each call becomes a span (name, start, end, parent) kept in memory.  Self time
is a span's duration minus the durations of the wrapped calls made inside it,
so the self times of all spans add up to the duration of the root span.
Inclusive time is summed only over the outermost span of each name, so a
name that calls itself is not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "hilbloch"


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``qualname`` is ``func`` or ``Class.method`` inside ``module``.  ``span``
    names the span; a callable receives the call's arguments and returns the
    name.  ``before`` may count work and may replace the arguments, for
    example to wrap an integrand; it returns ``(args, kwargs)``.
    """

    module: str
    qualname: str
    span: str | Callable
    before: Callable | None = None


class LayerStats:
    __slots__ = ("calls", "inclusive", "self_time")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stats: dict[str, LayerStats] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, child time, outermost]
        self._active: dict[str, int] = {}
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        depth = self._active.get(name, 0)
        self._active[name] = depth + 1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append([len(self.spans) - 1, 0.0, depth == 0])

    def exit(self) -> None:
        end = time.perf_counter()
        index, child_time, outermost = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        name = span[0]
        self._active[name] -= 1
        duration = end - span[1]
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = LayerStats()
        stats.calls += 1
        stats.self_time += duration - child_time
        if outermost:
            stats.inclusive += duration
        if self._stack:
            self._stack[-1][1] += duration

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    # -- patching ------------------------------------------------------------

    def wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self
        span, before = target.span, target.before

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            tracer.enter(span(*args, **kwargs) if callable(span) else span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    def install(self, targets) -> None:
        """Wrap every target at every binding inside the loaded package."""
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for target in targets:
            owner = sys.modules[target.module]
            if "." in target.qualname:
                cls_name, attr = target.qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, original, self.wrap(original, target))
                continue
            original = getattr(owner, target.qualname)
            wrapper = self.wrap(original, target)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, original, wrapper)
                    elif type(value) is dict:
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                value[dkey] = wrapper
                                self._patches.append((value, dkey, original, True))

    def _set(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, False))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original, is_dict = self._patches.pop()
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)


def write_spans(path, tracers) -> None:
    """Write the spans of each tracer (one per round) as JSON lines, gzip-compressed."""
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for number, tracer in enumerate(tracers):
            for index, (name, start, end, parent) in enumerate(tracer.spans):
                row = {"round": number, "id": index, "name": name, "start": start, "end": end, "parent": parent}
                out.write(json.dumps(row) + "\n")
