"""Outside-in spans for the benchmark's traced run.

The tracer wraps library functions at their module bindings, from the
benchmark's side, so nothing under ``src/`` changes.  Every module of the
``inframono`` package that binds the same function object gets the same
wrapper: ``operators.sandwich`` is traced whether ``fischer`` or
``operators`` calls it.  Each span is named ``<module>.<function>`` so an
in-program trace can later emit the same names.

A span's self time is its duration minus the durations of the spans it
directly contains.  Spans and counters live in memory only.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """In-memory span statistics, counters and maxima.

    ``prefix`` is prepended to every name recorded while it is set; the
    benchmark sets it to ``"setup."`` during cold set-up so set-up work
    is kept apart from warm work.
    """

    def __init__(self) -> None:
        self.prefix = ""
        self.spans: dict[str, SpanStats] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[float] = []  # child time covered, one entry per open span

    def _record(self, name: str, duration: float, child: float) -> None:
        stats = self.spans.setdefault(self.prefix + name, SpanStats())
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - child
        if self._stack:
            self._stack[-1] += duration

    def wrap(self, name: str | None, fn, on_result=None):
        """``fn`` inside a span (none if ``name`` is None); ``on_result(tracer, result)``
        sees each return value."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                self._stack.append(0.0)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = perf_counter() - start
                    self._record(name, duration, self._stack.pop())
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    @contextmanager
    def root(self, name: str):
        """A span that has no function behind it."""
        self._stack.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            self._record(name, perf_counter() - start, self._stack.pop())

    def calls(self, name: str) -> int:
        stats = self.spans.get(self.prefix + name)
        return stats.calls if stats else 0

    def add(self, name: str, value: int) -> None:
        key = self.prefix + name
        self.counts[key] = self.counts.get(key, 0) + value

    def raise_to(self, name: str, value: int) -> None:
        key = self.prefix + name
        self.counts[key] = max(self.counts.get(key, 0), value)


@dataclass(frozen=True)
class Target:
    """One function to trace.

    ``module`` is the defining module, ``attr`` its name there (``Class.method``
    for a method), ``span`` the recorded name, or None to only count.  ``decorate(tracer, fn)``, if
    given, adds counting around the function inside the span.
    """

    module: str
    attr: str
    span: str | None
    on_result: Callable | None = None
    decorate: Callable | None = None


class Installation:
    """Wrappers installed at every binding; ``remove()`` restores the originals."""

    def __init__(self, tracer: Tracer, targets: list[Target], extra_modules=()):
        self._patched: list[tuple[object, str, object]] = []
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "inframono" or name.startswith("inframono.")]
        modules.extend(extra_modules)
        for target in targets:
            owner_name, _, attr = target.attr.rpartition(".")
            owner = sys.modules[target.module]
            if owner_name:
                owner = getattr(owner, owner_name)
            original = getattr(owner, attr)
            fn = target.decorate(tracer, original) if target.decorate else original
            wrapper = tracer.wrap(target.span, fn, target.on_result)
            if owner_name:
                self._set(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, original, wrapper)

    def _set(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def remove(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()


def coverage(tracer: Tracer, names: list[str]) -> float:
    """Share of the named spans' total time that falls inside child spans."""
    total = sum(tracer.spans[n].total_s for n in names if n in tracer.spans)
    own = sum(tracer.spans[n].self_s for n in names if n in tracer.spans)
    return (total - own) / total if total else 0.0
