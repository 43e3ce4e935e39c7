"""In-memory spans around calls into amigram's modules, and their summary.

A span records (name, start, end, parent, request, count, failed).  Its
name is ``<module>.<function>`` for a call into amigram, or ``request.<kind>``
for a benchmark request that groups such calls.  ``count`` is how many
units of work the span covers: 1 for a single call, the number of cells or
shapes when one span covers a batch of sub-microsecond calls.  Self time is
a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from statistics import median
from time import perf_counter_ns

MODULES = ("core", "amicability", "census", "families", "render", "cli")

NAME, START, END, PARENT, REQUEST, COUNT, FAILED = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []

    def span(self, name: str, count: int = 1) -> "_Span":
        return _Span(self, name, count)

    def wrap(self, name: str, fn, units=None):
        """``fn`` with a span around every call; ``units(*args)`` gives the
        span's count when one call covers several units of work."""

        def traced(*args):
            with _Span(self, name, units(*args) if units else 1):
                return fn(*args)

        return traced

    def floor_ns(self, rounds: int = 5, calls: int = 2000) -> float:
        """What a span around a call that does nothing measures: the median
        over ``rounds`` of the mean of ``calls`` such spans."""
        means = []
        for _ in range(rounds):
            probe = Tracer()
            noop = probe.wrap("noop", _noop)
            for _ in range(calls):
                noop()
            means.append(sum(s[END] - s[START] for s in probe.spans) / calls)
        return median(means)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for index, s in enumerate(self.spans):
                record = dict(zip(("name", "start_ns", "end_ns", "parent", "request",
                                   "count", "failed"), s))
                record["id"] = index
                handle.write(json.dumps(record) + "\n")


class NullTracer:
    """A tracer that records nothing, for untraced runs: workloads run the
    same code either way, so a traced run differs only by its spans."""

    request = 0

    def span(self, name: str, count: int = 1):
        return _NO_SPAN

    def wrap(self, name: str, fn, units=None):
        return fn


class _NullSpan:
    __slots__ = ()

    def fail(self) -> None:
        pass


_NO_SPAN = nullcontext(_NullSpan())


def _noop() -> None:
    pass


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str, count: int):
        self.tracer = tracer
        self.record = [name, 0, 0, -1, tracer.request, count, False]

    def __enter__(self) -> "_Span":
        tracer, record = self.tracer, self.record
        if tracer._stack:
            record[PARENT] = tracer._stack[-1]
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(record)
        record[START] = perf_counter_ns()
        return self

    def fail(self) -> None:
        self.record[FAILED] = True

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.record[END] = perf_counter_ns()
        self.record[FAILED] = self.record[FAILED] or exc_type is not None
        self.tracer._stack.pop()
        return False


class Summary:
    """Per-name and per-module totals over a list of spans whose parents
    precede them in it (a tracer's spans or a prefix of them)."""

    def __init__(self, spans: list[list], floor_ns: float = 0.0):
        self.floor_ns = floor_ns
        child_ns = [0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        self.total_ns: dict[str, int] = {}
        self.units: dict[str, int] = {}
        self.spans: dict[str, int] = {}
        self.module_calls = dict.fromkeys(MODULES, 0)
        self.module_self_ns = dict.fromkeys(MODULES, 0)
        self.module_failed = dict.fromkeys(MODULES, 0)
        for index, s in enumerate(spans):
            name, duration = s[NAME], s[END] - s[START]
            self.total_ns[name] = self.total_ns.get(name, 0) + duration
            self.units[name] = self.units.get(name, 0) + s[COUNT]
            self.spans[name] = self.spans.get(name, 0) + 1
            module = name.split(".", 1)[0]
            if module in self.module_calls:
                self.module_calls[module] += s[COUNT]
                self.module_self_ns[module] += duration - child_ns[index]
                self.module_failed[module] += s[FAILED]

    def per_unit_ns(self, *names: str) -> float:
        """Mean nanoseconds per unit of work over spans with these names,
        less the span floor of each span."""
        total = sum(
            self.total_ns.get(n, 0) - self.floor_ns * self.spans.get(n, 0)
            for n in names
        )
        units = sum(self.units.get(n, 0) for n in names)
        if not units:
            raise KeyError(f"no spans named {names}")
        return total / units
