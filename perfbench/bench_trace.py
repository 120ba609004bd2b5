"""Span tracer for the census benchmark.

Spans are opened around calls into the program, by wrapping module-level
names from outside the program.  Fine-grained spans (hundreds of thousands
of zeta calls) are folded into per-name totals as they close: inclusive
time, self time (duration minus the time covered by child spans) and call
counts.  Raw spans are kept only for names marked ``keep`` (the operation
and chunk level), and are written out when the run ends.
"""

import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.total = defaultdict(float)  # name -> inclusive seconds
        self.self_time = defaultdict(float)  # name -> seconds not covered by children
        self.calls = Counter()
        self.counters = Counter()  # named counts recorded by observers
        self.distinct = defaultdict(set)  # name -> distinct keys seen
        self.spans = []  # raw spans of the kept names
        self._stack = []  # open spans: [name, start, child_seconds, span_id]
        self._active = Counter()
        self._next_id = 1

    def open(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0, self._next_id])
        self._next_id += 1
        self._active[name] += 1

    def close(self, keep: bool = False) -> None:
        end = self.clock()
        name, start, child, span_id = self._stack.pop()
        self._active[name] -= 1
        dur = end - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        if keep:
            parent = self._stack[-1][3] if self._stack else None
            self.spans.append({"id": span_id, "parent": parent, "name": name,
                               "start": start, "end": end})

    @contextmanager
    def span(self, name: str, keep: bool = False):
        self.open(name)
        try:
            yield
        finally:
            self.close(keep)

    def wrap(self, fn, name: str, keep: bool = False, observe=None):
        """fn traced as span `name`; observe(tracer, args, result) runs after
        the span closes.  A call made while `name` is already open (recursion)
        passes straight through, so totals never count a nested call twice."""
        tracer = self

        def traced(*args, **kwargs):
            if tracer._active[name]:
                return fn(*args, **kwargs)
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(keep)
            if observe is not None:
                observe(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Plain-data aggregates, mergeable across processes with merge()."""
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "distinct": {k: sorted(map(repr, v)) for k, v in self.distinct.items()},
        }


def merge(summaries) -> dict:
    out = {"total": Counter(), "self": Counter(), "calls": Counter(),
           "counters": Counter(), "distinct": defaultdict(set)}
    for s in summaries:
        for key in ("total", "self", "calls", "counters"):
            out[key].update(s[key])
        for k, v in s["distinct"].items():
            out["distinct"][k].update(v)
    return out


@contextmanager
def patched(targets):
    """Temporarily replace module attributes: targets is [(module, attr, new)]."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, new in targets:
            setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, old in reversed(saved):
            setattr(mod, attr, old)
