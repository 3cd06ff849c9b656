"""Spans and call capture around the layer entry points, from outside scbn.

The wrappers replace the names in ``scbn.experiments``' namespace, that is,
the entry points exactly as the Monte Carlo harness calls them.  Nothing
inside the package changes.  Untraced, a wrapper only keeps the call's
arguments and result for the correctness gates; traced, it also records a
span (name, start, end, parent span) in memory.
"""

from __future__ import annotations

from time import perf_counter

from scbn import experiments

# entry point -> layer (module) it belongs to
ENTRY_POINTS = {
    "generate_scenario": "scenario",
    "resample_positions": "scenario",
    "realize_channels": "propagation",
    "run_matching": "matching",
    "find_blocking_pairs": "matching",
    "best_effort_allocate": "baselines",
    "random_allocate": "baselines",
    "brute_force_min_cost": "oracle",
    "check_constraints": "oracle",
}


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Per-operation record of captured calls and, when traced, spans.

    Span 0 of a traced operation is the operation itself; the spans of the
    wrapped entry points point at the span that was open when they began.
    """

    def __init__(self):
        self.traced = False
        self.calls: list[tuple[str, tuple, object]] = []
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._originals = {name: getattr(experiments, name) for name in ENTRY_POINTS}
        for name, fn in self._originals.items():
            setattr(experiments, name, self._wrap(name, fn))

    def close(self) -> None:
        """Put the package's own entry points back."""
        for name, fn in self._originals.items():
            setattr(experiments, name, fn)

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = self._begin(name) if self.traced else None
            try:
                out = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    self._end(idx)
            self.calls.append((name, args, out))
            return out

        return wrapper

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, perf_counter(), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._open.pop()

    def run(self, name: str, op, i: int):
        """Run operation ``i``; returns (result or exception, seconds)."""
        self.calls = []
        self.spans = []
        self._open = []
        if self.traced:
            self._begin(name)
        t0 = perf_counter()
        try:
            out = op(i)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        elapsed = perf_counter() - t0
        if self.traced:
            self._end(0)
        return out, elapsed

    def self_seconds(self) -> float:
        """The operation's span minus the time its direct children cover."""
        children = sum(s.seconds for s in self.spans if s.parent == 0)
        return self.spans[0].seconds - children
