"""Spans and counters recorded around the benchmark's calls into rfplan.

A span is one call into a layer's public function: name, start, end, parent
span, op id and phase ("op" for the timed path, "reference" for the
in-process re-runs a check needs, "probe" for cold-start probes). Spans stay
in memory and are written out once, when the run ends. Untraced runs use
NullTracer, whose hooks do nothing.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class NullTracer:
    op = None
    phase = "op"

    def span(self, name: str):
        return _NULL

    def count(self, name: str, n: float = 1) -> None:
        pass

    def peak(self, name: str, value: float) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self) -> None:
        # [id, name, start, end, parent, op, phase]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), name, time.perf_counter(), None, parent, self.op, self.phase]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def durations(self) -> dict[str, list[float]]:
        """Span durations in seconds, grouped by span name."""
        out: dict[str, list[float]] = defaultdict(list)
        for _, name, start, end, *_ in self.spans:
            out[name].append(end - start)
        return out

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover.

        Spans nest strictly (one thread, context managers), so direct
        children never overlap and their durations simply add.
        """
        own = [end - start for _, _, start, end, *_ in self.spans]
        for _, _, start, end, parent, *_ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def coverage(self, root: str = "op") -> dict:
        """How much of the root spans' wall time their child spans account for."""
        own = self.self_times()
        total = 0.0
        uncovered = 0.0
        by_child: dict[str, float] = defaultdict(float)
        roots = {s[0] for s in self.spans if s[1] == root}
        for sid, name, start, end, parent, *_ in self.spans:
            if sid in roots:
                total += end - start
                uncovered += own[sid]
            elif parent in roots:
                by_child[name] += end - start
        return {
            "root_wall_s": total,
            "uncovered_frac": uncovered / total if total else 0.0,
            "child_share": {k: v / total for k, v in sorted(by_child.items())} if total else {},
        }

    def write(self, path) -> None:
        """Spans as JSON lines, one span per line."""
        keys = ("id", "name", "start", "end", "parent", "op", "phase")
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")
