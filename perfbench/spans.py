"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, workload).  Names are
``<module>.<public call>``, so a span's module is the text before the first
dot.  Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records spans around calls into convexloc; one thread, one stack."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent, workload]
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.workload])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn):
        """fn with a span around every call."""
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        return traced

    def total_s(self, name: str) -> float:
        """Summed duration of all spans called name."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name) / 1e9

    def self_times(self) -> dict[str, float]:
        """Seconds per module: span durations minus what child spans cover.

        Children of one parent never overlap (one thread), so the covered
        part of a parent is the sum of its children's durations.
        """
        covered = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), cov in zip(self.spans, covered):
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + (end - start - cov) / 1e9
        return out

    def write(self, path) -> None:
        """One JSON object per span, gzipped: a scalar workload makes ~10^6."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for sid, (name, start, end, parent, workload) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "workload": workload}) + "\n")


class NullTracer:
    """Tracing off: calls go straight to the program."""

    workload = None

    def span(self, name: str):
        return nullcontext()

    def wrap(self, name: str, fn):
        return fn
