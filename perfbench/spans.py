"""In-memory span recorder and runtime call wrappers for the traced run.

A span is one call into a layer: its name, start and end on the tracer's
clock, the index of the span that was open when it began (its parent), and
attributes that a post-call hook read off the result.
Spans stay in memory until ``write`` is called at the end of the run.

Wrappers replace a name where the caller looks it up (a module attribute or
a class attribute) and ``uninstall`` puts the original object back.
"""

from __future__ import annotations

import functools
import gzip
import json
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "attrs")

    def __init__(self, name, start, parent, phase):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.phase = phase
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.phase = "setup"
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent, self.phase))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        if not self._open or self._open[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self._open.pop()
        self.spans[idx].end = self.clock()

    def wrap(self, fn, name: str, post=None):
        """Return ``fn`` wrapped in a span; ``post(result)`` returns the
        span's attributes."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if post is not None:
                tracer.spans[idx].attrs = post(result)
            return result

        return traced

    def install(self, owner, attr: str, name: str, post=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until ``uninstall``."""
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(original, name, post))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write every span as one JSON line to a gzip file."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "parent": s.parent,
                                     "phase": s.phase, "start": s.start,
                                     "end": s.end, "attrs": s.attrs}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        reach = s.start
        for k in sorted(kids, key=lambda k: spans[k].start):
            lo = max(spans[k].start, reach, s.start)
            hi = min(spans[k].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out
