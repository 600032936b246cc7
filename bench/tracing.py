"""Outside-in instrumentation: patch public names, record spans, reduce them.

Nothing here edits the program. A wrapper replaces an attribute of a
module or class for the duration of a `with` block and the original is put
back on exit, so trace bytes and behaviour are those of the unpatched code.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass


@contextmanager
def patched(replacements):
    """Set each (owner, attr) to make(original) inside the block.

    `replacements` is a list of (owner, attr, make). Originals are read from
    the owner's own namespace, so a class attribute is restored as the plain
    function it was.
    """
    saved = []
    try:
        for owner, attr, make in replacements:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def mark_after(marks: list, pause):
    """Wrapper factory: after each return, call pause() and append
    (wall at return, cpu at return, wall after pause, cpu after pause).

    The pause runs between two calls, so the caller can take it out of
    the wall and CPU time of the code around the wrapped calls.
    """
    def make(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            t, c = time.perf_counter(), time.process_time()
            pause()
            marks.append((t, c, time.perf_counter(), time.process_time()))
            return out
        return wrapped
    return make


def time_calls(intervals: list):
    """Wrapper factory: append (start, end) perf_counter() of each returning call."""
    def make(fn):
        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            intervals.append((t0, time.perf_counter()))
            return out
        return wrapped
    return make


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1          # index into the span list, -1 for a root
    note: object = None       # per-call payload from the wrapper's `note`


class Tracer:
    """In-memory span recorder for one single-threaded process.

    Spans are kept as bare lists while recording, which keeps the cost of
    a wrapped call under 2 us, and become `Span` objects on request.
    """

    def __init__(self):
        self._records: list[list] = []   # [name, start, end, parent, note]
        self._stack: list[int] = []

    @property
    def spans(self) -> list[Span]:
        return [Span(*r) for r in self._records]

    @contextmanager
    def span(self, name: str):
        records, stack = self._records, self._stack
        rec = [name, time.perf_counter(), math.nan, stack[-1] if stack else -1, None]
        stack.append(len(records))
        records.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def wrapper(self, name: str, note=None):
        """Wrapper factory recording one span per call.

        `note(args, result)` runs after the span closes, so its cost lands
        in the parent's self time, not in this span.
        """
        records, stack, clock = self._records, self._stack, time.perf_counter

        def make(fn):
            def wrapped(*args, **kwargs):
                rec = [name, clock(), math.nan, stack[-1] if stack else -1, None]
                stack.append(len(records))
                records.append(rec)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
                if note is not None:
                    rec[4] = note(args, out)
                return out
            return wrapped
        return make

    def write(self, path) -> None:
        """One line per span: name, start, end, parent (seconds, perf_counter)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent, _ in self._records:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        kids = [(max(spans[c].start, s.start), min(spans[c].end, s.end))
                for c in children.get(i, ())]
        kids = [(lo, hi) for lo, hi in kids if hi > lo]
        out.append((s.end - s.start) - covered_length(kids))
    return out


def within(spans: list[Span], root_name: str) -> list[bool]:
    """True for spans that are, or descend from, a span named root_name."""
    inside = []
    for s in spans:
        # Parents precede children in the list, so one pass suffices.
        inside.append(s.name == root_name
                      or (s.parent >= 0 and inside[s.parent]))
    return inside


# The percentile rule: linear interpolation between closest ranks (the
# numpy default), and a tail percentile is reported only when at least
# MIN_TAIL samples lie beyond it.
MIN_TAIL = 10


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation between ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values, q: float) -> float:
    """Like percentile, but refuses a tail with fewer than MIN_TAIL samples."""
    beyond = len(values) * (100.0 - q) / 100.0
    if beyond < MIN_TAIL:
        raise ValueError(f"p{q:g} needs {MIN_TAIL} samples beyond it, "
                         f"{len(values)} samples give {beyond:.1f}")
    return percentile(values, q)
