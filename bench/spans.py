"""Spans and call counts taken from outside the program.

The benchmark replaces public functions of the ``anchormc`` modules with
wrappers (at every module attribute that binds them, so ``from .x import f``
bindings are covered too) and restores them afterwards. Nothing under
``src/`` knows it is being traced.

Each thread keeps its own stack of open spans, so spans from island worker
threads nest under their own parents. A span that opens on a worker thread
whose stack is empty takes as parent the innermost span open on the thread
that created the tracer: the ``run_parallel`` call that started the workers.

Spans are folded into per-name totals as they close, so memory stays flat
however many calls a run makes. A span's self time is its duration minus the
part of that interval its children cover; children on other threads may
overlap each other, so the covered part is the length of their union.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    run_start = run_end = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """Duration of a span minus the time its children cover."""
    return (end - start) - covered(start, end, child_intervals)


@dataclass
class SpanStats:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


class _Frame:
    __slots__ = ("name", "start", "parent", "children")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.parent = parent
        self.children: list[tuple[float, float]] = []


class Tracer:
    """Per-thread span stacks folded into per-name :class:`SpanStats`.

    ``keep_durations`` names the spans whose individual durations are kept
    (island runs), besides the totals every span gets. ``counters`` holds
    plain event counts added with :meth:`add`.
    """

    def __init__(self, clock=time.perf_counter, keep_durations=()):
        self.clock = clock
        self.keep = frozenset(keep_durations)
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._stacks: dict[int, list[_Frame]] = {}
        self._root = threading.get_ident()

    def _stack(self) -> list[_Frame]:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            with self._lock:
                stack = self._stacks.setdefault(tid, [])
        return stack

    def enter(self, name: str) -> _Frame:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._root:
            root = self._stacks.get(self._root) or [None]
            parent = root[-1]
        else:
            parent = None
        frame = _Frame(name, self.clock(), parent)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        stack.pop()
        duration = end - frame.start
        own = self_time(frame.start, end, frame.children)
        with self._lock:
            stats = self.stats.get(frame.name)
            if stats is None:
                stats = self.stats[frame.name] = SpanStats()
            stats.count += 1
            stats.total_s += duration
            stats.self_s += own
            if frame.name in self.keep:
                stats.durations.append(duration)
            if frame.parent is not None:
                frame.parent.children.append((frame.start, end))

    def span(self, name: str):
        """Context manager that records one span."""
        return _SpanContext(self, name)

    def add(self, counter: str, value: float = 1) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + value

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.exit(self.frame)
        return False


def traced(tracer: Tracer, name: str, fn, on_result=None):
    """Wrap ``fn`` so each call is a span; ``on_result(args, result)`` runs
    after the span closes, so its own cost is not charged to ``name``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if on_result is not None:
            on_result(args, result)
        return result

    return wrapper


class Patches:
    """Attribute replacements undone, in reverse order, on exit."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, original, replacement, package: str = "anchormc") -> int:
        """Rebind every attribute of ``package``'s loaded modules that is
        ``original``. Returns how many bindings were replaced."""
        n = 0
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)
                    n += 1
        if n == 0:
            raise LookupError(f"{original!r} is not bound in any {package} module")
        return n

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False
