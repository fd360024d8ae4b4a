"""Opt-in profiling: per-stage wall clocks, cProfile and tracemalloc.

:class:`StageProfiler` is the accumulating named-lap wall-clock profiler
every harness stage uses.
:func:`profiled` and :func:`trace_memory` wrap a block in cProfile /
tracemalloc and expose the results on a small handle object — both are
strictly opt-in and never touched by default code paths.
"""

from __future__ import annotations

import cProfile
import functools
import io
import pstats
import time
import tracemalloc
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, TypeVar

__all__ = [
    "StageProfiler",
    "timed",
    "profiled",
    "ProfileReport",
    "trace_memory",
    "MemorySnapshot",
]

F = TypeVar("F", bound=Callable)


class StageProfiler:
    """Accumulating wall-clock profiler with named stages.

    >>> profiler = StageProfiler()
    >>> with profiler.stage("build"):
    ...     pass
    >>> "build" in profiler.laps
    True
    """

    def __init__(self) -> None:
        #: Accumulated seconds per stage name.
        self.laps: Dict[str, float] = {}

    def stage(self, name: str) -> "_Stage":
        """Context manager accumulating elapsed time under ``name``."""
        return _Stage(self, name)

    def add(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to stage ``name`` (creating it if needed)."""
        self.laps[name] = self.laps.get(name, 0.0) + float(seconds)

    @property
    def total(self) -> float:
        """Sum of all recorded stages, in seconds."""
        return sum(self.laps.values())

    def report(self) -> str:
        """Render stages as aligned ``name: seconds`` lines, longest first."""
        if not self.laps:
            return "(no laps recorded)"
        width = max(len(k) for k in self.laps)
        rows = sorted(self.laps.items(), key=lambda kv: -kv[1])
        return "\n".join(f"{k.ljust(width)} : {v:10.4f}s" for k, v in rows)


class _Stage:
    __slots__ = ("_profiler", "_name", "_start", "seconds")

    def __init__(self, profiler: StageProfiler, name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._start: Optional[float] = None
        #: Elapsed seconds of the most recent completed entry.
        self.seconds: float = 0.0

    def __enter__(self) -> "_Stage":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None
        self.seconds = time.perf_counter() - self._start
        self._profiler.add(self._name, self.seconds)


def timed(watch, name: Optional[str] = None) -> Callable[[F], F]:
    """Decorator recording each call's duration into ``watch``.

    ``watch`` is anything with an ``add(name, seconds)`` method, such
    as :class:`StageProfiler`; the lap name defaults to the wrapped
    function's ``__name__``.
    """

    def decorate(fn: F) -> F:
        lap_name = name or fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                watch.add(lap_name, time.perf_counter() - start)

        return wrapper  # type: ignore[return-value]

    return decorate


class ProfileReport:
    """Handle filled in when a :func:`profiled` block exits."""

    def __init__(self) -> None:
        self.stats: Optional[pstats.Stats] = None
        self.text: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ProfileReport(captured={self.stats is not None})"


@contextmanager
def profiled(
    sort: str = "cumulative", limit: int = 25
) -> Iterator[ProfileReport]:
    """Run the block under cProfile; the yielded report carries the stats.

    >>> with profiled(limit=5) as report:
    ...     sum(range(100))
    4950
    >>> "function calls" in report.text
    True
    """
    report = ProfileReport()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield report
    finally:
        profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats(sort).print_stats(limit)
        report.stats = stats
        report.text = buffer.getvalue()


class MemorySnapshot:
    """Handle filled in when a :func:`trace_memory` block exits."""

    def __init__(self) -> None:
        self.current: int = 0
        self.peak: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MemorySnapshot(current={self.current}, peak={self.peak})"


@contextmanager
def trace_memory() -> Iterator[MemorySnapshot]:
    """Measure the block's Python heap usage with tracemalloc.

    Fills ``current``/``peak`` (bytes) on exit. If tracemalloc is
    already tracing (e.g. nested use), the outer session is left
    running and the numbers cover the whole session.
    """
    snapshot = MemorySnapshot()
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    try:
        yield snapshot
    finally:
        snapshot.current, snapshot.peak = tracemalloc.get_traced_memory()
        if started_here:
            tracemalloc.stop()
