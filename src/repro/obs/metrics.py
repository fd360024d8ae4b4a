"""Process-local metrics: named counters, gauges and histograms.

A :class:`MetricsRegistry` hands out instruments by name and turns into
a plain-dict :meth:`snapshot` that is (a) JSON-serializable, (b) cheap
to ship across a process pool, and (c) **mergeable**: snapshots from
parallel workers combine associatively into the same totals a serial
run would have produced. That is what lets ``run_figure(workers=N)``
aggregate per-worker statistics instead of dropping them.

Instrument semantics:

* :class:`Counter` — monotonically increasing total; merge adds.
* :class:`Gauge` — last-written value; merge keeps the maximum (the
  only order-independent choice for point-in-time readings) and sums
  the update counts.
* :class:`Histogram` — count/total/min/max plus power-of-two bucket
  counts (bucket ``i`` holds observations ``<= 2**i``); merge adds
  component-wise.

Hot paths grab an instrument once and bump its ``value`` attribute
directly; when observability is off they hold ``None`` and skip the
bump entirely (see :mod:`repro.obs.context`).
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterator, List, Mapping, Optional

__all__ = [
    "METRICS_FORMAT",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Version tag of the snapshot/JSON layout.
METRICS_FORMAT = "rtsp-metrics/1"

#: Number of power-of-two histogram buckets (covers values up to 2**63).
_NUM_BUCKETS = 64


class Counter:
    """Monotonic counter. Hot code may bump ``value`` directly."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        """Add ``n`` (default 1) to the counter."""
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """Point-in-time value; remembers how many times it was written."""

    __slots__ = ("name", "value", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self.updates: int = 0

    def set(self, value: float) -> None:
        """Record the current reading."""
        self.value = value
        self.updates += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Streaming histogram with power-of-two buckets.

    Designed for cheap ``observe`` calls and loss-free merging: bucket
    ``i`` counts observations ``<= 2**i`` (negative observations land in
    bucket 0 alongside zeros).
    """

    __slots__ = ("name", "count", "total", "vmin", "vmax", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count: int = 0
        self.total: float = 0.0
        self.vmin: float = math.inf
        self.vmax: float = -math.inf
        self.buckets: List[int] = [0] * _NUM_BUCKETS

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        self.buckets[_bucket_index(value)] += 1

    @property
    def mean(self) -> float:
        """Mean observation (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.4g})"


def _bucket_index(value: float) -> int:
    """Index of the power-of-two bucket ``value`` falls into."""
    if value <= 1:
        return 0
    mantissa, exponent = math.frexp(value)
    if mantissa == 0.5:  # exact powers of two belong in the lower bucket
        exponent -= 1
    return min(_NUM_BUCKETS - 1, exponent)


def bucket_upper_bound(index: int) -> float:
    """Inclusive upper bound of histogram bucket ``index``."""
    return float(2 ** index)


class MetricsRegistry:
    """Named instruments, snapshotting and merging.

    Instruments are created on first use and keep their identity for the
    registry's lifetime, so hot code can cache them. Names are free-form
    dotted strings (``"builder.benefit_cache_hits"``).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # instruments
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on demand)."""
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on demand)."""
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on demand)."""
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name)
        return inst

    def __iter__(self) -> Iterator[str]:
        yield from self._counters
        yield from self._gauges
        yield from self._histograms

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def counter_values(self) -> Dict[str, float]:
        """Plain ``name -> value`` view of every counter."""
        return {name: c.value for name, c in self._counters.items()}

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready, mergeable snapshot of every instrument."""
        return {
            "format": METRICS_FORMAT,
            "counters": self.counter_values(),
            "gauges": {
                name: {"value": g.value, "updates": g.updates}
                for name, g in self._gauges.items()
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "total": h.total,
                    "min": h.vmin if h.count else None,
                    "max": h.vmax if h.count else None,
                    "buckets": {
                        str(i): n for i, n in enumerate(h.buckets) if n
                    },
                }
                for name, h in self._histograms.items()
            },
        }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this registry.

        Counters and histograms add; gauges keep the maximum value seen.
        Merging is associative and commutative for counters/histograms,
        so worker snapshots can arrive in any order and still reproduce
        the serial totals.
        """
        fmt = snapshot.get("format")
        if fmt != METRICS_FORMAT:
            raise ValueError(
                f"cannot merge snapshot with format {fmt!r} "
                f"(expected {METRICS_FORMAT!r})"
            )
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += value
        for name, rec in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            if rec["updates"] and (
                gauge.updates == 0 or rec["value"] > gauge.value
            ):
                gauge.value = rec["value"]
            gauge.updates += rec["updates"]
        for name, rec in snapshot.get("histograms", {}).items():
            hist = self.histogram(name)
            hist.count += rec["count"]
            hist.total += rec["total"]
            if rec["min"] is not None and rec["min"] < hist.vmin:
                hist.vmin = rec["min"]
            if rec["max"] is not None and rec["max"] > hist.vmax:
                hist.vmax = rec["max"]
            for idx, n in rec.get("buckets", {}).items():
                hist.buckets[int(idx)] += n

    def write_json(self, path: str, indent: Optional[int] = 2) -> None:
        """Write the snapshot as a JSON file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, indent=indent, sort_keys=True)
            fh.write("\n")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )
