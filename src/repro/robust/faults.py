"""Deterministic fault plans.

A :class:`FaultPlan` is a finite, seed-generated set of fault events to
inject into a simulated execution:

* :class:`TransferFault` — the ``attempt``-th transfer started (counted
  globally across repair rounds) fails after occupying its link for the
  full duration;
* :class:`ServerCrash` — at absolute time ``time`` server ``server``
  loses every replica it holds (storage survives, contents do not);
* :class:`LinkSlowdown` — from ``time`` onward, transfers started on the
  directed link ``source -> target`` take ``factor`` times longer.

Plans are value objects: the same ``(instance, rate, seed, horizon)``
always generates the same plan, and the whole repair pipeline downstream
is deterministic given the plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from repro.model.instance import RtspInstance
from repro.util.errors import ConfigurationError


@dataclass(frozen=True, order=True)
class TransferFault:
    """The ``attempt``-th transfer started fails (0-based, global)."""

    attempt: int


@dataclass(frozen=True, order=True)
class ServerCrash:
    """``server`` loses all replicas at absolute time ``time``."""

    time: float
    server: int


@dataclass(frozen=True, order=True)
class LinkSlowdown:
    """Transfers started on ``source -> target`` after ``time`` slow by
    ``factor`` (>= 1)."""

    time: float
    target: int
    source: int
    factor: float


@dataclass(frozen=True)
class FaultPlan:
    """A finite set of fault events plus the knobs that generated it."""

    transfer_faults: Tuple[TransferFault, ...] = ()
    crashes: Tuple[ServerCrash, ...] = ()
    slowdowns: Tuple[LinkSlowdown, ...] = ()
    rate: float = 0.0
    seed: int = 0
    horizon: float = 1.0

    def __post_init__(self) -> None:
        # NaN makes every ordered comparison false, so bounds alone accept it.
        for fault in self.transfer_faults:
            if fault.attempt < 0:
                raise ConfigurationError("transfer-fault attempt must be >= 0")
        for crash in self.crashes:
            if not math.isfinite(crash.time) or crash.time < 0:
                raise ConfigurationError("crash time must be finite and >= 0")
        for slow in self.slowdowns:
            if not math.isfinite(slow.factor) or slow.factor < 1.0:
                raise ConfigurationError("slowdown factor must be finite and >= 1")
            if not math.isfinite(slow.time) or slow.time < 0:
                raise ConfigurationError("slowdown time must be finite and >= 0")

    def check_servers(self, num_servers: int) -> None:
        """Reject events that name no server of an ``M``-server instance.

        Crashes and slowdown targets must be real servers, ``[0, M)``;
        a slowdown source may also be the dummy, index ``M``.
        """
        for crash in self.crashes:
            if not 0 <= crash.server < num_servers:
                raise ConfigurationError(
                    f"crash server {crash.server} is not in [0, {num_servers})"
                )
        for slow in self.slowdowns:
            if not 0 <= slow.target < num_servers:
                raise ConfigurationError(
                    f"slowdown target server {slow.target} is not in "
                    f"[0, {num_servers})"
                )
            if not 0 <= slow.source <= num_servers:
                raise ConfigurationError(
                    f"slowdown source server {slow.source} is not in "
                    f"[0, {num_servers}]"
                )

    @property
    def is_empty(self) -> bool:
        """Whether the plan injects nothing at all."""
        return not (self.transfer_faults or self.crashes or self.slowdowns)

    @property
    def num_hard_faults(self) -> int:
        """Faults that force a repair round (failures + crashes)."""
        return len(self.transfer_faults) + len(self.crashes)

    def fail_attempts(self) -> FrozenSet[int]:
        """Global attempt indices doomed to fail, as a set."""
        return frozenset(f.attempt for f in self.transfer_faults)

    def crash_events(self) -> List[Tuple[float, int]]:
        """Crashes as sorted ``(time, server)`` tuples."""
        return sorted((c.time, c.server) for c in self.crashes)

    def slowdown_events(self) -> List[Tuple[float, int, int, float]]:
        """Slowdowns as sorted ``(time, target, source, factor)`` tuples."""
        return sorted(
            (s.time, s.target, s.source, s.factor) for s in self.slowdowns
        )

    @classmethod
    def generate(
        cls,
        instance: RtspInstance,
        rate: float,
        seed: int,
        horizon: float = 1.0,
        transfer_rate: Optional[float] = None,
        crash_rate: Optional[float] = None,
        slowdown_rate: Optional[float] = None,
    ) -> "FaultPlan":
        """Sample a plan for ``instance`` at overall fault ``rate``.

        ``rate`` sets the per-attempt transfer-failure probability;
        crashes fire per server with probability ``rate / 4`` and link
        slowdowns per server with probability ``rate / 2`` (each knob
        individually overridable). Crash and slowdown times are uniform
        over ``[0, horizon)`` — pass the fault-free makespan as the
        horizon so faults actually land inside the execution window.

        The attempt budget considered for transfer failures is
        ``2 * outstanding + 8``: enough to hit first attempts *and*
        retries, while keeping the plan (and hence the number of repair
        rounds) finite.
        """
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError("rate must be in [0, 1)")
        if not math.isfinite(horizon) or horizon <= 0:
            raise ConfigurationError("horizon must be finite and positive")
        t_rate = rate if transfer_rate is None else transfer_rate
        c_rate = rate / 4.0 if crash_rate is None else crash_rate
        s_rate = rate / 2.0 if slowdown_rate is None else slowdown_rate
        rng = np.random.default_rng(seed)

        max_attempts = 2 * int(instance.outstanding().sum()) + 8
        transfer_faults = tuple(
            TransferFault(attempt)
            for attempt in range(max_attempts)
            if rng.random() < t_rate
        )

        crashes = tuple(
            ServerCrash(time=float(rng.random() * horizon), server=server)
            for server in range(instance.num_servers)
            if rng.random() < c_rate
        )

        slowdowns: List[LinkSlowdown] = []
        for _ in range(instance.num_servers):
            if rng.random() >= s_rate:
                continue
            target = int(rng.integers(0, instance.num_servers))
            # Source may be any other server, the dummy included (index M).
            source = int(rng.integers(0, instance.num_servers + 1))
            if source == target:
                source = instance.dummy
            slowdowns.append(
                LinkSlowdown(
                    time=float(rng.random() * horizon),
                    target=target,
                    source=source,
                    factor=float(2.0 + 6.0 * rng.random()),
                )
            )

        return cls(
            transfer_faults=transfer_faults,
            crashes=crashes,
            slowdowns=tuple(slowdowns),
            rate=rate,
            seed=seed,
            horizon=float(horizon),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultPlan(failures={len(self.transfer_faults)}, "
            f"crashes={len(self.crashes)}, slowdowns={len(self.slowdowns)}, "
            f"rate={self.rate:g}, seed={self.seed})"
        )
