"""Builder/optimizer interfaces and the algorithm registry.

Builders and optimizers are small stateless-ish objects: construct once
(possibly with tuning options), call ``build``/``optimize`` many times.
All stochastic choices flow through the ``rng`` argument so experiment
cells are reproducible.

The registry maps the names used in the paper's plots ("GOLCF", "H1", …)
to classes, and :func:`repro.core.pipeline.build_pipeline` parses composed
names like ``"GOLCF+H1+H2+OP1"``.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule
from repro.util.errors import ConfigurationError, InvalidScheduleError
from repro.util.rng import ensure_rng


class ScheduleBuilder(abc.ABC):
    """Builds a valid schedule for an instance from scratch."""

    #: Registry / display name (matches the paper where applicable).
    name: str = "builder"

    @abc.abstractmethod
    def build(self, instance: RtspInstance, rng=None) -> Schedule:
        """Return a schedule valid w.r.t. ``(X_old, X_new)``."""

    def build_checked(
        self, instance: RtspInstance, rng=None, validate="strict"
    ) -> Schedule:
        """:meth:`build`, then validate the result before returning it.

        ``validate`` accepts the same specs as
        :func:`repro.exact.validate.resolve_validator` (default: the
        strict independent invariant oracle). Raises
        :class:`~repro.util.errors.InvalidScheduleError` naming this
        builder when the schedule is rejected.
        """
        schedule = self.build(instance, rng=rng)
        _run_validator(validate, instance, schedule, self.name)
        return schedule

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class ScheduleOptimizer(abc.ABC):
    """Rewrites an existing valid schedule, preserving validity."""

    name: str = "optimizer"

    @abc.abstractmethod
    def optimize(
        self, instance: RtspInstance, schedule: Schedule, rng=None
    ) -> Schedule:
        """Return an improved (or unchanged) valid schedule.

        Implementations never mutate the input schedule.
        """

    def optimize_checked(
        self,
        instance: RtspInstance,
        schedule: Schedule,
        rng=None,
        validate="strict",
    ) -> Schedule:
        """:meth:`optimize`, then validate the rewritten schedule.

        Same contract as :meth:`ScheduleBuilder.build_checked`.
        """
        optimized = self.optimize(instance, schedule, rng=rng)
        _run_validator(validate, instance, optimized, self.name)
        return optimized

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


def _run_validator(spec, instance: RtspInstance, schedule: Schedule, stage: str):
    """Resolve ``spec`` and apply it, prefixing failures with ``stage``."""
    # Lazy import: repro.exact imports repro.core at module level, so the
    # dependency may only run in this direction at call time.
    from repro.exact.validate import resolve_validator

    validator = resolve_validator(spec)
    if validator is None:
        return
    try:
        validator(instance, schedule)
    except InvalidScheduleError as exc:
        raise InvalidScheduleError(
            f"{stage}: {exc}", position=exc.position
        ) from exc


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_BUILDERS: Dict[str, Callable[[], ScheduleBuilder]] = {}
_OPTIMIZERS: Dict[str, Callable[[], ScheduleOptimizer]] = {}


def register_builder(cls):
    """Class decorator adding a builder to the registry under ``cls.name``."""
    _BUILDERS[cls.name.upper()] = cls
    return cls


def register_optimizer(cls):
    """Class decorator adding an optimizer to the registry under ``cls.name``."""
    _OPTIMIZERS[cls.name.upper()] = cls
    return cls


def get_builder(name: str) -> ScheduleBuilder:
    """Instantiate the registered builder called ``name`` (case-insensitive)."""
    if not isinstance(name, str):
        raise ConfigurationError(
            f"builder name must be a string, got {type(name).__name__};"
            f" available: {sorted(_BUILDERS)}"
        )
    try:
        return _BUILDERS[name.upper()]()
    except KeyError:
        raise ConfigurationError(
            f"unknown builder {name!r}; available: {sorted(_BUILDERS)}"
        ) from None


def get_optimizer(name: str) -> ScheduleOptimizer:
    """Instantiate the registered optimizer called ``name``."""
    if not isinstance(name, str):
        raise ConfigurationError(
            f"optimizer name must be a string, got {type(name).__name__};"
            f" available: {sorted(_OPTIMIZERS)}"
        )
    try:
        return _OPTIMIZERS[name.upper()]()
    except KeyError:
        raise ConfigurationError(
            f"unknown optimizer {name!r}; available: {sorted(_OPTIMIZERS)}"
        ) from None


def available_builders() -> List[str]:
    """Registered builder names."""
    return sorted(_BUILDERS)


def available_optimizers() -> List[str]:
    """Registered optimizer names."""
    return sorted(_OPTIMIZERS)


# ----------------------------------------------------------------------
# shared building blocks
# ----------------------------------------------------------------------
def shuffled_pairs(mask: np.ndarray, rng) -> List[Tuple[int, int]]:
    """All ``(server, obj)`` coordinates with ``mask == 1``, shuffled.

    ``tolist()`` converts whole index columns to Python ints at C speed
    (per-element ``int()`` casts dominated builder setup at fleet
    scale); the pair order and the shuffle's RNG stream are unchanged.
    """
    rows, cols = np.nonzero(mask)
    pairs = list(zip(rows.tolist(), cols.tolist()))
    gen = ensure_rng(rng)
    gen.shuffle(pairs)
    return pairs

