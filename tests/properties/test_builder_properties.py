"""Property tests for the builder core (``repro.core.builders``).

Builders apply their actions through the state's trusted mutators, with
no per-action validation, so their output is re-checked here from first
principles by the strict invariant oracle: on random instances with
fractional sizes (integral ones are covered by
``test_exact_properties.py`` and ``test_schedule_properties.py``) and,
for all five builders including GMC, on the differential families and
on a 100 x 1000 fleet-scale instance. The build's counters must agree
with the schedule it returns.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import available_builders, get_builder
from repro.exact.differential import DEFAULT_FAMILIES, family_instances
from repro.exact.validate import check_invariants
from repro.model.actions import Delete
from repro.model.instance import RtspInstance
from repro.obs import MetricsRegistry, observed

BUILDERS = available_builders()

COMMON = dict(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def instances(draw, fractional: bool = False) -> RtspInstance:
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 5))
    if fractional:
        sizes = np.array(
            draw(
                st.lists(
                    st.floats(0.25, 4.0, allow_nan=False),
                    min_size=n,
                    max_size=n,
                )
            )
        )
    else:
        sizes = np.array(
            draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)),
            dtype=float,
        )
    bits = st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        min_size=m,
        max_size=m,
    )
    x_old = np.array(draw(bits), dtype=np.int8)
    x_new = np.array(draw(bits), dtype=np.int8)
    loads_old = x_old.astype(float) @ sizes
    loads_new = x_new.astype(float) @ sizes
    slack = np.array(
        draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)),
        dtype=float,
    )
    capacities = np.maximum(loads_old, loads_new) + slack
    weights = draw(
        st.lists(st.integers(1, 9), min_size=m * m, max_size=m * m)
    )
    costs = np.array(weights, dtype=float).reshape(m, m)
    costs = (costs + costs.T) / 2.0
    np.fill_diagonal(costs, 0.0)
    return RtspInstance.create(sizes, capacities, costs, x_old, x_new)


def _assert_oracle_accepts(inst, seed):
    for name in BUILDERS:
        schedule = get_builder(name).build(inst, rng=seed)
        report = check_invariants(inst, schedule)
        assert report.ok, f"{name} at seed {seed}: {report.summary()}"


@settings(**COMMON)
@given(inst=instances(fractional=True), seed=st.integers(0, 2**31 - 1))
def test_every_builder_passes_the_oracle_on_fractional_sizes(inst, seed):
    _assert_oracle_accepts(inst, seed)


def test_builders_pass_the_oracle_on_differential_families():
    # The <=6x8 differential families are the exact subsystem's
    # canonical corpus (tight capacities, rotation rings, the §3.4
    # Knapsack reduction).
    for family in DEFAULT_FAMILIES:
        for inst in family_instances(family):
            for seed in (0, 1, 2):
                _assert_oracle_accepts(inst, seed)


def _fleet_scale_instance(num_servers, num_objects, seed):
    # Placements drawn directly (paper_instance's knapsack packing is
    # super-linear): ~2 replicas per object old and new, 10% storage
    # slack, Manhattan link costs between random points in a 100 x 100
    # square.
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 11, size=num_objects).astype(float)
    coords = rng.random((num_servers, 2)) * 100
    costs = np.ceil(
        np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
    )
    np.fill_diagonal(costs, 0.0)
    x_old = np.zeros((num_servers, num_objects), dtype=np.int8)
    x_new = np.zeros((num_servers, num_objects), dtype=np.int8)
    cols = np.arange(num_objects)
    for matrix in (x_old, x_new):
        picks = rng.integers(0, num_servers, size=(num_objects, 2))
        matrix[picks[:, 0], cols] = 1
        matrix[picks[:, 1], cols] = 1
    caps = np.maximum(x_old @ sizes, x_new @ sizes) * 1.1 + 5
    return RtspInstance.create(sizes, caps, costs, x_old, x_new)


@pytest.mark.parametrize("seed", [0, 1])
def test_builders_pass_the_oracle_at_fleet_scale(seed):
    # 100 servers x 1000 objects: the builders' unvalidated fast path
    # at a size the hypothesis strategies and differential families
    # never reach (the 96 x 960 digest case is only hashed).
    inst = _fleet_scale_instance(100, 1000, seed)
    _assert_oracle_accepts(inst, seed)


@settings(**COMMON)
@given(inst=instances(), seed=st.integers(0, 2**31 - 1))
def test_build_counters_match_the_schedule(inst, seed):
    for name in BUILDERS:
        registry = MetricsRegistry()
        with observed(metrics=registry):
            schedule = get_builder(name).build(inst, rng=seed)
        counters = registry.snapshot()["counters"]
        transfers = schedule.transfers()
        assert counters.get("builder.transfers", 0) == len(transfers)
        assert counters.get(
            "builder.dummy_transfers", 0
        ) == schedule.count_dummy_transfers(inst)
        deletions = sum(isinstance(a, Delete) for a in schedule)
        assert counters.get("builder.evictions", 0) <= deletions
