"""Byte-identity pins for the five schedule builders.

Every builder runs on a handful of input groups, three seeds each, and
the sha256 of the canonical schedules is compared with a recorded value.
Any change to the builder core (work-list order, selector refreshes,
eviction victims, nearest-source tie-breaks, RNG consumption) that moves
a single action shows up here, and the failing id names the builder and
the input group that drifted.

The groups cover the regimes the builders see:

* the exact subsystem's four differential families (``loose``,
  ``tight``, ``ring``, ``knapsack``; at most 6 servers x 8 objects);
* a small paper instance (12 servers, 50 objects, 2 replicas);
* a 96 x 960 fleet of eight disconnected blocks, above 50k placement
  cells;
* fractional sizes, capacities and link costs, where a reordered float
  operation would surface first;
* dense columns (~22 holders and ~10 pending targets per object), the
  longest holder scans the selector and the eq. 4 benefits run.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import get_builder
from repro.exact.differential import DEFAULT_FAMILIES, family_instances
from repro.io.json_format import schedule_to_dict
from repro.model.instance import RtspInstance
from repro.serve.schemas import canonical_json
from repro.workloads.regular import paper_instance

BUILDERS = ("AR", "GMC", "GOLCF", "GSDF", "RDF")
SEEDS = (0, 1, 2)


def _fleet_case() -> RtspInstance:
    """8 blocks of 12 servers x 120 objects, two holders per object
    before and after, loose capacities; no object spans two blocks."""
    rng = np.random.default_rng(96)
    blocks, bm, bn = 8, 12, 120
    m, n = blocks * bm, blocks * bn
    costs = np.full((m, m), 250.0)
    for b in range(blocks):
        pts = rng.random((bm, 2)) * 100
        span = slice(b * bm, (b + 1) * bm)
        costs[span, span] = np.ceil(
            np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
        )
    np.fill_diagonal(costs, 0.0)
    sizes = rng.integers(1, 11, size=n).astype(float)
    cols = np.arange(n)
    first = (cols // bn) * bm
    x_old = np.zeros((m, n), dtype=np.int8)
    x_new = np.zeros((m, n), dtype=np.int8)
    for x in (x_old, x_new):
        for _ in range(2):
            x[first + rng.integers(0, bm, size=n), cols] = 1
    caps = np.maximum(x_old @ sizes, x_new @ sizes) * 1.1 + 5
    return RtspInstance.create(sizes, caps, costs, x_old, x_new)


def _fractional_case(seed: int) -> RtspInstance:
    rng = np.random.default_rng(seed)
    m, n = 8, 16
    sizes = rng.uniform(0.3, 3.7, size=n)
    costs = rng.uniform(0.1, 9.0, size=(m, m))
    costs = (costs + costs.T) / 2
    np.fill_diagonal(costs, 0.0)
    x_old = (rng.random((m, n)) < 0.45).astype(np.int8)
    x_new = (rng.random((m, n)) < 0.45).astype(np.int8)
    caps = np.maximum(x_old @ sizes, x_new @ sizes) + rng.uniform(
        0.0, 2.0, size=m
    )
    return RtspInstance.create(sizes, caps, costs, x_old, x_new)


def _dense_case(seed: int) -> RtspInstance:
    """40 servers x 40 objects, ~55% holders before and after, zero
    storage slack, small integer link costs (many equal-cost sources)."""
    rng = np.random.default_rng(seed)
    m, n = 40, 40
    upper = np.triu(rng.integers(1, 5, size=(m, m)), 1)
    costs = (upper + upper.T).astype(float)
    sizes = rng.integers(1, 6, size=n).astype(float)
    x_old = (rng.random((m, n)) < 0.55).astype(np.int8)
    x_new = (rng.random((m, n)) < 0.55).astype(np.int8)
    caps = np.maximum(x_old @ sizes, x_new @ sizes)
    return RtspInstance.create(sizes, caps, costs, x_old, x_new)


def _groups():
    groups = {family: lambda f=family: family_instances(f)
              for family in DEFAULT_FAMILIES}
    groups["paper"] = lambda: [
        paper_instance(replicas=2, num_servers=12, num_objects=50, rng=99)
    ]
    groups["fleet"] = lambda: [_fleet_case()]
    groups["fractional"] = lambda: [_fractional_case(s) for s in (0, 1, 2)]
    groups["dense"] = lambda: [_dense_case(s) for s in (2, 3)]
    return groups


GROUPS = _groups()


def group_digest(builder: str, group: str) -> str:
    """sha256 (first 16 hex digits) over every schedule of the group."""
    digest = hashlib.sha256()
    for instance in GROUPS[group]():
        for seed in SEEDS:
            schedule = get_builder(builder).build(instance, rng=seed)
            digest.update(canonical_json(schedule_to_dict(schedule)).encode())
    return digest.hexdigest()[:16]


#: Recorded values. A mismatch is a behaviour change of a builder.
EXPECTED = {
    ('AR', 'dense'): '2a8fb85bd2eb1ecf',
    ('AR', 'fleet'): 'f45b2e885f2deb0d',
    ('AR', 'fractional'): '71f9d2231a00f25f',
    ('AR', 'knapsack'): '98c10484d1a8b9ad',
    ('AR', 'loose'): '89ef0b56db945968',
    ('AR', 'paper'): '671db0ffac5fa90b',
    ('AR', 'ring'): '4d62da21b47654b2',
    ('AR', 'tight'): '957419b38cd53791',
    ('GMC', 'dense'): '12cd8d05eaa7415b',
    ('GMC', 'fleet'): '0e5299ac2f4d84ae',
    ('GMC', 'fractional'): 'd9be3d7c3ac9cc98',
    ('GMC', 'knapsack'): '5c95d88cb9d052b8',
    ('GMC', 'loose'): '744dbbf51cc56b58',
    ('GMC', 'paper'): '3ec97d61d4cc99a1',
    ('GMC', 'ring'): '3641d4c10d1b08c5',
    ('GMC', 'tight'): 'ae6e05d8626d4816',
    ('GOLCF', 'dense'): '12cd8d05eaa7415b',
    ('GOLCF', 'fleet'): 'd124985d111d73a4',
    ('GOLCF', 'fractional'): '5610a29ad2763711',
    ('GOLCF', 'knapsack'): '5c95d88cb9d052b8',
    ('GOLCF', 'loose'): '744dbbf51cc56b58',
    ('GOLCF', 'paper'): 'baeffe3d867907ed',
    ('GOLCF', 'ring'): '3641d4c10d1b08c5',
    ('GOLCF', 'tight'): 'ae6e05d8626d4816',
    ('GSDF', 'dense'): '0f33d6f41d223d68',
    ('GSDF', 'fleet'): '81555ff3f7f66dd1',
    ('GSDF', 'fractional'): 'e903ce0332efdc9f',
    ('GSDF', 'knapsack'): 'ecf0a09d25bfca77',
    ('GSDF', 'loose'): 'bbd6daf469bf5f15',
    ('GSDF', 'paper'): '98c301f5d5faeb46',
    ('GSDF', 'ring'): 'd4baa5a3b85fb8a1',
    ('GSDF', 'tight'): '857e67887aafe7d4',
    ('RDF', 'dense'): 'c20fac40a03d4607',
    ('RDF', 'fleet'): '2b76244076b709fe',
    ('RDF', 'fractional'): '1cba92493f80d886',
    ('RDF', 'knapsack'): '353a9b4b6d7effa7',
    ('RDF', 'loose'): 'bad83bb584a7b1d6',
    ('RDF', 'paper'): 'cc9152b01d45c22b',
    ('RDF', 'ring'): 'a00c305e028bf7e0',
    ('RDF', 'tight'): '95ef76ea7cd111a4',
}


@pytest.mark.parametrize("group", sorted(GROUPS))
@pytest.mark.parametrize("builder", BUILDERS)
def test_builder_digest_pinned(builder, group):
    assert group_digest(builder, group) == EXPECTED[builder, group]


def test_fleet_case_is_above_fifty_thousand_cells():
    inst = _fleet_case()
    assert inst.num_servers * inst.num_objects >= 50_000

