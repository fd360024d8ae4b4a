"""Byte-identity pins for the paper's optimizers, stage by stage.

Each case runs ``GOLCF+H1+H2+OP1`` and ``GOLCF+NSR`` the way
:meth:`repro.core.pipeline.Pipeline.run` does (one seeded generator
threaded through every stage) and compares the sha256 of the canonical
schedule after every stage with a recorded value. Any change to the
replay machinery in :mod:`repro.core.optimizers.common` that moves a
single action, source or float comparison shows up here, and the failing
stage names the optimizer that drifted.

The inputs cover both regimes the optimizers see:

* twelve paper instances (50 servers, 120 objects, 2 or 3 replicas,
  constant or uniform sizes), where H1/H2 remove dummies under minimal
  capacities;
* two synthetic instances where half the objects have more than 16
  holders and link costs are small integers, so nearest-source queries
  run over dense columns with many equal-cost candidates;
* four block-diagonal compositions of 3 or 4 paper instances (20
  servers x 60 objects each, constant or uniform sizes), where the
  schedule is 840-1200 actions long, H1 and H2 both rewrite and H1's
  case (iii) recursion restores converted transfers.
"""

from __future__ import annotations

import hashlib
from functools import partial

import numpy as np
import pytest

from repro.core import build_pipeline
from repro.io.json_format import schedule_to_dict
from repro.model.instance import RtspInstance
from repro.serve.schemas import canonical_json
from repro.shard import compose_instances
from repro.util.rng import ensure_rng
from repro.workloads.regular import paper_instance

PIPELINES = ("GOLCF+H1+H2+OP1", "GOLCF+NSR")


def _paper_case(seed: int) -> RtspInstance:
    """Seeds 0-11 cover replicas {2, 3} x {constant, uniform} sizes."""
    uniform = (1000.0, 5000.0) if (seed // 2) % 2 else None
    return paper_instance(
        replicas=2 + seed % 2,
        num_servers=50,
        num_objects=120,
        uniform_size_range=uniform,
        rng=seed,
    )


def _dense_case(seed: int) -> RtspInstance:
    """40 servers x 40 objects under minimal capacities. Objects 0-19
    have ~22 holders before and after; objects 20-39 have two. Link costs
    are symmetric integers in 1..4, so equal-cost sources are common."""
    rng = np.random.default_rng(seed)
    m, n, dense = 40, 40, 20
    upper = np.triu(rng.integers(1, 5, size=(m, m)), 1)
    costs = (upper + upper.T).astype(float)
    sizes = rng.integers(1, 6, size=n).astype(float)
    x_old = np.zeros((m, n), dtype=np.int8)
    x_new = np.zeros((m, n), dtype=np.int8)
    x_old[:, :dense] = rng.random((m, dense)) < 0.55
    x_new[:, :dense] = rng.random((m, dense)) < 0.55
    for x in (x_old, x_new):
        for k in range(dense, n):
            x[rng.choice(m, 2, replace=False), k] = 1
    caps = np.maximum(x_old @ sizes, x_new @ sizes)
    return RtspInstance.create(sizes, caps, costs, x_old, x_new)


def _composed_case(seed: int, blocks: int, uniform: bool) -> RtspInstance:
    """``blocks`` disconnected 20 x 60 paper instances with 2 or 3
    replicas each, composed into one instance."""
    return compose_instances(
        [
            paper_instance(
                replicas=2 + (seed + b) % 2,
                num_servers=20,
                num_objects=60,
                uniform_size_range=(1000.0, 5000.0) if uniform else None,
                rng=seed * 10 + b,
            )
            for b in range(blocks)
        ]
    )


CASES = {f"paper-{seed}": (_paper_case, seed) for seed in range(12)}
# Seeds where H1 and OP1 (and, on seed 2, H2) rewrite the schedule.
CASES.update({f"dense-{seed}": (_dense_case, seed) for seed in (2, 3)})
# Seeds where H1 and H2 both rewrite and H1's case (iii) recursion
# succeeds at least twice.
CASES.update(
    {
        f"composed-{blocks}x-{kind}-{seed}": (
            partial(_composed_case, blocks=blocks, uniform=kind == "uniform"),
            seed,
        )
        for blocks, kind, seed in (
            (3, "const", 8),
            (3, "uniform", 6),
            (4, "const", 2),
            (4, "uniform", 4),
        )
    }
)


def stage_digests(instance: RtspInstance, spec: str, seed: int):
    """sha256 (first 16 hex digits) of the canonical schedule per stage."""
    pipeline = build_pipeline(spec)
    gen = ensure_rng(seed)
    schedule = pipeline.builder.build(instance, rng=gen)
    digests = [_digest(schedule)]
    for optimizer in pipeline.optimizers:
        schedule = optimizer.optimize(instance, schedule, rng=gen)
        digests.append(_digest(schedule))
    return digests


def _digest(schedule) -> str:
    payload = canonical_json(schedule_to_dict(schedule)).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


#: Recorded values. A mismatch is a behaviour change of an optimizer.
EXPECTED = {
    ('composed-3x-const-8', 'GOLCF+H1+H2+OP1'): [
        '1468175ab927b267',
        'c762b84d426143e4',
        'ef25948d2eddceea',
        'e43aee46e4c9701e',
    ],
    ('composed-3x-const-8', 'GOLCF+NSR'): [
        '1468175ab927b267',
        '1468175ab927b267',
    ],
    ('composed-3x-uniform-6', 'GOLCF+H1+H2+OP1'): [
        '9f983a3f661989ff',
        '2d55a4874b0fa08c',
        'fb622bfff1d00d71',
        '6b8583e6e3023ffa',
    ],
    ('composed-3x-uniform-6', 'GOLCF+NSR'): [
        '9f983a3f661989ff',
        '9f983a3f661989ff',
    ],
    ('composed-4x-const-2', 'GOLCF+H1+H2+OP1'): [
        'bd92d5d5a6883267',
        '79f0df385c7a3699',
        '144bbc3d73fc7ac8',
        '68ad6b0a51fa7c78',
    ],
    ('composed-4x-const-2', 'GOLCF+NSR'): [
        'bd92d5d5a6883267',
        'bd92d5d5a6883267',
    ],
    ('composed-4x-uniform-4', 'GOLCF+H1+H2+OP1'): [
        'd7b724a86558a3d7',
        '0e6f0cb1b17359e9',
        '619712796bbc55b3',
        '6dcc48ea56a99b0e',
    ],
    ('composed-4x-uniform-4', 'GOLCF+NSR'): [
        'd7b724a86558a3d7',
        'd7b724a86558a3d7',
    ],
    ('dense-2', 'GOLCF+H1+H2+OP1'): [
        '8db1a34983e24ab8',
        '64e4c4225768d5de',
        'e3f15380315ea4e0',
        '7c58f9f23933a3ab',
    ],
    ('dense-2', 'GOLCF+NSR'): [
        '8db1a34983e24ab8',
        '8db1a34983e24ab8',
    ],
    ('dense-3', 'GOLCF+H1+H2+OP1'): [
        '5c9e8c6859f20e67',
        '3c2f87931942bb29',
        '3c2f87931942bb29',
        '58bc379ec2a14ca3',
    ],
    ('dense-3', 'GOLCF+NSR'): [
        '5c9e8c6859f20e67',
        '5c9e8c6859f20e67',
    ],
    ('paper-0', 'GOLCF+H1+H2+OP1'): [
        '79fbb91764c88a71',
        '76b0a31baaaf5bb0',
        '910e8f4c88c7e8ac',
        '23b0c484dc1b8bd8',
    ],
    ('paper-0', 'GOLCF+NSR'): [
        '79fbb91764c88a71',
        '79fbb91764c88a71',
    ],
    ('paper-1', 'GOLCF+H1+H2+OP1'): [
        '75e1e6d12bf95699',
        '8889e9a8c7fb877a',
        '8889e9a8c7fb877a',
        '36a5c6370df2892e',
    ],
    ('paper-1', 'GOLCF+NSR'): [
        '75e1e6d12bf95699',
        '75e1e6d12bf95699',
    ],
    ('paper-10', 'GOLCF+H1+H2+OP1'): [
        'b0ffef6e7f69aadc',
        '9019e065f50eb6d6',
        'bf6687aefb1de1c5',
        '20ec052817cf9699',
    ],
    ('paper-10', 'GOLCF+NSR'): [
        'b0ffef6e7f69aadc',
        'b0ffef6e7f69aadc',
    ],
    ('paper-11', 'GOLCF+H1+H2+OP1'): [
        'e8cae35f8d21b37a',
        'e1521d76bdcfcb72',
        '48a3ef5fdb000fa2',
        'b514311434a36945',
    ],
    ('paper-11', 'GOLCF+NSR'): [
        'e8cae35f8d21b37a',
        'e8cae35f8d21b37a',
    ],
    ('paper-2', 'GOLCF+H1+H2+OP1'): [
        'd6ea64b8067f9d53',
        '81b631605d6d1381',
        '8e34f07691874195',
        'b7bd29887aa2122a',
    ],
    ('paper-2', 'GOLCF+NSR'): [
        'd6ea64b8067f9d53',
        'd6ea64b8067f9d53',
    ],
    ('paper-3', 'GOLCF+H1+H2+OP1'): [
        'bd2e721c5e733e8d',
        '79d267cdf40e5c09',
        '79d267cdf40e5c09',
        'f6418a1243105f49',
    ],
    ('paper-3', 'GOLCF+NSR'): [
        'bd2e721c5e733e8d',
        'bd2e721c5e733e8d',
    ],
    ('paper-4', 'GOLCF+H1+H2+OP1'): [
        '1063e666e21f8769',
        'a7312a9420c268ee',
        'aaf81837fca676ad',
        'a28f50a24358894c',
    ],
    ('paper-4', 'GOLCF+NSR'): [
        '1063e666e21f8769',
        '1063e666e21f8769',
    ],
    ('paper-5', 'GOLCF+H1+H2+OP1'): [
        '7590d358639acfd8',
        'e375656e01db3390',
        'e375656e01db3390',
        '28a2bddf4775e8e2',
    ],
    ('paper-5', 'GOLCF+NSR'): [
        '7590d358639acfd8',
        '7590d358639acfd8',
    ],
    ('paper-6', 'GOLCF+H1+H2+OP1'): [
        'b422b08fcb5ce3e0',
        '92590c7e264073e3',
        '00e370c5f5f8603e',
        '289f8c50b9ea3154',
    ],
    ('paper-6', 'GOLCF+NSR'): [
        'b422b08fcb5ce3e0',
        'b422b08fcb5ce3e0',
    ],
    ('paper-7', 'GOLCF+H1+H2+OP1'): [
        'e20fc2d9bb4cf061',
        'b0ec4247e7f467a3',
        'b0ec4247e7f467a3',
        'f7d9d682af51ecdc',
    ],
    ('paper-7', 'GOLCF+NSR'): [
        'e20fc2d9bb4cf061',
        'e20fc2d9bb4cf061',
    ],
    ('paper-8', 'GOLCF+H1+H2+OP1'): [
        '0657dde406dec69c',
        '773ff9dcbb47144b',
        'de1366095bc00145',
        '631c6aea7d8b0519',
    ],
    ('paper-8', 'GOLCF+NSR'): [
        '0657dde406dec69c',
        '0657dde406dec69c',
    ],
    ('paper-9', 'GOLCF+H1+H2+OP1'): [
        '6f24f60d510a1e0a',
        '2a89b69cbbc244ca',
        '2a89b69cbbc244ca',
        'a6f0c4cf6f1ec6ac',
    ],
    ('paper-9', 'GOLCF+NSR'): [
        '6f24f60d510a1e0a',
        '6f24f60d510a1e0a',
    ],
}


@pytest.mark.parametrize("spec", PIPELINES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_stage_digests_pinned(case, spec):
    make, seed = CASES[case]
    assert stage_digests(make(seed), spec, seed) == EXPECTED[case, spec]


def test_dense_cases_reach_dense_columns():
    """The dense inputs really reach the >16-holder regime."""
    for seed in (2, 3):
        holders = _dense_case(seed).x_old.sum(axis=0)
        assert (holders > 16).sum() >= 15
