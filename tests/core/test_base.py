"""Tests for the algorithm registry and shared building blocks."""

import numpy as np
import pytest

from repro.core.base import (
    available_builders,
    available_optimizers,
    get_builder,
    get_optimizer,
    shuffled_pairs,
)
from repro.core.builders.common import EvictionBenefitCache
from repro.model.state import SystemState
from repro.util.errors import ConfigurationError


class TestRegistry:
    def test_all_paper_builders_registered(self):
        assert set(available_builders()) >= {"RDF", "GSDF", "AR", "GOLCF"}

    def test_gmc_extension_registered(self):
        assert "GMC" in available_builders()

    def test_all_paper_optimizers_registered(self):
        assert set(available_optimizers()) >= {"H1", "H2", "OP1"}

    def test_get_builder_case_insensitive(self):
        assert get_builder("golcf").name == "GOLCF"

    def test_every_registered_builder_resolves(self):
        for name in available_builders():
            builder = get_builder(name.lower())
            assert builder.name == name

    def test_get_optimizer_case_insensitive(self):
        assert get_optimizer("op1").name == "OP1"

    def test_unknown_builder(self):
        with pytest.raises(ConfigurationError, match="available"):
            get_builder("NOPE")

    def test_unknown_builder_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="GOLCF"):
            get_builder("NOPE")

    def test_unknown_optimizer(self):
        with pytest.raises(ConfigurationError):
            get_optimizer("NOPE")

    def test_non_string_builder_name(self):
        with pytest.raises(ConfigurationError, match="string"):
            get_builder(3)

    def test_non_string_optimizer_name(self):
        with pytest.raises(ConfigurationError, match="string"):
            get_optimizer(None)

    def test_fresh_instances_each_call(self):
        assert get_builder("RDF") is not get_builder("RDF")


class TestShuffledPairs:
    def test_covers_all_ones(self):
        mask = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int8)
        pairs = shuffled_pairs(mask, rng=0)
        assert sorted(pairs) == [(0, 0), (1, 1), (2, 0), (2, 1)]

    def test_deterministic_under_seed(self):
        mask = np.ones((3, 3), dtype=np.int8)
        assert shuffled_pairs(mask, rng=4) == shuffled_pairs(mask, rng=4)

    def test_order_varies_across_seeds(self):
        mask = np.ones((5, 5), dtype=np.int8)
        assert shuffled_pairs(mask, rng=1) != shuffled_pairs(mask, rng=2)

    def test_empty_mask(self):
        assert shuffled_pairs(np.zeros((2, 2), dtype=np.int8), rng=0) == []


def eq4_benefit(state, server, obj, pending):
    """Deletion benefit ``B_ik`` (paper eq. 4) as the builders compute it."""
    return EvictionBenefitCache(state, pending).get(server, obj)


class TestGolcfBenefit:
    def test_counts_only_waiting_servers_with_this_nearest(self, fig3):
        state = SystemState(fig3)
        # object B (=1) superfluous at S3 (index 2); pending at S1 (index 1)
        pending = {1: {1}}
        benefit = eq4_benefit(state, 2, 1, pending)
        # S1's nearest source of B is S0 (cost 1), not S2 -> zero benefit
        assert benefit == 0.0

    def test_positive_benefit_for_sole_nearest(self, fig3):
        state = SystemState(fig3)
        # object C (=2): replicators S1 (cost 2 from S3) and S2 (cost 1);
        # S3 (index 3) waits. Deleting S2's copy forces cost 3->? via S1.
        pending = {2: {3}}
        benefit = eq4_benefit(state, 2, 2, pending)
        # nearest for S3 is S2 (cost 1), second nearest S1 (cost 3)
        assert benefit == pytest.approx(1.0 * (3.0 - 1.0))

    def test_zero_when_no_pending(self, fig3):
        state = SystemState(fig3)
        assert eq4_benefit(state, 2, 1, {}) == 0.0
        assert eq4_benefit(state, 2, 1, {1: set()}) == 0.0
