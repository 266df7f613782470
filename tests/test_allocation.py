"""Tests for repro.core.allocation — the Fig-2 correlation-aware heuristic."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import AllocationConfig, CapacityError, CorrelationAwareAllocator
from repro.core.correlation import CostMatrix


def flat_cost(names, pair_cost: float = 1.5) -> dict:
    """Dense ``allocate`` inputs for a constant pair cost over ``names``."""
    names = sorted(set(names))
    return {
        "cost_array": np.full((len(names), len(names)), pair_cost),
        "name_index": {vm: i for i, vm in enumerate(names)},
    }


def dense(matrix: CostMatrix) -> dict:
    """Dense ``allocate`` inputs of a cost matrix."""
    return {"cost_array": matrix.as_array(), "name_index": matrix.name_index}


class TestConfigValidation:
    def test_defaults(self):
        config = AllocationConfig()
        assert config.th_cost == 1.10
        assert config.alpha == 0.9

    def test_bounds(self):
        with pytest.raises(ValueError):
            AllocationConfig(th_cost=0.0)
        with pytest.raises(ValueError):
            AllocationConfig(alpha=1.0)
        with pytest.raises(ValueError):
            AllocationConfig(alpha=0.0)
        with pytest.raises(ValueError):
            AllocationConfig(cost_resolution=-0.1)
        with pytest.raises(ValueError):
            AllocationConfig(max_sweeps=0)


class TestInputValidation:
    def test_duplicates_rejected(self):
        allocator = CorrelationAwareAllocator()
        with pytest.raises(ValueError, match="duplicate"):
            allocator.allocate(["a", "a"], {"a": 1.0}, 8, **flat_cost(["a"]))

    def test_empty_rejected(self):
        allocator = CorrelationAwareAllocator()
        with pytest.raises(ValueError, match="nothing"):
            allocator.allocate([], {}, 8, **flat_cost([]))

    def test_missing_reference_rejected(self):
        allocator = CorrelationAwareAllocator()
        with pytest.raises(ValueError, match="missing references"):
            allocator.allocate(["a", "b"], {"a": 1.0}, 8, **flat_cost(["a", "b"]))

    def test_bad_core_count_rejected(self):
        allocator = CorrelationAwareAllocator()
        with pytest.raises(ValueError, match="positive"):
            allocator.allocate(["a"], {"a": 1.0}, 0, **flat_cost(["a"]))


class TestBasicPacking:
    def test_single_vm(self):
        placement = CorrelationAwareAllocator().allocate(
            ["a"], {"a": 3.0}, 8, **flat_cost(["a"])
        )
        assert placement.server_of("a") == 0
        assert placement.num_active_servers == 1

    def test_everything_placed_exactly_once(self):
        refs = {f"v{i}": 1.5 for i in range(10)}
        placement = CorrelationAwareAllocator().allocate(list(refs), refs, 8, **flat_cost(refs))
        assert sorted(placement.vm_ids) == sorted(refs)

    def test_eqn3_estimate_respected(self):
        # 4 VMs x 2.0 cores = 8.0 -> exactly one 8-core server.
        refs = {f"v{i}": 2.0 for i in range(4)}
        placement = CorrelationAwareAllocator().allocate(list(refs), refs, 8, **flat_cost(refs))
        assert placement.num_active_servers == 1

    def test_oversized_reference_clamped(self):
        placement = CorrelationAwareAllocator().allocate(
            ["big"], {"big": 50.0}, 8, **flat_cost(["big"])
        )
        assert placement.num_active_servers == 1

    def test_fleet_bound_enforced(self):
        refs = {f"v{i}": 8.0 for i in range(3)}
        with pytest.raises(CapacityError):
            CorrelationAwareAllocator().allocate(
                list(refs), refs, 8, max_servers=2, **flat_cost(refs)
            )

    def test_fleet_bound_satisfiable(self):
        refs = {f"v{i}": 8.0 for i in range(3)}
        placement = CorrelationAwareAllocator().allocate(
            list(refs), refs, 8, max_servers=3, **flat_cost(refs)
        )
        assert placement.num_active_servers == 3
        assert placement.num_servers == 3

    def test_deterministic(self, four_vm_traces):
        matrix = CostMatrix.from_traces(four_vm_traces)
        refs = matrix.references()
        a = CorrelationAwareAllocator().allocate(list(refs), refs, 8, **dense(matrix))
        b = CorrelationAwareAllocator().allocate(list(refs), refs, 8, **dense(matrix))
        assert a.assignment == b.assignment


class TestCorrelationAwareness:
    def test_anti_correlated_services_are_mixed(self, four_vm_traces):
        """The allocator must pair an 'a' VM with a 'b' VM, never a-a/b-b."""
        matrix = CostMatrix.from_traces(four_vm_traces)
        refs = matrix.references()  # each peak = 3.0 -> two per 8-core server
        placement = CorrelationAwareAllocator().allocate(
            list(refs), refs, n_cores=8, **dense(matrix)
        )
        assert placement.num_active_servers == 2
        for server, members in placement.by_server().items():
            prefixes = {vm[0] for vm in members}
            assert prefixes == {"a", "b"}, f"server {server} holds {members}"

    def test_threshold_too_high_degenerates_gracefully(self, four_vm_traces):
        """An unreachable threshold must still place everything."""
        matrix = CostMatrix.from_traces(four_vm_traces)
        refs = matrix.references()
        allocator = CorrelationAwareAllocator(AllocationConfig(th_cost=50.0))
        placement = allocator.allocate(list(refs), refs, 8, **dense(matrix))
        assert sorted(placement.vm_ids) == sorted(refs)

    def test_capacity_blocked_opens_extra_server(self):
        # Two VMs of 5 cores cannot share an 8-core server even though
        # Eqn 3 estimates ceil(10/8) = 2... with three of them the
        # estimate is ceil(15/8) = 2 but no two fit together.
        refs = {"a": 5.0, "b": 5.0, "c": 5.0}
        placement = CorrelationAwareAllocator().allocate(list(refs), refs, 8, **flat_cost(refs))
        assert placement.num_active_servers == 3


class TestPackingInvariantsProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.1, max_value=8.0), min_size=1, max_size=24),
        st.floats(min_value=1.0, max_value=2.0),
    )
    def test_feasible_and_complete(self, sizes, pair_cost):
        refs = {f"v{i:02d}": size for i, size in enumerate(sizes)}
        placement = CorrelationAwareAllocator().allocate(
            list(refs), refs, 8, **flat_cost(refs, pair_cost)
        )
        assert sorted(placement.vm_ids) == sorted(refs)
        placement.validate_capacity(refs, 8.0)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=0.1, max_value=4.0), min_size=2, max_size=16))
    def test_never_uses_absurdly_many_servers(self, sizes):
        """Active servers stay within 2x the Eqn-3 lower bound + 1."""
        refs = {f"v{i:02d}": size for i, size in enumerate(sizes)}
        placement = CorrelationAwareAllocator().allocate(list(refs), refs, 8, **flat_cost(refs))
        lower_bound = max(1, math.ceil(sum(refs.values()) / 8.0))
        assert placement.num_active_servers <= 2 * lower_bound + 1
