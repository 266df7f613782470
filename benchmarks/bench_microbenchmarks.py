"""Micro-benchmarks of the hot paths (true timing benchmarks).

The paper argues the Eqn-1 metric is cheap enough to update at every
sampling period; these benches put numbers on that claim and on the
placement heuristics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.stats import fold_marker_states, quantile_fold_fractions
from repro.baselines.bfd import best_fit_decreasing
from repro.core.allocation import CorrelationAwareAllocator
from repro.core.correlation import CostMatrix, StreamingCostMatrix
from repro.experiments import fig5
from repro.experiments.setup1 import Setup1Config
from repro.traces.trace import ReferenceSpec, TraceSet, UtilizationTrace
from repro.workloads.dispatch import DispatchConfig, RequestDispatchSimulator
from repro.workloads.queueing import Region
from repro.workloads.requests import BimodalService, ZipfKeyArrivals


@pytest.fixture(scope="module")
def window() -> TraceSet:
    rng = np.random.default_rng(0)
    return TraceSet(
        UtilizationTrace(rng.uniform(0.0, 4.0, size=720), 5.0, f"vm{i:02d}")
        for i in range(40)
    )


def test_cost_matrix_batch_build(benchmark, window):
    """Exact 40-VM cost matrix over one 720-sample window."""
    matrix = benchmark(CostMatrix.from_traces, window)
    assert matrix.size == 40


def test_marker_parts(benchmark, window):
    """Per-window P90 marker state of all 780 pairs (the p2 horizon part)."""
    singles, pairs, count = benchmark(CostMatrix.marker_parts, window, ReferenceSpec(90.0))
    assert pairs.shape[0] == 40 * 39 // 2 and count == 720


def test_fold_marker_states(benchmark, window):
    """Three-window fold of the pair marker states (the p2 horizon fold)."""
    fractions = quantile_fold_fractions(90.0)
    states = [
        CostMatrix.marker_parts(
            TraceSet.from_matrix(window.matrix * scale, window.names, window.period_s),
            ReferenceSpec(90.0),
            fractions,
        )[1]
        for scale in (0.8, 1.0, 1.2)
    ]
    folded = benchmark(fold_marker_states, states, [720, 720, 720], 90.0, fractions)
    assert folded.shape == (40 * 39 // 2,)


def test_streaming_cost_update(benchmark, window):
    """One O(N^2) streaming update — the per-sample online cost."""
    streaming = StreamingCostMatrix(window.names)
    vector = window.matrix[:, 0]
    benchmark(streaming.update, vector)
    assert streaming.count >= 1


def test_streaming_percentile_update(benchmark, window):
    """Per-sample cost in percentile mode (BatchPSquare over all pairs)."""
    streaming = StreamingCostMatrix(window.names, ReferenceSpec(90.0))
    vector = window.matrix[:, 0]
    for column in window.matrix.T[:6]:  # past the P-square warm-up buffer
        streaming.update(column)
    benchmark(streaming.update, vector)
    assert streaming.count >= 7


def test_correlation_aware_allocation(benchmark, window):
    """Full ALLOCATE phase for 40 VMs on 8-core servers."""
    matrix = CostMatrix.from_traces(window)
    refs = matrix.references()
    allocator = CorrelationAwareAllocator()
    placement = benchmark(
        allocator.allocate,
        list(window.names),
        refs,
        8,
        cost_array=matrix.as_array(),
        name_index=matrix.name_index,
    )
    assert placement.num_vms == 40


def test_bfd_allocation(benchmark, window):
    """Best-fit-decreasing baseline packing for the same instance."""
    matrix = CostMatrix.from_traces(window)
    refs = matrix.references()
    placement = benchmark(best_fit_decreasing, list(window.names), refs, 8)
    assert placement.num_vms == 40


def test_pearson_end_of_window_recompute(benchmark, window):
    """Section IV-A's strawman: Pearson needs the whole buffered window.

    Compare against ``test_streaming_cost_update``: the Eqn-1 metric pays
    a tiny constant cost per sample, while the Pearson approach buffers
    the window and concentrates all of this work at the period boundary.
    """
    from repro.core.correlation import pearson_cost_matrix

    matrix = benchmark(pearson_cost_matrix, window)
    assert matrix.shape == (40, 40)


def test_queueing_sim(benchmark):
    """One Fig-5 configuration (Shared-Corr at 2.1 GHz) at ``--fast`` length."""
    result = benchmark(
        fig5.run_configuration, Setup1Config(duration_s=300.0), "Shared-Corr", 2.1
    )
    assert result.completed_queries > 0
    assert result.p90_response_s("Cluster1") > 0


def test_dispatch_sim(benchmark):
    """One SLO-frontier cell: JSQ over three ~3-core regions at 100 qps."""
    simulator = RequestDispatchSimulator(
        (Region("s0", 3.0), Region("s1", 2.9), Region("s2", 3.0)),
        ZipfKeyArrivals(100.0),
        BimodalService(),
        policy="jsq",
        config=DispatchConfig(duration_s=90.0, seed=2013),
    )
    result = benchmark(simulator.run)
    assert result.completed_requests > 0
    assert result.p99_response_s > 0
