"""Quickstart: the correlation cost, the allocator and the v/f decision.

Builds two pairs of VMs — one pair whose peaks coincide, one whose peaks
alternate — and walks the paper's pipeline end to end:

1. measure pairwise correlation costs (Eqn 1),
2. place the VMs with the correlation-aware allocator (Fig 2),
3. choose each server's frequency (Eqn 4),
4. compare against Best-Fit-Decreasing at peak-sum provisioning.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    CorrelationAwareAllocator,
    CostMatrix,
    FrequencyLadder,
    TraceSet,
    UtilizationTrace,
    best_fit_decreasing,
    correlation_aware_frequency,
    peak_sum_frequency,
)

N_CORES = 8
LADDER = FrequencyLadder((2.0, 2.3))


def build_traces() -> TraceSet:
    """Two anti-correlated services, two VMs each, 1-second samples."""
    t = np.arange(600.0)
    day_shift = np.sin(2 * np.pi * t / 300.0)
    # The web VMs are the two largest, so a size-sorted, correlation-blind
    # packer will put them together — exactly the failure the paper targets.
    web1 = 2.0 + 1.8 * day_shift
    web2 = 2.0 + 1.75 * day_shift
    batch1 = 1.8 - 1.6 * day_shift
    batch2 = 1.75 - 1.55 * day_shift
    return TraceSet(
        [
            UtilizationTrace(np.clip(web1, 0, 4), 1.0, "web-1"),
            UtilizationTrace(np.clip(web2, 0, 4), 1.0, "web-2"),
            UtilizationTrace(np.clip(batch1, 0, 4), 1.0, "batch-1"),
            UtilizationTrace(np.clip(batch2, 0, 4), 1.0, "batch-2"),
        ]
    )


def main() -> None:
    traces = build_traces()

    # 1. Correlation costs: higher = less correlated = better co-location.
    matrix = CostMatrix.from_traces(traces)
    print("Pairwise correlation costs (Eqn 1; 1.0 = peaks coincide):")
    for a, b in [("web-1", "web-2"), ("web-1", "batch-1"), ("batch-1", "batch-2")]:
        print(f"  Cost({a}, {b}) = {matrix.cost(a, b):.3f}")

    # 2. Correlation-aware placement.
    refs = matrix.references()
    placement = CorrelationAwareAllocator().allocate(
        list(traces.names),
        refs,
        N_CORES,
        cost_array=matrix.as_array(),
        name_index=matrix.name_index,
    )
    print("\nCorrelation-aware placement:")
    for server, members in placement.by_server().items():
        committed = sum(refs[vm] for vm in members)
        print(f"  server{server}: {', '.join(members)}  (committed {committed:.2f} cores)")

    # 3. Aggressive-yet-safe frequency per server (Eqn 4).
    print("\nFrequency decisions:")
    for server, members in placement.by_server().items():
        aware = correlation_aware_frequency(list(members), refs, matrix.cost, LADDER, N_CORES)
        naive = peak_sum_frequency(list(members), refs, LADDER, N_CORES)
        actual_peak = traces.aggregate(list(members)).peak()
        print(
            f"  server{server}: Eqn-4 target {aware.target_ghz:.2f} GHz -> {aware.freq_ghz} GHz "
            f"(peak-sum would pick {naive.freq_ghz} GHz; actual joint peak "
            f"{actual_peak:.2f} <= capacity {N_CORES * aware.freq_ghz / LADDER.fmax_ghz:.2f})"
        )

    # 4. What a correlation-blind packer does with the same predictions.
    blind = best_fit_decreasing(list(traces.names), refs, N_CORES)
    print("\nBest-fit-decreasing placement (correlation-blind):")
    for server, members in blind.by_server().items():
        joint_peak = traces.aggregate(list(members)).peak()
        print(f"  server{server}: {', '.join(members)}  (actual joint peak {joint_peak:.2f})")


if __name__ == "__main__":
    main()
