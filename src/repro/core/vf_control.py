"""Frequency decisions: the Eqn-4 controller and the peak-sum baseline.

Once VMs are placed, the paper sets each server's frequency to

``f_i = (1 / Cost_server_i) * (sum_j u_hat(VM_i,j) / Ncore) * fmax``   (Eqn 4)

The second factor is the worst-case requirement — the frequency needed if
every co-resident peaked simultaneously; dividing by the Eqn-2 server cost
discounts it by the measured multiplexing headroom.  Fig 3 justifies the
discount empirically: the achievable slowdown (sum of individual
references over the *actual* joint reference) is lower-bounded by the
weighted pairwise cost, so running at ``f_i`` remains safe.

The baselines (BFD, PCP) are not correlation-aware, so their static
setting omits the discount: ``f = (sum u_hat / Ncore) * fmax`` — peak-sum
provisioning.

Both controllers quantize *up* to the next discrete level and clamp into
the ladder, so a computed target never silently loses capacity.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.server_cost import CostFn, server_correlation_cost
from repro.infrastructure.dvfs import FrequencyLadder, StaticVfSetting

__all__ = [
    "correlation_aware_frequency",
    "peak_sum_frequency",
    "estimate_active_servers",
]


def _demand_sum(members: Sequence[str], references: Mapping[str, float]) -> float:
    total = 0.0
    for vm in members:
        value = references[vm]
        if value < 0:
            raise ValueError(f"negative reference for {vm}")
        total += value
    return total


def correlation_aware_frequency(
    members: Sequence[str],
    references: Mapping[str, float],
    cost_fn: CostFn | np.ndarray,
    ladder: FrequencyLadder,
    n_cores: int,
) -> StaticVfSetting:
    """Eqn 4: the proposed aggressive-yet-safe static frequency.

    ``cost_fn`` is a pairwise cost lookup or the members' cost block, as
    in :func:`~repro.core.server_cost.server_correlation_cost`.  An empty
    server provisions at ``fmin`` (it is about to be suspended
    anyway; the replay engine draws zero power for inactive servers).
    """
    if n_cores <= 0:
        raise ValueError("n_cores must be positive")
    if not members:
        return StaticVfSetting(freq_ghz=ladder.fmin_ghz, target_ghz=0.0)
    cost = server_correlation_cost(members, references, cost_fn)
    worst_case = _demand_sum(members, references) / n_cores * ladder.fmax_ghz
    target = worst_case / cost if cost > 0 else ladder.fmax_ghz
    return StaticVfSetting(freq_ghz=ladder.quantize_up(target), target_ghz=target)


def peak_sum_frequency(
    members: Sequence[str],
    references: Mapping[str, float],
    ladder: FrequencyLadder,
    n_cores: int,
) -> StaticVfSetting:
    """Correlation-unaware static setting used by BFD and PCP.

    Provisions for coinciding peaks: ``f = (sum u_hat / Ncore) * fmax``,
    quantized up.
    """
    if n_cores <= 0:
        raise ValueError("n_cores must be positive")
    if not members:
        return StaticVfSetting(freq_ghz=ladder.fmin_ghz, target_ghz=0.0)
    target = _demand_sum(members, references) / n_cores * ladder.fmax_ghz
    return StaticVfSetting(freq_ghz=ladder.quantize_up(target), target_ghz=target)


def estimate_active_servers(references: Mapping[str, float], n_cores: int) -> int:
    """Eqn 3: minimum servers to host the predicted demand.

    ``N_server = ceil( sum(u_hat) / Ncore )`` — at least one.
    """
    if n_cores <= 0:
        raise ValueError("n_cores must be positive")
    total = sum(references.values())
    if total < 0:
        raise ValueError("references must be non-negative")
    return max(1, math.ceil(total / n_cores - 1e-12))
