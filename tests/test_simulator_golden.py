"""Golden pins for the request simulators' raw outputs.

The other simulator tests check behaviour (monotonicity, conservation,
seeded reproducibility of one code version).  These pin the exact
values: each case hashes every output array and count of one run into a
sha256 digest that was recorded once and is hard-coded here, so any
change to the arithmetic, event order, tie rules, binning or RNG draw
order of either simulator fails loudly.

The fork-join cases run Fig 5's four configurations over one full
client wave; every one ends with queries still in flight, i.e. drops at
the horizon.  The dispatch cases run three unequal regions under each
policy, open and closed loop, with 0.125 s utilization bins so service
spans routinely cross bin boundaries.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.experiments import fig5
from repro.experiments.setup1 import Setup1Config
from repro.workloads.dispatch import DispatchConfig, RequestDispatchSimulator
from repro.workloads.queueing import Region
from repro.workloads.requests import ClosedLoopClients, ZipfKeyArrivals


def _digest(*parts: object) -> str:
    """sha256 over a sequence of arrays, names and counts."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            data = np.ascontiguousarray(part)
            h.update(f"{data.dtype.str}{data.shape}".encode())
            h.update(data.tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


FIG5_SETUP = Setup1Config(duration_s=40.0, wave_period_s=40.0)

FIG5_GOLDEN = {
    ("Segregated", 2.1): (
        "58560b33b3cd6c08b94a623f76f09fef"
        "f2db93789c6eb21fbd356f3bb7335f5f"
    ),
    ("Shared-UnCorr", 2.1): (
        "0b4a20c6068a5de669aa5d7fdcea6079"
        "17e5f5b8c91d234dd018e90575393085"
    ),
    ("Shared-Corr", 2.1): (
        "f73b8acbcf12afb122012578032e8b05"
        "c1ee19819e242c50e1e8b06e8f6bca37"
    ),
    ("Shared-Corr", 1.9): (
        "aa3e6efaf222b9092ed13c02d8d6b7cf"
        "9c229a2f9696b837d0c1a2a0290d5f85"
    ),
}


def _fig5_digest(placement: str, freq_ghz: float) -> tuple[str, int]:
    result = fig5.run_configuration(FIG5_SETUP, placement, freq_ghz)
    parts: list[object] = []
    for cluster_id in sorted(result.responses_by_cluster):
        parts += [
            cluster_id,
            np.asarray(result.responses_by_cluster[cluster_id], dtype=float),
            np.asarray(result.arrival_times_by_cluster[cluster_id], dtype=float),
        ]
    parts += [
        result.utilization.names,
        result.utilization.matrix,
        result.completed_queries,
        result.dropped_queries,
    ]
    return _digest(*parts), result.dropped_queries


@pytest.mark.parametrize("placement,freq_ghz", list(FIG5_GOLDEN))
def test_fig5_configuration_golden(placement, freq_ghz):
    digest, dropped = _fig5_digest(placement, freq_ghz)
    assert digest == FIG5_GOLDEN[(placement, freq_ghz)]
    assert dropped > 0


DISPATCH_REGIONS = (
    Region("a", 4, freq_ratio=1.0),
    Region("b", 8, freq_ratio=0.8),
    Region("c", 2, freq_ratio=0.6),
)

DISPATCH_GOLDEN = {
    ("random", "open"): (
        "9da5eba1788633509ac9c6acc4fbd59b"
        "4e40f83f7609dfee8022aff342fee85b"
    ),
    ("round_robin", "open"): (
        "e21cd239a34dca1c9b015ca089d45ad9"
        "d03f6916b0729aef6289c5525bf280c4"
    ),
    ("jsq", "open"): (
        "8d425fe8989c58a94193adb5f8097183"
        "8d467f48a5f1a0baad3fe8c62d59429d"
    ),
    ("random", "closed"): (
        "3b7cc854810728445e6aff9297aab45e"
        "a3306a604dc70bc8917335bd41b174a5"
    ),
    ("round_robin", "closed"): (
        "bf6c93d236693ceaa3c958deaaaa6afa"
        "6294a20ccf7414ff81af9c9d88dafa36"
    ),
    ("jsq", "closed"): (
        "38084e0c5ad3850d605c78066b9a2ced"
        "5027829b1e3ca7b51165a972683a2af0"
    ),
}


def _dispatch_digest(policy: str, loop: str) -> tuple[str, int]:
    workload = (
        ZipfKeyArrivals(110.0) if loop == "open" else ClosedLoopClients(24, think_time_s=0.2)
    )
    config = DispatchConfig(duration_s=20.0, utilization_bin_s=0.125, seed=29)
    result = RequestDispatchSimulator(
        DISPATCH_REGIONS, workload, policy=policy, config=config
    ).run()
    digest = _digest(
        result.response_s,
        result.arrival_s,
        np.asarray(result.region_index, dtype=np.int64),
        result.utilization.names,
        result.utilization.matrix,
        result.completed_requests,
        result.dropped_requests,
    )
    return digest, result.dropped_requests


@pytest.mark.parametrize("policy,loop", list(DISPATCH_GOLDEN))
def test_dispatch_golden(policy, loop):
    digest, dropped = _dispatch_digest(policy, loop)
    assert digest == DISPATCH_GOLDEN[(policy, loop)]
    if (policy, loop) == ("random", "open"):
        assert dropped > 0
