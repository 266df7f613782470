"""Soak: a long-running controller keeps constant-size state.

A power manager serving indefinitely must not grow per-VM history or
its checkpointable snapshot with the number of periods served.  The
windows cycle through a fixed block, so periods 100 and 400 see the same
demand and any size difference is state accumulated across periods.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.manager import ManagerConfig, PowerManager
from repro.core.sharding import ShardingConfig
from repro.infrastructure.server import XEON_E5410
from repro.prediction.predictors import MovingAveragePredictor
from repro.sim.approaches import ProposedApproach
from repro.sim.checkpoint import CheckpointPolicy, list_checkpoints, load_checkpoint
from repro.sim.engine import ReplayConfig, replay
from repro.traces.trace import TraceSet

NUM_VMS = 50
SAMPLES = 6
PERIOD_S = 5.0
CYCLE = 4
PERIODS = 400
PROBES = (100, 400)
NAMES = tuple(f"vm{i:02d}" for i in range(NUM_VMS))


def _block() -> np.ndarray:
    """``CYCLE`` periods of demand for ``NUM_VMS`` VMs in a few groups."""
    rng = np.random.default_rng(41)
    groups = rng.uniform(0.2, 1.5, (5, CYCLE * SAMPLES))
    labels = np.arange(NUM_VMS) % 5
    noise = rng.uniform(0.0, 0.4, (NUM_VMS, CYCLE * SAMPLES))
    return groups[labels] + noise


def _predictor() -> MovingAveragePredictor:
    return MovingAveragePredictor(3, 2.0)


@pytest.mark.parametrize("allocator", ["exact", "sharded"])
def test_manager_state_is_bounded(allocator):
    block = _block()
    windows = [
        TraceSet.from_matrix(
            block[:, k * SAMPLES : (k + 1) * SAMPLES].copy(), NAMES, PERIOD_S
        )
        for k in range(CYCLE)
    ]
    predictor = _predictor()
    manager = PowerManager(
        ManagerConfig(
            n_cores=8,
            freq_levels_ghz=(1.2, 1.8, 2.4),
            default_reference=2.0,
            horizon_periods=3 if allocator == "exact" else 1,
            allocator=allocator,
            sharding=ShardingConfig(target_shard_vms=25) if allocator == "sharded" else None,
        ),
        predictor,
    )
    sizes = {}
    for period in range(1, PERIODS + 1):
        manager.decide(windows[period % CYCLE])
        if period in PROBES:
            sizes[period] = len(pickle.dumps(manager.snapshot()))
    assert set(manager.history) == set(NAMES)
    assert all(len(h) <= predictor.history_window for h in manager.history.values())
    assert sizes[PROBES[0]] == sizes[PROBES[1]]


def test_proposed_replay_state_is_bounded(tmp_path):
    # Periods 0..PERIODS: the replay's first period is warm-up only.
    demand = np.tile(_block(), (1, PERIODS // CYCLE + 1))[:, : (PERIODS + 1) * SAMPLES]
    fine = TraceSet.from_matrix(demand, NAMES, PERIOD_S)
    predictor = _predictor()
    approach = ProposedApproach(
        XEON_E5410.n_cores,
        XEON_E5410.freq_levels_ghz,
        max_servers=NUM_VMS,
        predictor=predictor,
        default_reference=2.0,
    )
    config = ReplayConfig(
        tperiod_s=SAMPLES * PERIOD_S,
        checkpoint=CheckpointPolicy(tmp_path, every_periods=PROBES[0], keep=len(PROBES) + 2),
    )
    result = replay(fine, XEON_E5410, NUM_VMS, approach, config)
    assert result.num_periods == PERIODS
    history = approach.manager.history
    assert all(len(h) <= predictor.history_window for h in history.values())
    sections = {
        int(path.stem.split("_")[1]): len(load_checkpoint(path).sections["approach"])
        for path in list_checkpoints(tmp_path)
    }
    assert sections[PROBES[0]] == sections[PROBES[1]]
