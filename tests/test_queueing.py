"""Tests for repro.workloads.queueing — the fork-join PS simulator."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.workloads.clients import FlashCrowdClients, TraceClients
from repro.workloads.queueing import (
    ForkJoinQueueingSimulator,
    QueueingConfig,
    Region,
    SimCluster,
    _bin_segments,
)


def constant_load(clients: float) -> TraceClients:
    return TraceClients([clients], 1.0)


def one_cluster(region_ids=("r1", "r1"), shares=None, clients=50.0) -> SimCluster:
    return SimCluster(
        cluster_id="C1",
        client_load=constant_load(clients),
        isn_names=("isn1", "isn2"),
        isn_regions=region_ids,
        isn_shares=shares,
    )


class TestModelValidation:
    def test_region_validation(self):
        with pytest.raises(ValueError):
            Region("", 4)
        with pytest.raises(ValueError):
            Region("r", 0)
        with pytest.raises(ValueError):
            Region("r", 4, freq_ratio=1.5)

    def test_region_rates(self):
        region = Region("r", 4, freq_ratio=0.5)
        assert region.per_task_speed == 0.5
        assert region.total_capacity == 2.0
        assert region.rate_with(1) == 0.5
        assert region.rate_with(8) == pytest.approx(0.25)
        assert region.rate_with(0) == 0.0

    def test_cluster_validation(self):
        with pytest.raises(ValueError, match="isn_regions"):
            SimCluster("C", constant_load(1.0), ("a", "b"), ("r1",))
        with pytest.raises(ValueError, match="positive"):
            SimCluster("C", constant_load(1.0), ("a",), ("r1",), isn_shares=(0.0,))

    def test_simulator_validation(self):
        with pytest.raises(ValueError, match="unknown region"):
            ForkJoinQueueingSimulator([one_cluster()], [Region("other", 4)])
        with pytest.raises(ValueError, match="duplicate region"):
            ForkJoinQueueingSimulator(
                [one_cluster()], [Region("r1", 4), Region("r1", 8)]
            )
        with pytest.raises(ValueError, match="at least one cluster"):
            ForkJoinQueueingSimulator([], [Region("r1", 4)])

    def test_spike_narrower_than_probe_is_rejected(self):
        """Thinning needs the load's true maximum; a surge centred between
        two of the 512 probe points (10/511 s apart here) is invisible to
        the probe and must raise instead of biasing the stream."""
        spike = FlashCrowdClients(10.0, [(5.0, 1000.0, 0.002)])
        cluster = SimCluster("C1", spike, ("isn1",), ("r1",))
        config = QueueingConfig(duration_s=10.0, qps_per_client=100.0, seed=1)
        sim = ForkJoinQueueingSimulator([cluster], [Region("r1", 8)], config)
        with pytest.raises(ValueError, match="thinning bound"):
            sim.run()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QueueingConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            QueueingConfig(base_demand_core_s=0.0)
        with pytest.raises(ValueError):
            QueueingConfig(service_sigma=-0.1)


class TestConservation:
    def test_completion_accounting_consistent(self):
        """Every completed query is recorded exactly once, everywhere.

        ``arrival_times_by_cluster`` records the arrival stamp of each
        *completed* query (the simulator appends it in the completion
        branch), so its size, ``completed_queries`` and the response
        array must agree exactly; queries still in flight at the
        duration cutoff are counted as dropped, never silently lost.
        """
        config = QueueingConfig(duration_s=60.0, qps_per_client=0.2, seed=3)
        sim = ForkJoinQueueingSimulator([one_cluster()], [Region("r1", 8)], config)
        result = sim.run()
        assert result.arrival_times_by_cluster["C1"].size == result.completed_queries
        assert result.completed_queries == result.responses_by_cluster["C1"].size
        assert result.dropped_queries >= 0
        assert result.completed_queries > 0

    def test_responses_positive_and_bounded_below_by_overhead(self):
        config = QueueingConfig(duration_s=60.0, qps_per_client=0.2, seed=3)
        sim = ForkJoinQueueingSimulator([one_cluster()], [Region("r1", 8)], config)
        result = sim.run()
        responses = result.responses_by_cluster["C1"]
        assert np.all(responses > config.frontend_overhead_s)

    def test_work_accounting_matches_demand(self):
        """Total utilization-bin work equals expected served demand."""
        config = QueueingConfig(
            duration_s=120.0, qps_per_client=0.2, base_demand_core_s=0.1, seed=5
        )
        sim = ForkJoinQueueingSimulator([one_cluster()], [Region("r1", 8)], config)
        result = sim.run()
        total_work = float(result.utilization.matrix.sum()) * config.utilization_bin_s
        # ~ arrivals * 2 tasks * 0.1 core-s each (light load: all served).
        expected = result.completed_queries * 2 * config.base_demand_core_s
        assert total_work == pytest.approx(expected, rel=0.1)

    def test_bin_cut_steps_over_edges_that_round_down(self):
        # 4.3 / 0.1 evaluates just below 43, yet 43 * 0.1 == 4.3.
        assert int(4.3 / 0.1) == 42 and 43 * 0.1 == 4.3
        assert _bin_segments(4.3, 4.35, 0.1, 99) == [(43, 4.35 - 4.3)]
        assert _bin_segments(4.25, 4.35, 0.1, 99) == [
            (42, 4.3 - 4.25),
            (43, 4.35 - 4.3),
        ]

    def test_fractional_bins_conserve_work(self):
        """Bin width changes only the binning: same responses, same work."""
        config = QueueingConfig(
            duration_s=20.0, qps_per_client=0.2, utilization_bin_s=0.1, seed=5
        )
        runs = [
            ForkJoinQueueingSimulator([one_cluster()], [Region("r1", 8)], c).run()
            for c in (config, replace(config, utilization_bin_s=1.0))
        ]
        np.testing.assert_array_equal(
            runs[0].responses_by_cluster["C1"], runs[1].responses_by_cluster["C1"]
        )
        fine, coarse = (float(r.utilization.matrix.sum()) for r in runs)
        assert fine * 0.1 == pytest.approx(coarse, rel=1e-9)


class TestQueueingBehaviour:
    def test_latency_rises_with_load(self):
        low = QueueingConfig(duration_s=120.0, qps_per_client=0.05, seed=7)
        high = QueueingConfig(duration_s=120.0, qps_per_client=0.05, seed=7)
        sim_low = ForkJoinQueueingSimulator(
            [one_cluster(clients=20.0)], [Region("r1", 8)], low
        )
        sim_high = ForkJoinQueueingSimulator(
            [one_cluster(clients=700.0)], [Region("r1", 8)], high
        )
        p90_low = sim_low.run().p90_response_s("C1")
        p90_high = sim_high.run().p90_response_s("C1")
        assert p90_high > p90_low * 1.5

    def test_lower_frequency_slows_service(self):
        base = QueueingConfig(duration_s=120.0, qps_per_client=0.02, seed=9)
        fast = ForkJoinQueueingSimulator(
            [one_cluster(clients=20.0)], [Region("r1", 8, 1.0)], base
        ).run()
        slow = ForkJoinQueueingSimulator(
            [one_cluster(clients=20.0)], [Region("r1", 8, 0.5)], base
        ).run()
        # At light load response ~ service time ~ 1/freq_ratio.
        assert slow.mean_response_s("C1") > fast.mean_response_s("C1") * 1.5

    def test_light_load_response_near_service_time(self):
        config = QueueingConfig(
            duration_s=200.0,
            qps_per_client=0.01,
            base_demand_core_s=0.1,
            service_sigma=0.0,
            frontend_overhead_s=0.0,
            seed=11,
        )
        sim = ForkJoinQueueingSimulator(
            [one_cluster(clients=10.0)], [Region("r1", 8)], config
        )
        result = sim.run()
        assert result.mean_response_s("C1") == pytest.approx(0.1, rel=0.1)

    def test_share_skew_shifts_utilization(self):
        config = QueueingConfig(duration_s=120.0, qps_per_client=0.2, seed=13)
        sim = ForkJoinQueueingSimulator(
            [one_cluster(shares=(0.8, 1.2))], [Region("r1", 8)], config
        )
        result = sim.run()
        light = result.utilization["isn1"].mean()
        heavy = result.utilization["isn2"].mean()
        assert heavy > light * 1.2

    def test_zero_rate_completes_nothing(self):
        config = QueueingConfig(duration_s=30.0, qps_per_client=0.0, seed=1)
        sim = ForkJoinQueueingSimulator([one_cluster()], [Region("r1", 8)], config)
        result = sim.run()
        assert result.completed_queries == 0
        with pytest.raises(ValueError, match="no queries"):
            result.p90_response_s("C1")

    def test_zero_client_window_pauses_arrivals(self):
        """A zero-client window mid-trace stalls arrivals, not the sim.

        ``TraceClients`` can legitimately hit zero (a tenant going
        idle); the NHPP thinning must produce no arrivals inside that
        window and resume cleanly after it.
        """
        config = QueueingConfig(duration_s=90.0, qps_per_client=0.5, seed=19)
        load = TraceClients([40.0, 0.0, 40.0], 30.0)
        cluster = SimCluster("C1", load, ("isn1", "isn2"), ("r1", "r1"))
        result = ForkJoinQueueingSimulator(
            [cluster], [Region("r1", 8)], config
        ).run()
        assert result.completed_queries > 0
        stamps = result.arrival_times_by_cluster["C1"]
        in_window = stamps[(stamps >= 30.0) & (stamps < 60.0)]
        assert in_window.size == 0

    def test_all_zero_load_completes_nothing(self):
        config = QueueingConfig(duration_s=30.0, qps_per_client=0.5, seed=19)
        cluster = SimCluster(
            "C1", TraceClients([0.0], 30.0), ("isn1", "isn2"), ("r1", "r1")
        )
        result = ForkJoinQueueingSimulator(
            [cluster], [Region("r1", 8)], config
        ).run()
        assert result.completed_queries == 0
        assert result.dropped_queries == 0

    def test_single_core_region_serializes_service(self):
        """One core shared by a fork-join pair still conserves work."""
        config = QueueingConfig(
            duration_s=120.0, qps_per_client=0.05, base_demand_core_s=0.1, seed=21
        )
        result = ForkJoinQueueingSimulator(
            [one_cluster(clients=10.0)], [Region("r1", 1)], config
        ).run()
        assert result.completed_queries > 0
        total_work = float(result.utilization.matrix.sum()) * config.utilization_bin_s
        expected = result.completed_queries * 2 * config.base_demand_core_s
        assert total_work == pytest.approx(expected, rel=0.1)
        # A single core can never serve more than 1 core-s per second.
        assert float(result.utilization.matrix.sum(axis=0).max()) <= 1.0 + 1e-9

    def test_simultaneous_completion_ties_resolve_deterministically(self):
        """sigma=0 makes every forked pair complete at the same instant.

        Both tasks of a query then carry identical attained-work
        targets; the sequence-number tie-break must resolve them in a
        fixed order so the run is reproducible and nothing is lost.
        """
        config = QueueingConfig(
            duration_s=60.0,
            qps_per_client=0.2,
            service_sigma=0.0,
            seed=23,
        )
        first = ForkJoinQueueingSimulator(
            [one_cluster()], [Region("r1", 8)], config
        ).run()
        second = ForkJoinQueueingSimulator(
            [one_cluster()], [Region("r1", 8)], config
        ).run()
        assert first.completed_queries > 0
        np.testing.assert_array_equal(
            first.responses_by_cluster["C1"], second.responses_by_cluster["C1"]
        )
        assert first.completed_queries == second.completed_queries
        assert first.dropped_queries == second.dropped_queries

    def test_seeded_run_is_reproducible(self):
        config = QueueingConfig(duration_s=60.0, qps_per_client=0.2, seed=25)
        runs = [
            ForkJoinQueueingSimulator(
                [one_cluster()], [Region("r1", 8)], config
            ).run()
            for _ in range(2)
        ]
        np.testing.assert_array_equal(
            runs[0].responses_by_cluster["C1"], runs[1].responses_by_cluster["C1"]
        )
        np.testing.assert_array_equal(
            runs[0].utilization.matrix, runs[1].utilization.matrix
        )

    def test_percentile_response_interpolates(self):
        config = QueueingConfig(duration_s=60.0, qps_per_client=0.2, seed=3)
        result = ForkJoinQueueingSimulator(
            [one_cluster()], [Region("r1", 8)], config
        ).run()
        p50 = result.percentile_response_s("C1", 50.0)
        p99 = result.percentile_response_s("C1", 99.0)
        assert p50 <= p99
        assert result.p90_response_s("C1") == result.percentile_response_s("C1", 90.0)

    def test_isolated_regions_do_not_interfere(self):
        """A saturated region must not slow a cluster in another region."""
        config = QueueingConfig(duration_s=120.0, qps_per_client=0.1, seed=17)
        quiet = SimCluster(
            "quiet", constant_load(10.0), ("q1", "q2"), ("rq", "rq")
        )
        busy = SimCluster(
            "busy", constant_load(2000.0), ("b1", "b2"), ("rb", "rb")
        )
        both = ForkJoinQueueingSimulator(
            [quiet, busy], [Region("rq", 8), Region("rb", 2)], config
        ).run()
        alone = ForkJoinQueueingSimulator(
            [quiet], [Region("rq", 8)], config
        ).run()
        assert both.p90_response_s("quiet") == pytest.approx(
            alone.p90_response_s("quiet"), rel=0.25
        )
