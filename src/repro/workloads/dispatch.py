"""Request dispatch in front of shared-core regions.

The fork-join simulator (:mod:`repro.workloads.queueing`) forks every
query onto *all* of a cluster's ISNs.  This module models the other
common scale-out shape — a dispatcher choosing **one** backend per
request — over the same :class:`~repro.workloads.queueing.Region`
processor-sharing substrate, driven through the fork-join simulator's
own region core (``_PSRegion``, ``_next_completion``, ``_advance``):

* ``"random"`` — uniform seeded pick;
* ``"round_robin"`` — cycling pick in region order;
* ``"jsq"`` — join-shortest-queue (fewest in-flight requests, lowest
  region index on ties).

Requests come from the :mod:`repro.workloads.requests` catalog: an
open-loop generator is materialised ahead of the run, while
:class:`~repro.workloads.requests.ClosedLoopClients` is animated live
(each completion schedules that client's next arrival one think time
later).  Per-region served work is binned into a
:class:`~repro.traces.trace.TraceSet`, the same bridge the fork-join
simulator uses, so dispatch results plug into the trace tooling
unchanged.

RNG stream layout (v1)
----------------------
One ``numpy`` generator seeded with ``DispatchConfig.seed`` drives the
whole run; the draw order is part of the public contract
(:data:`~repro.workloads.requests.WORKLOAD_LAYOUTS`):

* open-loop: (1) the workload's ``generate`` draws (see its own layout
  note), (2) one service block of ``num_requests`` draws, (3) for the
  ``"random"`` policy only, one ``integers`` draw per arrival in event
  order;
* closed-loop: (1) one exponential block of ``num_clients`` initial
  think times, then event-ordered — at each arrival one service draw
  (block of 1) followed, for ``"random"``, by one ``integers`` draw; at
  each completion one think draw.

Ties (equal attained-work targets, simultaneous arrival/completion) are
broken by monotone sequence numbers, so runs are bit-reproducible.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import percentile
from repro.traces.trace import TraceSet, UtilizationTrace
from repro.workloads.queueing import Region, _advance, _next_completion, _PSRegion
from repro.workloads.requests import (
    ClosedLoopClients,
    LognormalService,
    OpenLoopGenerator,
    ServiceDistribution,
)

__all__ = [
    "DISPATCH_POLICIES",
    "DispatchConfig",
    "DispatchResult",
    "RequestDispatchSimulator",
]

#: Supported dispatch policies (pick-one-backend strategies).
DISPATCH_POLICIES = ("random", "round_robin", "jsq")


@dataclass(frozen=True)
class DispatchConfig:
    """Global dispatch-simulation parameters.

    ``base_demand_core_s`` is the mean per-request service demand in
    core-seconds at fmax; the catalog's mean-one multipliers (service
    law x per-key cost) scale it per request.
    """

    duration_s: float = 300.0
    base_demand_core_s: float = 0.08
    utilization_bin_s: float = 1.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.base_demand_core_s <= 0:
            raise ValueError("base demand must be positive")
        if self.utilization_bin_s <= 0:
            raise ValueError("utilization bin must be positive")


@dataclass(frozen=True)
class DispatchResult:
    """Responses and measured per-region utilization of one run.

    Arrays are in completion order; ``region_index`` names the region
    that served each completed request.
    """

    response_s: np.ndarray
    arrival_s: np.ndarray
    region_index: np.ndarray
    utilization: TraceSet
    completed_requests: int
    dropped_requests: int

    def percentile_response_s(self, q: float) -> float:
        """Response-time percentile over all completed requests."""
        if self.response_s.size == 0:
            raise ValueError("simulation completed no requests")
        return percentile(self.response_s, q)

    @property
    def p99_response_s(self) -> float:
        return self.percentile_response_s(99.0)

    @property
    def p999_response_s(self) -> float:
        return self.percentile_response_s(99.9)

    @property
    def mean_response_s(self) -> float:
        if self.response_s.size == 0:
            raise ValueError("simulation completed no requests")
        return float(self.response_s.mean())


class RequestDispatchSimulator:
    """Single-task request simulation over dispatched PS regions."""

    def __init__(
        self,
        regions: list[Region] | tuple[Region, ...],
        workload: OpenLoopGenerator | ClosedLoopClients,
        service: ServiceDistribution | None = None,
        policy: str = "jsq",
        config: DispatchConfig | None = None,
    ) -> None:
        regions = tuple(regions)
        if not regions:
            raise ValueError("need at least one region")
        ids = [r.region_id for r in regions]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate region ids")
        if policy not in DISPATCH_POLICIES:
            raise ValueError(
                f"unknown dispatch policy {policy!r}; "
                f"expected one of {DISPATCH_POLICIES}"
            )
        self._regions = regions
        self._workload = workload
        self._service = service or LognormalService()
        self._policy = policy
        self._config = config or DispatchConfig()

    def run(self) -> DispatchResult:
        """Execute the simulation and collect responses + utilization."""
        config = self._config
        rng = np.random.default_rng(config.seed)
        bin_s = config.utilization_bin_s
        bins = int(math.ceil(config.duration_s / bin_s))
        last_bin = bins - 1
        states = [_PSRegion(region, [[0.0] * bins]) for region in self._regions]
        n_regions = len(states)
        horizon = config.duration_s
        closed = isinstance(self._workload, ClosedLoopClients)

        # --- arrivals: (time, seq, client, demand) min-heap ------------
        # Open-loop demands are pre-drawn (stream block then service
        # block); closed-loop demands are drawn at each arrival event.
        arrivals: list[tuple[float, int, int, float]] = []
        seq = 0
        if closed:
            for client, t in enumerate(self._workload.initial_arrivals(rng)):
                if t < horizon:
                    arrivals.append((float(t), seq, client, math.nan))
                    seq += 1
        else:
            stream = self._workload.generate(horizon, rng)
            multipliers = self._service.sample(rng, stream.num_requests)
            demands = (
                config.base_demand_core_s * stream.demand_multiplier * multipliers
            )
            for t, demand in zip(stream.arrival_s, demands, strict=True):
                arrivals.append((float(t), seq, -1, float(demand)))
                seq += 1
        heapq.heapify(arrivals)

        in_flight: dict[int, tuple[float, int, int]] = {}  # id -> (t, region, client)
        responses: list[float] = []
        arrival_stamps: list[float] = []
        served_by: list[int] = []
        rr_cursor = 0
        next_request_id = 0
        now = 0.0

        while True:
            next_arrival_t = arrivals[0][0] if arrivals else math.inf
            next_completion_t, completing = _next_completion(states, now)
            # min() without the builtin call on every event.
            next_t = next_completion_t if next_completion_t < next_arrival_t else next_arrival_t
            if next_t > horizon:
                _advance(states, now, horizon, bin_s, last_bin)
                break

            _advance(states, now, next_t, bin_s, last_bin)
            now = next_t

            if next_arrival_t <= next_completion_t:
                # --- arrival -------------------------------------------
                _, _, client, demand = heapq.heappop(arrivals)
                if closed:
                    demand = float(
                        config.base_demand_core_s * self._service.sample(rng, 1)[0]
                    )
                if self._policy == "jsq":
                    # ``min`` keeps the first (lowest-index) region on a tie.
                    choice = min(range(n_regions), key=lambda i: states[i].active)
                elif self._policy == "round_robin":
                    choice = rr_cursor % n_regions
                    rr_cursor += 1
                else:
                    choice = int(rng.integers(n_regions))
                states[choice].admit(demand, next_request_id)
                in_flight[next_request_id] = (now, choice, client)
                next_request_id += 1
            else:
                # --- completion ----------------------------------------
                arrived, region_idx, client = in_flight.pop(states[completing].complete())
                responses.append(now - arrived)
                arrival_stamps.append(arrived)
                served_by.append(region_idx)
                if closed:
                    t_next = now + self._workload.think_s(rng)
                    if t_next < horizon:
                        heapq.heappush(arrivals, (t_next, seq, client, math.nan))
                        seq += 1

        utilization = TraceSet(
            UtilizationTrace(np.asarray(state.rows[0]) / bin_s, bin_s, region.region_id)
            for state, region in zip(states, self._regions, strict=True)
        )
        return DispatchResult(
            response_s=np.asarray(responses),
            arrival_s=np.asarray(arrival_stamps),
            region_index=np.asarray(served_by, dtype=int),
            utilization=utilization,
            completed_requests=len(responses),
            dropped_requests=len(in_flight),
        )
