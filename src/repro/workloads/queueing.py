"""Fork-join processor-sharing discrete-event simulator.

Substitutes for the paper's physical Setup-1 (CloudSuite web search on
Xen, Faban clients): it produces the 90th-percentile response times of
Fig 5 and cross-checks the utilization traces of Fig 4.

Model
-----
* Each **query** arrives at a cluster following a non-homogeneous Poisson
  process whose rate tracks the client population (``qps_per_client``
  queries per second per client).
* A query **forks** one task onto each of the cluster's ISNs; the query
  completes when the *slowest* task finishes (the front-end "sends
  results to clients only after collecting the search results from all
  ISNs"), plus a small front-end overhead.
* Each ISN task carries a service demand in core-seconds-at-fmax, drawn
  lognormally around the per-ISN mean (per-query matched-results
  variability — the source of the cluster's load imbalance).
* An ISN's tasks execute in a **region** — a pool of ``n_cores`` cores
  running at a frequency ratio ``f/fmax``.  Regions model the placement
  variants: Segregated pins each ISN to its own 4-core region; the Shared
  variants let two ISNs share one 8-core region.  Scheduling within a
  region is egalitarian processor sharing with a one-core-per-task cap:
  with ``k`` active tasks each progresses at ``min(f/fmax,
  k_cores * f/fmax / k)`` core-equivalents.

Implementation
--------------
Event-driven with the *attained-work* trick: within a region every active
task accrues work at the same rate, so each task can be indexed by the
region's cumulative attained work at which it will finish.  A heap per
region keyed by that target makes every arrival/completion O(log n), and
rates only change at events.

The region core (:class:`_PSRegion`, :func:`_next_completion`,
:func:`_advance`) also drives :mod:`repro.workloads.dispatch`, so both
simulators share one rate cache, one set of tie rules and one binning.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

from repro.analysis.stats import percentile
from repro.traces.trace import TraceSet, UtilizationTrace
from repro.workloads.clients import ClientLoad

__all__ = [
    "Region",
    "SimCluster",
    "QueueingConfig",
    "QueueingResult",
    "ForkJoinQueueingSimulator",
]


@dataclass(frozen=True)
class Region:
    """A pool of cores an ISN's tasks execute in.

    ``freq_ratio`` is ``f / fmax``; service demands are expressed at
    ``fmax``, so both per-task speed and total capacity scale with it.
    """

    region_id: str
    n_cores: float
    freq_ratio: float = 1.0

    def __post_init__(self) -> None:
        if not self.region_id:
            raise ValueError("region_id must be non-empty")
        if self.n_cores <= 0:
            raise ValueError("a region needs positive core capacity")
        if not 0.0 < self.freq_ratio <= 1.0:
            raise ValueError("freq_ratio must lie in (0, 1]")

    @property
    def per_task_speed(self) -> float:
        """Max progress rate of a single task (core-equivalents at fmax)."""
        return self.freq_ratio

    @property
    def total_capacity(self) -> float:
        """Total region work rate (core-equivalents at fmax)."""
        return self.n_cores * self.freq_ratio

    def rate_with(self, active_tasks: int) -> float:
        """Per-task progress rate with ``active_tasks`` runnable tasks."""
        if active_tasks <= 0:
            return 0.0
        return min(self.per_task_speed, self.total_capacity / active_tasks)


@dataclass(frozen=True)
class SimCluster:
    """A web-search cluster as the queueing simulator sees it.

    Parameters
    ----------
    cluster_id:
        Display name.
    client_load:
        Driving client population.
    isn_names:
        VM ids of the ISNs (order defines the share order).
    isn_regions:
        Region id each ISN executes in (same length as ``isn_names``).
    isn_shares:
        Mean per-query demand multiplier per ISN; ``1.0`` is the balanced
        value.  Values are relative to ``QueueingConfig.base_demand``
        (e.g. ``(0.84, 1.16)`` reproduces Fig 4(a)'s skew).
    """

    cluster_id: str
    client_load: ClientLoad
    isn_names: tuple[str, ...]
    isn_regions: tuple[str, ...]
    isn_shares: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.isn_names:
            raise ValueError("a cluster needs at least one ISN")
        if len(self.isn_regions) != len(self.isn_names):
            raise ValueError("isn_regions must match isn_names")
        if self.isn_shares is not None:
            if len(self.isn_shares) != len(self.isn_names):
                raise ValueError("isn_shares must match isn_names")
            if any(s <= 0 for s in self.isn_shares):
                raise ValueError("shares must be positive")

    def shares(self) -> tuple[float, ...]:
        """Per-ISN demand multipliers (balanced default)."""
        if self.isn_shares is None:
            return tuple(1.0 for _ in self.isn_names)
        return self.isn_shares


@dataclass(frozen=True)
class QueueingConfig:
    """Global simulator parameters.

    ``base_demand_core_s`` is the mean per-task service demand at a share
    of 1.0, in core-seconds at fmax; together with ``qps_per_client`` it
    calibrates how close the testbed runs to saturation.
    """

    duration_s: float = 600.0
    qps_per_client: float = 0.115
    base_demand_core_s: float = 0.10
    service_sigma: float = 0.45
    frontend_overhead_s: float = 0.012
    utilization_bin_s: float = 1.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.qps_per_client < 0:
            raise ValueError("qps_per_client must be non-negative")
        if self.base_demand_core_s <= 0:
            raise ValueError("base demand must be positive")
        if self.service_sigma < 0:
            raise ValueError("service_sigma must be non-negative")
        if self.frontend_overhead_s < 0:
            raise ValueError("front-end overhead must be non-negative")
        if self.utilization_bin_s <= 0:
            raise ValueError("utilization bin must be positive")


@dataclass(frozen=True)
class QueueingResult:
    """Response samples and measured utilization of one simulation run."""

    responses_by_cluster: Mapping[str, np.ndarray]
    arrival_times_by_cluster: Mapping[str, np.ndarray]
    utilization: TraceSet
    completed_queries: int
    dropped_queries: int

    def p90_response_s(self, cluster_id: str) -> float:
        """90th-percentile response time of one cluster (Fig 5's metric)."""
        return self.percentile_response_s(cluster_id, 90.0)

    def percentile_response_s(self, cluster_id: str, q: float) -> float:
        """Arbitrary response-time percentile (e.g. p99/p999 for SLOs)."""
        samples = self.responses_by_cluster[cluster_id]
        if samples.size == 0:
            raise ValueError(f"cluster {cluster_id!r} completed no queries")
        return percentile(samples, q)

    def mean_response_s(self, cluster_id: str) -> float:
        """Mean response time of one cluster."""
        samples = self.responses_by_cluster[cluster_id]
        if samples.size == 0:
            raise ValueError(f"cluster {cluster_id!r} completed no queries")
        return float(samples.mean())


class _PSRegion:
    """Attained-work processor sharing for one region.

    Every active task progresses at the same per-task ``rate``, so a task
    is done when the region's cumulative per-task ``attained`` work
    reaches the target it was admitted with; ``heap`` orders the
    ``(target, key, member)`` entries by target, then by the caller's
    unique ``key``.  ``rate`` only changes with the active count, so it
    is refreshed in :meth:`admit` and :meth:`complete` (from
    :meth:`Region.rate_with`, memoised per count) and read as a plain
    attribute everywhere else.

    ``rows`` are the utilization-bin rows of the region's members (one
    per ISN for the fork-join simulator, the region itself for
    dispatch) and ``counts`` their active tasks.
    """

    __slots__ = ("region", "attained", "heap", "active", "rate", "rows", "counts", "_rates")

    def __init__(self, region: Region, rows: list[list[float]]) -> None:
        self.region = region
        self.attained = 0.0
        self.heap: list[tuple[float, int, int]] = []
        self.active = 0
        self.rate = 0.0
        self.rows = rows
        self.counts = [0] * len(rows)
        self._rates = [0.0]  # rate_with(k) for every active count k seen so far

    def admit(self, demand: float, key: int, member: int = 0) -> None:
        """Start a task of ``demand`` core-seconds for member ``member``."""
        heapq.heappush(self.heap, (self.attained + demand, key, member))
        self.counts[member] += 1
        self.active += 1
        if self.active == len(self._rates):
            self._rates.append(self.region.rate_with(self.active))
        self.rate = self._rates[self.active]

    def complete(self) -> int:
        """Retire the earliest-finishing task and return its key."""
        target, key, member = heapq.heappop(self.heap)
        # Guard against float drift: the task is done by construction.
        if target > self.attained:
            self.attained = target
        self.counts[member] -= 1
        self.active -= 1
        self.rate = self._rates[self.active]
        return key


def _next_completion(states: Sequence[_PSRegion], now: float) -> tuple[float, int]:
    """Earliest completion time over ``states`` and its region index.

    Returns ``(inf, -1)`` when every region is idle.  The first region
    wins a tie; callers let an arrival win a tie with a completion.
    """
    best_t = math.inf
    best = -1
    for index, state in enumerate(states):
        if state.heap:
            dt = (state.heap[0][0] - state.attained) / state.rate
            t = now + (dt if dt > 0.0 else 0.0)
            if t < best_t:
                best_t = t
                best = index
    return best_t, best


def _bin_segments(t0: float, t1: float, bin_s: float, last: int) -> list[tuple[int, float]]:
    """``(bin, width)`` pieces of ``[t0, t1)`` cut at utilization-bin edges.

    Time past the last bin's edge is credited to the last bin.
    """
    if t0 >= t1 - 1e-15:
        return []
    b = int(t0 / bin_s)
    if b > last:
        b = last
    if t1 <= (b + 1) * bin_s:
        return [(b, t1 - t0)]
    segments = []
    lo = t0
    while lo < t1 - 1e-15:
        b = int(lo / bin_s)
        if b > last:
            b = last
        hi = (b + 1) * bin_s
        if hi == lo:
            # ``lo`` is the bin's right edge, which ``lo / bin_s`` rounded
            # down into; without this step the cut would never advance.
            if b < last:
                b += 1
                hi = (b + 1) * bin_s
            else:
                hi = t1
        if hi >= t1:
            hi = t1
        segments.append((b, hi - lo))
        lo = hi
    return segments


def _advance(
    states: Sequence[_PSRegion], t0: float, t1: float, bin_s: float, last: int
) -> None:
    """Accrue attained work over ``[t0, t1)`` and bin each member's share.

    Each bin cell receives at most one addition per call, so every cell
    sums its contributions in chronological order.
    """
    if t1 <= t0:
        return
    dt = t1 - t0
    segments = None
    for state in states:
        if state.active:
            rate = state.rate
            state.attained += rate * dt
            if segments is None:
                segments = _bin_segments(t0, t1, bin_s, last)
            for member, count in enumerate(state.counts):
                if count:
                    member_rate = rate * count
                    row = state.rows[member]
                    for b, width in segments:
                        row[b] += member_rate * width


class _Query:
    """Fork-join bookkeeping for one query."""

    __slots__ = ("cluster_id", "arrival_t", "pending")

    def __init__(self, cluster_id: str, arrival_t: float, fanout: int) -> None:
        self.cluster_id = cluster_id
        self.arrival_t = arrival_t
        self.pending = fanout


def _nhpp_arrivals(
    load: ClientLoad,
    qps_per_client: float,
    duration_s: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Non-homogeneous Poisson arrival times via Lewis-Shedler thinning.

    The thinning bound is the load's maximum over a 512-point probe plus
    a 10% guard.  A load that exceeds the bound anywhere (a spike
    narrower than the probe spacing) would need an acceptance
    probability above one, so it is rejected rather than silently
    under-sampled.
    """
    if qps_per_client == 0.0:
        return np.empty(0)
    probe = load.sample(np.linspace(0.0, duration_s, 512))
    rate_max = float(np.max(probe)) * qps_per_client
    if rate_max <= 0:
        return np.empty(0)
    rate_max *= 1.1
    times: list[float] = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate_max)
        if t >= duration_s:
            break
        rate = load.clients_at(t) * qps_per_client
        if rate > rate_max:
            raise ValueError(
                f"arrival rate {rate:.6g}/s at t={t:.6g}s exceeds the thinning "
                f"bound {rate_max:.6g}/s; the client load has a spike narrower "
                f"than the {duration_s / 511:.6g}s probe spacing"
            )
        if rng.random() < rate / rate_max:
            times.append(t)
    return np.asarray(times)


class ForkJoinQueueingSimulator:
    """Discrete-event fork-join simulation over shared-core regions."""

    def __init__(
        self,
        clusters: Sequence[SimCluster],
        regions: Sequence[Region],
        config: QueueingConfig | None = None,
    ) -> None:
        if not clusters:
            raise ValueError("need at least one cluster")
        self._clusters = tuple(clusters)
        self._config = config or QueueingConfig()
        region_ids = [r.region_id for r in regions]
        if len(set(region_ids)) != len(region_ids):
            raise ValueError("duplicate region ids")
        self._regions = {r.region_id: r for r in regions}
        vm_names: list[str] = []
        for cluster in self._clusters:
            for name, region_id in zip(cluster.isn_names, cluster.isn_regions, strict=True):
                if region_id not in self._regions:
                    raise ValueError(f"unknown region {region_id!r} for ISN {name!r}")
                if name in vm_names:
                    raise ValueError(f"duplicate ISN name {name!r}")
                vm_names.append(name)
        self._vm_names = tuple(vm_names)

    def run(self) -> QueueingResult:
        """Execute the simulation and collect responses + utilization."""
        config = self._config
        rng = np.random.default_rng(config.seed)
        bin_s = config.utilization_bin_s
        bins = int(math.ceil(config.duration_s / bin_s))
        last_bin = bins - 1

        # --- static lookup tables: each ISN is a member of its region ----
        work_rows = [[0.0] * bins for _ in self._vm_names]
        region_index = {rid: k for k, rid in enumerate(self._regions)}
        members: list[list[list[float]]] = [[] for _ in self._regions]
        forks: list[list[tuple[int, int, float]]] = []  # (region, member, share)
        vm = 0
        for cluster in self._clusters:
            fork = []
            for region_id, share in zip(cluster.isn_regions, cluster.shares(), strict=True):
                k = region_index[region_id]
                fork.append((k, len(members[k]), share))
                members[k].append(work_rows[vm])
                vm += 1
            forks.append(fork)
        states = [
            _PSRegion(region, rows)
            for region, rows in zip(self._regions.values(), members, strict=True)
        ]

        # --- arrivals ---------------------------------------------------
        arrival_streams = [
            _nhpp_arrivals(cluster.client_load, config.qps_per_client, config.duration_s, rng)
            for cluster in self._clusters
        ]
        events: list[tuple[float, int, int]] = []  # (time, cluster_index, seq)
        for c_index, stream in enumerate(arrival_streams):
            for seq, t in enumerate(stream):
                events.append((float(t), c_index, seq))
        events.sort()
        events.append((math.inf, -1, -1))  # sentinel: no more arrivals

        # --- runtime state ----------------------------------------------
        task_query: dict[int, _Query] = {}
        in_flight = 0
        next_task_id = 0
        responses: dict[str, list[float]] = {c.cluster_id: [] for c in self._clusters}
        arrivals_out: dict[str, list[float]] = {c.cluster_id: [] for c in self._clusters}
        mu = -(config.service_sigma**2) / 2.0

        now = 0.0
        event_cursor = 0
        horizon = config.duration_s

        while True:
            next_arrival_t = events[event_cursor][0]
            next_completion_t, completing = _next_completion(states, now)
            # min() without the builtin call on every event.
            next_t = next_completion_t if next_completion_t < next_arrival_t else next_arrival_t
            if next_t > horizon:
                # Drain: anything still in flight past the horizon is
                # recorded as dropped (not silently completed early).
                _advance(states, now, horizon, bin_s, last_bin)
                break

            _advance(states, now, next_t, bin_s, last_bin)
            now = next_t

            if next_arrival_t <= next_completion_t:
                # --- arrival: fork one task per ISN ----------------------
                c_index = events[event_cursor][1]
                event_cursor += 1
                fork = forks[c_index]
                query = _Query(self._clusters[c_index].cluster_id, now, len(fork))
                in_flight += 1
                # One lognormal block per query: the same draws, in the
                # same order, as one scalar draw per task.
                draws = rng.lognormal(mu, config.service_sigma, len(fork)).tolist()
                for (k, member, share), draw in zip(fork, draws, strict=True):
                    demand = config.base_demand_core_s * share * draw
                    states[k].admit(demand, next_task_id, member)
                    task_query[next_task_id] = query
                    next_task_id += 1
            else:
                # --- completion: the query joins on its last task --------
                query = task_query.pop(states[completing].complete())
                query.pending -= 1
                if query.pending == 0:
                    in_flight -= 1
                    overhead = config.frontend_overhead_s * (1.0 + 0.25 * rng.random())
                    responses[query.cluster_id].append((now - query.arrival_t) + overhead)
                    arrivals_out[query.cluster_id].append(query.arrival_t)

        utilization = TraceSet(
            UtilizationTrace(np.asarray(row) / bin_s, bin_s, name)
            for row, name in zip(work_rows, self._vm_names, strict=True)
        )
        return QueueingResult(
            responses_by_cluster={
                cid: np.asarray(values) for cid, values in responses.items()
            },
            arrival_times_by_cluster={
                cid: np.asarray(values) for cid, values in arrivals_out.items()
            },
            utilization=utilization,
            completed_queries=sum(len(values) for values in responses.values()),
            dropped_queries=in_flight,
        )
