"""Hierarchical sharded allocation: the 100k-VM tier.

Every other allocation path materializes the full N×N Eqn-1 cost matrix,
which caps the paper's placement far below datacenter scale (~80 GB at
N=100k in float64).  This module exploits the paper's own observation —
most pairwise correlation mass lives *within* clusters of similar VMs —
to place hundreds of thousands of VMs on one box without ever building
a global matrix:

1. **Cluster by correlation signature.**  Each VM is reduced to a small
   feature vector (normalized segment-mean profile, normalized
   :meth:`~repro.analysis.stats.BatchPSquare.marker_state` quantile
   markers, peak-to-mean ratio) and a seeded k-means groups VMs whose
   demand moves together.  O(N·W) — no pairwise work.
2. **Allocate exactly per shard.**  Each shard is one problem of the
   exact allocator's lockstep sweep
   (:meth:`~repro.core.allocation.CorrelationAwareAllocator.allocate_lockstep`
   over shard-local :class:`~repro.core.correlation.CostMatrix` es): all
   shards step their Fig-2 loops together, and each shard's placement is
   bit-for-bit the one the solo Fig-2 procedure gives it.  Per-shard
   matrices are O((N/S)²) — bounded by the shard-size cap.
3. **Rebalance on compressed per-shard signals.**  One pass reduces
   each shard to its size, its folded per-member quantile marker state
   (:func:`~repro.analysis.stats.fold_marker_states`), its aggregate
   peak and its segment envelope peaks, then migrates boundary VMs into
   a neighbouring shard when the cross-shard cost (an Eqn-1 analogue
   over envelopes) beats the VM's intra-shard cost.
4. **Consolidate across shards.**  The stitched per-shard placements
   leave up to one under-filled tail bin per shard; a final pass
   dissolves such bins into the survivors.

This is the repository's second *approximate-but-gated* feature (after
``horizon_mode="p2"``): sharded placements are not bit-identical to the
exact allocator above one shard, so their deviation is bounded by a
committed constant (:data:`ENERGY_DEVIATION_BOUND`), enforced by the
randomized oracle harness in ``tests/test_sharding.py`` and the
``allocate_sharded`` gate in ``benchmarks/bench_scaling.py``.  Two exact
anchors hold regardless of configuration:

* ``num_shards=1`` degenerates to the exact allocator, bit-identically
  (same cost values, same canonical packing order).
* All signature, clustering and rebalance computation happens in
  *canonical* (name-sorted) VM order, so labels and placements are
  invariant — byte-for-byte — under permutations of the input window.

The tier's only knobs are the shard count (:class:`ShardingConfig`);
every other parameter is a module constant below.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import BatchPSquare, fold_marker_states
from repro.core.allocation import (
    AllocationConfig,
    CapacityError,
    CorrelationAwareAllocator,
    _evacuate,
)
from repro.core.correlation import NEUTRAL_COST, CostMatrix
from repro.core.placement import Placement
from repro.core.vf_control import correlation_aware_frequency
from repro.infrastructure.dvfs import FrequencyLadder
from repro.traces.trace import ReferenceSpec, TraceSet

__all__ = [
    "ENERGY_DEVIATION_BOUND",
    "ShardedAllocator",
    "ShardedCostView",
    "ShardingConfig",
    "placement_energy_proxy",
    "shard_population",
]

#: Committed bound on the relative static-energy-proxy deviation of a
#: sharded placement vs the exact allocator on the same instance
#: (measured with :func:`placement_energy_proxy` under the *exact* cost
#: matrix).  Enforced at N≤2000 by ``tests/test_sharding.py`` and the
#: ``allocate_sharded`` bench gate; tightening it is a contract change.
ENERGY_DEVIATION_BOUND = 0.10

#: Time segments in the correlation-signature profile and the rebalance
#: envelopes (clamped to the window length).
_SIGNATURE_SEGMENTS = 8
#: Interior percentile tracked by the per-VM marker states and folded
#: into each shard's demand level.
_SIGNATURE_QUANTILE = 90.0
#: Lloyd iterations of the k-means, and the seed of its initialisation
#: (the only stochastic step).
_CLUSTER_ITERATIONS = 8
_CLUSTER_SEED = 0
#: A VM migrates only when the best cross-shard cost exceeds its
#: intra-shard cost by this relative margin.
_REBALANCE_MARGIN = 0.05
#: Hard cap on any shard's population, as a multiple of the mean
#: ``N / num_shards`` — bounds the worst-case per-shard O(n²) work;
#: oversized clusters are split deterministically.
_MAX_SHARD_FILL = 2.0
#: Cross-shard consolidation stops after this many consecutive bins
#: that cannot be dissolved.
_CONSOLIDATION_PATIENCE = 32


def _positive_int(value, name: str) -> int:
    """NaN-safe positive-integer field validation (mirrors ``ManagerConfig``)."""
    try:
        numeric = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a positive integer, got {value!r}") from None
    if not math.isfinite(numeric) or numeric < 1 or numeric != int(numeric):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(numeric)


@dataclass(frozen=True)
class ShardingConfig:
    """Shard count of the two-level sharded allocation scheme.

    Parameters
    ----------
    num_shards:
        Shard count; ``None`` sizes it as ``ceil(N / target_shard_vms)``.
    target_shard_vms:
        Intended shard population when ``num_shards`` is automatic; the
        per-shard dense matrices are O(``target_shard_vms``²).
    """

    num_shards: int | None = None
    target_shard_vms: int = 256

    def __post_init__(self) -> None:
        if self.num_shards is not None:
            object.__setattr__(self, "num_shards", _positive_int(self.num_shards, "num_shards"))
        object.__setattr__(
            self, "target_shard_vms", _positive_int(self.target_shard_vms, "target_shard_vms")
        )

    def resolve_num_shards(self, population: int) -> int:
        """The effective shard count for ``population`` VMs."""
        if population < 1:
            raise ValueError("population must be positive")
        if self.num_shards is not None:
            return min(self.num_shards, population)
        return min(population, max(1, math.ceil(population / self.target_shard_vms)))


# --------------------------------------------------------------------------
# canonical-order helpers (all private helpers take canon-ordered arrays)


def _canonical_order(names: Sequence[str]) -> np.ndarray:
    """Indices sorting ``names`` lexicographically (the canonical order)."""
    return np.argsort(np.asarray(names, dtype=object), kind="stable")


def _segment_edges(num_samples: int) -> np.ndarray:
    """Strictly increasing segment boundaries over ``num_samples``."""
    count = min(_SIGNATURE_SEGMENTS, int(num_samples))
    return (np.arange(count + 1, dtype=np.intp) * num_samples) // count


def _signature_features(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-VM correlation signatures from a canon-ordered demand matrix.

    Returns ``(features (N, F), marker_heights (N, 5), count)`` — the
    marker states are reused by the rebalance pass so each window is
    scanned once.
    """
    num_vms, num_samples = data.shape
    edges = _segment_edges(num_samples)
    widths = np.diff(edges).astype(float)
    profile = np.add.reduceat(data, edges[:-1], axis=1) / widths
    mean = data.mean(axis=1)
    peak = data.max(axis=1)

    estimator = BatchPSquare(_SIGNATURE_QUANTILE, num_vms)
    estimator.fold_window(np.ascontiguousarray(data.T))
    heights, count = estimator.marker_state()

    mean_scale = np.where(mean > 0.0, mean, 1.0)
    peak_scale = np.where(peak > 0.0, peak, 1.0)
    features = np.concatenate(
        [
            profile / mean_scale[:, None],
            heights / peak_scale[:, None],
            (peak / mean_scale)[:, None],
        ],
        axis=1,
    )
    center = features.mean(axis=0)
    spread = features.std(axis=0)
    features = (features - center) / np.where(spread > 0.0, spread, 1.0)
    return features, heights, count


def _pairwise_sq(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances ``(n_points, n_centers)``."""
    p2 = np.einsum("ij,ij->i", points, points)[:, None]
    c2 = np.einsum("ij,ij->i", centers, centers)[None, :]
    return np.maximum(p2 - 2.0 * (points @ centers.T) + c2, 0.0)


def _cluster(features: np.ndarray, k: int) -> np.ndarray:
    """Seeded Lloyd k-means over signature features (labels, canon order)."""
    num_vms = features.shape[0]
    if k >= num_vms:
        return np.arange(num_vms, dtype=np.intp)
    rng = np.random.default_rng(_CLUSTER_SEED)
    centers = features[np.sort(rng.choice(num_vms, size=k, replace=False))].copy()
    labels = np.zeros(num_vms, dtype=np.intp)
    for _ in range(_CLUSTER_ITERATIONS):
        distances = _pairwise_sq(features, centers)
        labels = distances.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            # Re-seed empty clusters at the points farthest from their
            # centers (deterministic; donors must not empty in turn).
            own = distances[np.arange(num_vms), labels]
            order = np.argsort(-own, kind="stable")
            cursor = 0
            for empty in empties:
                while counts[labels[order[cursor]]] <= 1:
                    cursor += 1
                point = order[cursor]
                counts[labels[point]] -= 1
                labels[point] = empty
                counts[empty] = 1
                cursor += 1
        sums = np.zeros((k, features.shape[1]))
        np.add.at(sums, labels, features)
        counts = np.bincount(labels, minlength=k).astype(float)
        centers = sums / counts[:, None]
    return labels


def _relabel_first_occurrence(labels: np.ndarray) -> np.ndarray:
    """Renumber labels by first occurrence (drops empty label ids)."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first, kind="stable"), kind="stable")
    return rank[inverse].astype(np.intp)


def _shard_size_cap(num_vms: int, num_shards: int) -> int:
    """Hard per-shard population cap (bounds per-shard O(n²) work)."""
    return max(1, math.ceil(_MAX_SHARD_FILL * num_vms / num_shards))


def _split_oversized(labels: np.ndarray, cap: int) -> np.ndarray:
    """Split shards beyond ``cap`` members into canon-order chunks."""
    labels = labels.copy()
    next_label = int(labels.max()) + 1
    for shard in range(next_label):
        members = np.flatnonzero(labels == shard)
        if members.size <= cap:
            continue
        for start in range(cap, members.size, cap):
            labels[members[start : start + cap]] = next_label
            next_label += 1
    return _relabel_first_occurrence(labels)


def _rebalance(
    data: np.ndarray,
    labels: np.ndarray,
    marker_heights: np.ndarray,
    count: int,
    capacity: float,
) -> np.ndarray:
    """Migrate boundary VMs between shards on compressed per-shard evidence.

    Each shard is reduced to its size, its folded per-member quantile
    level, and the peak and segment envelope of its aggregate demand.
    For each VM the pass compares an Eqn-1 analogue over those
    envelopes: ``(peak_v + peak_S) / peak(envelope_v + envelope_S)`` —
    high when the VM's demand profile anti-correlates with the target
    shard's aggregate (exactly the pairs Fig-2 wants co-located).  A VM
    moves to the best foreign shard when that cross cost beats its
    intra-shard cost by ``_REBALANCE_MARGIN``, subject to the population
    cap and a folded-quantile demand guard (a shard whose typical
    per-member demand is already high stops admitting).  Moves apply
    greedily in canonical order against live counts, so the result is
    deterministic and permutation-invariant.
    """
    labels = labels.copy()
    num_vms, num_samples = data.shape
    num_shards = int(labels.max()) + 1
    if num_shards < 2:
        return labels
    edges = _segment_edges(num_samples)
    vm_envelope = np.maximum.reduceat(data, edges[:-1], axis=1)
    vm_peak = data.max(axis=1)
    cap = _shard_size_cap(num_vms, num_shards)

    aggregate = np.zeros((num_shards, num_samples))
    np.add.at(aggregate, labels, data)
    envelopes = np.maximum.reduceat(aggregate, edges[:-1], axis=1)
    peaks = aggregate.max(axis=1)
    sizes = np.bincount(labels, minlength=num_shards)
    quantiles = np.empty(num_shards)
    for shard in range(num_shards):
        members = np.flatnonzero(labels == shard)
        states = np.ascontiguousarray(marker_heights[members][:, None, :])
        counts = np.full(members.size, count, dtype=np.intp)
        quantiles[shard] = fold_marker_states(states, counts, _SIGNATURE_QUANTILE)[0]
    # Folded-quantile demand guard: the compressed cross-shard signal
    # for "this shard is already hot".  Admission stops once the
    # shard's typical member demand would exceed its fair share of
    # the population-wide folded demand, scaled by _MAX_SHARD_FILL.
    mean_load = float((sizes * quantiles).sum()) / num_shards
    admits = (sizes + 1) * quantiles <= max(_MAX_SHARD_FILL * mean_load, capacity)

    own_env = envelopes[labels]
    env_minus = np.maximum(own_env - vm_envelope, 0.0)
    own_joint = (vm_envelope + env_minus).max(axis=1)
    own_peak = env_minus.max(axis=1)
    own_cost = np.where(
        own_joint > 0.0, (vm_peak + own_peak) / np.where(own_joint > 0.0, own_joint, 1.0), NEUTRAL_COST
    )
    # The sole member of a shard never migrates (the move would just
    # rename the shard) — also keeps every shard non-empty.
    own_cost[sizes[labels] <= 1] = np.inf

    best_cost = np.full(num_vms, -np.inf)
    best_shard = np.zeros(num_vms, dtype=np.intp)
    chunk = max(1, 4_000_000 // max(1, num_shards * vm_envelope.shape[1]))
    for start in range(0, num_vms, chunk):
        stop = min(start + chunk, num_vms)
        joint = (vm_envelope[start:stop, None, :] + envelopes[None, :, :]).max(axis=2)
        cross = (vm_peak[start:stop, None] + peaks[None, :]) / np.where(
            joint > 0.0, joint, 1.0
        )
        cross[joint <= 0.0] = NEUTRAL_COST
        cross[np.arange(stop - start), labels[start:stop]] = -np.inf
        cross[:, sizes >= cap] = -np.inf
        cross[:, ~admits] = -np.inf
        best_shard[start:stop] = cross.argmax(axis=1)
        best_cost[start:stop] = cross[np.arange(stop - start), best_shard[start:stop]]

    live = sizes.copy()
    for vm in np.flatnonzero(best_cost > own_cost * (1.0 + _REBALANCE_MARGIN)):
        source, target = labels[vm], best_shard[vm]
        if live[target] >= cap or live[source] <= 1:
            continue
        live[source] -= 1
        live[target] += 1
        labels[vm] = target
    return _relabel_first_occurrence(labels)


def _compute_labels(data: np.ndarray, capacity: float, config: ShardingConfig) -> np.ndarray:
    """Full canon-order sharding: signatures → k-means → rebalance → cap."""
    num_vms = data.shape[0]
    k = config.resolve_num_shards(num_vms)
    if k <= 1:
        return np.zeros(num_vms, dtype=np.intp)
    features, heights, count = _signature_features(data)
    labels = _relabel_first_occurrence(_cluster(features, k))
    labels = _rebalance(data, labels, heights, count, capacity)
    cap = _shard_size_cap(num_vms, int(labels.max()) + 1)
    return _split_oversized(labels, cap)


def shard_population(
    window: TraceSet,
    config: ShardingConfig | None = None,
    n_cores: int = 1,
) -> np.ndarray:
    """Shard labels for ``window`` (aligned to ``window.names`` order).

    The public probe for tests and notebooks: labels are computed in
    canonical (name-sorted) VM order internally, so a permuted window
    yields identically sharded VMs.  ``n_cores`` feeds the rebalance
    demand guard.
    """
    order = _canonical_order(window.names)
    labels = _compute_labels(window.matrix[order], float(n_cores), config or ShardingConfig())
    out = np.empty(len(window.names), dtype=np.intp)
    out[order] = labels
    return out


# --------------------------------------------------------------------------
# the allocator


def _consolidate_bins(
    assignment: dict[str, int],
    refs: Mapping[str, float],
    capacity: float,
) -> dict[str, int]:
    """Dissolve under-filled bins across shards (in place, then renumber).

    Each shard's exact allocator leaves at most one partially-filled
    tail bin; stitched over k shards that is up to k fragmented servers
    the exact allocator would never have opened — the dominant term of
    the sharded tier's energy deviation at small N.  This pass visits
    bins emptiest-first and moves a bin's VMs (descending demand, then
    name) into the best-fit survivors, all-or-nothing: a bin whose
    members cannot *all* be re-placed without overcommit is kept intact.
    ``_CONSOLIDATION_PATIENCE`` consecutive failed dissolutions end the
    pass.

    Deterministic and order-free: bins are keyed by server index,
    members and targets are tie-broken by name / lowest index, so the
    result inherits the plan's permutation invariance.  Returns a
    renumbered (dense ``[0, used_bins)``) copy of ``assignment``.
    """
    bins: dict[int, list[str]] = {}
    for vm in sorted(assignment):
        bins.setdefault(assignment[vm], []).append(vm)
    if len(bins) > 1:
        ids = np.array(sorted(bins), dtype=np.intp)
        position = {int(server): i for i, server in enumerate(ids)}
        remaining = np.array(
            [capacity - sum(refs[vm] for vm in bins[int(server)]) for server in ids]
        )
        victims = sorted(bins, key=lambda server: (-remaining[position[server]], server))
        misses = 0
        for victim in victims:
            if misses >= _CONSOLIDATION_PATIENCE:
                break
            movers = sorted(bins[victim], key=lambda vm: (-refs[vm], vm))
            trial = remaining.copy()
            trial[position[victim]] = -np.inf  # never its own target
            moves: list[tuple[str, int]] = []
            feasible = True
            for vm in movers:
                need = refs[vm]
                fits = trial + 1e-12 >= need
                if not fits.any():
                    feasible = False
                    break
                # Best fit: tightest surviving bin; argmin over the
                # index-ordered array breaks ties at the lowest index.
                slot = int(np.where(fits, trial, np.inf).argmin())
                trial[slot] -= need
                moves.append((vm, slot))
            if feasible and moves:
                remaining[:] = trial
                del bins[victim]
                for vm, slot in moves:
                    target = int(ids[slot])
                    assignment[vm] = target
                    bins[target].append(vm)
                misses = 0
            else:
                misses += 1
    # Renumber densely: dissolving bins leaves holes the placement (and
    # the exact allocator's numbering convention) does not allow.
    renumber = {old: new for new, old in enumerate(sorted(bins))}
    return {vm: renumber[server] for vm, server in assignment.items()}


class ShardedCostView:
    """The latest sharded plan, as pairwise Eqn-1 cost lookups.

    Same-shard pairs read the shard's exact dense matrix; cross-shard
    pairs are computed on demand from the retained window rows — exact
    Eqn-1 values either way, just never materialized as an N×N array.
    Quacks like :class:`~repro.core.correlation.CostMatrix` where the
    frequency and evacuation layers need it (``names`` + ``cost``).
    """

    __slots__ = ("names", "index", "labels", "data", "matrices", "singles", "_spec", "_local")

    def __init__(
        self,
        names: tuple[str, ...],
        labels: np.ndarray,
        data: np.ndarray,
        matrices: tuple[CostMatrix, ...],
        singles: np.ndarray,
        spec: ReferenceSpec,
    ) -> None:
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self.labels = labels
        self.data = data
        self.matrices = matrices
        self.singles = singles
        self._spec = spec
        # Each VM's row in its shard's matrix: shard matrices list their
        # members in canonical order, so it is the VM's rank in its shard.
        order = np.argsort(labels, kind="stable")
        first = np.searchsorted(labels[order], labels[order])
        self._local = np.empty(len(names), dtype=np.intp)
        self._local[order] = np.arange(len(names)) - first

    @property
    def num_shards(self) -> int:
        return len(self.matrices)

    def cost(self, a: str, b: str) -> float:
        if a == b:
            return NEUTRAL_COST
        ia, ib = self.index[a], self.index[b]
        shard_a, shard_b = self.labels[ia], self.labels[ib]
        if shard_a == shard_b:
            return self.matrices[shard_a].cost(a, b)
        return float(self._cross_costs(np.array([ia]), np.array([ib]))[0])

    def block(self, members: Sequence[str]) -> np.ndarray:
        """:meth:`cost` among ``members`` as an ``n x n`` array, in order.

        Same-shard pairs come from one gather per shard present, the
        cross-shard pairs (bins that consolidation or evacuation mixed)
        from one batched Eqn-1 evaluation; the values are :meth:`cost`'s.
        """
        index = np.array([self.index[vm] for vm in members], dtype=np.intp)
        shards = self.labels[index]
        local = self._local[index]
        if (shards == shards[0]).all():
            return self.matrices[shards[0]].as_array()[np.ix_(local, local)]
        out = np.empty((index.size, index.size))
        for shard in np.unique(shards):
            at = np.flatnonzero(shards == shard)
            out[np.ix_(at, at)] = self.matrices[shard].as_array()[np.ix_(local[at], local[at])]
        i, j = np.nonzero(shards[:, None] != shards[None, :])
        out[i, j] = self._cross_costs(index[i], index[j])
        return out

    def _cross_costs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Eqn-1 costs of the pairs ``(a[i], b[i])`` of window rows."""
        if self._spec.is_peak:
            joint = (self.data[a] + self.data[b]).max(axis=1)
        else:
            joint = np.array([self._spec.of(self.data[x] + self.data[y]) for x, y in zip(a, b)])
        positive = joint > 0.0
        return np.where(
            positive,
            (self.singles[a] + self.singles[b]) / np.where(positive, joint, 1.0),
            NEUTRAL_COST,
        )


class ShardedAllocator:
    """Two-level sharded allocation, API-compatible with the exact path.

    Mirrors :class:`~repro.core.allocation.CorrelationAwareAllocator`'s
    lifecycle (``allocate`` / ``evacuate`` / ``reset_cache`` /
    ``snapshot`` / ``restore``) so the approach, manager, audit and
    checkpoint layers drive either interchangeably.  Differences:

    * :meth:`allocate` takes the monitoring *window* (it must shard and
      cluster the raw traces), not a prebuilt cost matrix.
    * All shards of one :meth:`allocate` are solved together by lockstep
      sweeps over freshly built per-shard matrices.  Nothing of a sweep
      outlives the call: the only cross-period state is the latest plan
      (:meth:`cost_view`), so membership deltas and evacuations have no
      per-shard cache to invalidate.
    """

    def __init__(
        self,
        allocation: AllocationConfig | None = None,
        sharding: ShardingConfig | None = None,
        reference: ReferenceSpec | None = None,
    ) -> None:
        self._allocation = allocation or AllocationConfig()
        self._sharding = sharding or ShardingConfig()
        self._spec = reference or ReferenceSpec()
        self._plan: ShardedCostView | None = None

    @property
    def config(self) -> AllocationConfig:
        return self._allocation

    @property
    def sharding(self) -> ShardingConfig:
        return self._sharding

    @property
    def last_num_shards(self) -> int:
        """Shard count of the latest :meth:`allocate` (0 before any)."""
        return 0 if self._plan is None else self._plan.num_shards

    def cost_view(self) -> ShardedCostView:
        """Pairwise cost lookups over the latest :meth:`allocate`."""
        if self._plan is None:
            raise RuntimeError("cost_view() requires a prior allocate()")
        return self._plan

    def reset_cache(self) -> None:
        """Drop the current plan (fresh deployment)."""
        self._plan = None

    def apply_membership(
        self, added: Sequence[str] = (), removed: Sequence[str] = ()
    ) -> None:
        """Membership deltas need no action: every :meth:`allocate`
        re-plans from its window, and no per-shard state outlives it."""

    def allocate(
        self,
        window: TraceSet,
        references: Mapping[str, float],
        n_cores: int,
        max_servers: int | None = None,
    ) -> Placement:
        """Place ``window``'s VMs via cluster → lockstep per-shard exact → stitch.

        Per-shard server indices are offset by the bins the preceding
        shards opened, so the stitched placement is dense over
        ``[0, total_bins)``.  ``max_servers`` bounds the *total* — a
        sharded plan that opens more raises :class:`CapacityError`,
        exactly like the exact allocator.
        """
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        if max_servers is not None and max_servers < 1:
            raise ValueError("max_servers must be positive when given")
        names = window.names
        missing = [vm for vm in names if vm not in references]
        if missing:
            raise ValueError(f"references missing for: {missing}")

        order = _canonical_order(names)
        canon_names = tuple(names[i] for i in order)
        data = window.matrix[order]
        data.flags.writeable = False
        capacity = float(n_cores)
        labels = _compute_labels(data, capacity, self._sharding)
        num_shards = int(labels.max()) + 1

        matrices: list[CostMatrix] = []
        for shard in range(num_shards):
            members = np.flatnonzero(labels == shard)
            member_names = tuple(canon_names[i] for i in members)
            rows = data[members]
            rows.flags.writeable = False
            subset = TraceSet.from_matrix(rows, member_names, window.period_s)
            matrices.append(CostMatrix.from_traces(subset, self._spec))
        shard_placements = CorrelationAwareAllocator(self._allocation).allocate_lockstep(
            [(matrix.names, matrix.as_array(), matrix.name_index) for matrix in matrices],
            references,
            n_cores,
        )
        assignment: dict[str, int] = {}
        total_bins = 0
        for local in shard_placements:
            for vm, server in local.assignment.items():
                assignment[vm] = server + total_bins
            total_bins += local.num_servers

        if num_shards > 1:
            # Cross-shard consolidation: dissolve the per-shard tail
            # bins the stitching fragmented.  Skipped on single-shard
            # plans, which must stay bit-identical to the exact path.
            clamped = {vm: min(max(float(references[vm]), 0.0), capacity) for vm in canon_names}
            assignment = _consolidate_bins(assignment, clamped, capacity)
            total_bins = 1 + max(assignment.values())

        if max_servers is not None and total_bins > max_servers:
            raise CapacityError(
                f"sharded allocation opened {total_bins} servers, "
                f"only {max_servers} available"
            )
        num_servers = max_servers if max_servers is not None else total_bins
        if self._spec.is_peak:
            singles = data.max(axis=1)
        else:
            singles = np.array([self._spec.of(row) for row in data])
        self._plan = ShardedCostView(
            canon_names, labels, data, tuple(matrices), singles, self._spec
        )
        # Re-emit in original window order (cosmetic: Placement semantics
        # are order-free, but the engine's diffs read better this way).
        ordered = {vm: assignment[vm] for vm in names}
        return Placement(ordered, num_servers=num_servers)

    def evacuate(
        self,
        placement: Placement,
        failed_servers: Sequence[int],
        references: Mapping[str, float],
        n_cores: int,
        num_servers: int | None = None,
    ) -> Placement:
        """Re-place the failed servers' VMs against the sharded plan.

        Runs the exact tier's evacuation rule
        (:func:`~repro.core.allocation._evacuate`, transcribed by the
        scalar oracle in ``tests/test_faults.py``) with pair costs from
        :class:`ShardedCostView`, so cross-shard evacuees are priced
        exactly.
        """
        if self._plan is None:
            raise RuntimeError("evacuate() requires a prior allocate()")
        cost = self._plan.cost

        def pair_costs(vm: str, others: Sequence[str]) -> np.ndarray:
            return np.array([cost(vm, other) for other in others], dtype=float)

        return _evacuate(
            placement,
            failed_servers,
            references,
            n_cores,
            num_servers,
            self._allocation.cost_resolution,
            pair_costs,
        )

    def snapshot(self) -> dict:
        """Serializable copy of all cross-period state (for checkpoints).

        Plain arrays and primitives only — per-shard cost matrices are
        stored as their (names, references, matrix) parts and rebuilt by
        :meth:`restore` through :class:`CostMatrix`'s plain constructor,
        so a snapshot → pickle → restore → snapshot round trip is
        byte-identical.
        """
        plan = self._plan
        if plan is None:
            plan_state = None
        else:
            plan_state = {
                "names": plan.names,
                "labels": plan.labels.copy(),
                "data": plan.data.copy(),
                "singles": plan.singles.copy(),
                "matrices": [
                    {
                        "names": matrix.names,
                        "references": np.array(
                            [matrix.reference(vm) for vm in matrix.names]
                        ),
                        "matrix": matrix.as_array().copy(),
                    }
                    for matrix in plan.matrices
                ],
            }
        return {"plan": plan_state}

    def restore(self, state: dict) -> None:
        """Reinstall a :meth:`snapshot` taken from an identical config."""
        plan_state = state["plan"]
        if plan_state is None:
            self._plan = None
            return
        # ascontiguousarray with an explicit dtype: unpickled arrays carry
        # non-singleton dtype objects, which would make the re-snapshot
        # pickle to different bytes than a live allocator's.
        data = np.ascontiguousarray(plan_state["data"], dtype=float)
        data.flags.writeable = False
        matrices = []
        for part in plan_state["matrices"]:
            array = np.ascontiguousarray(part["matrix"], dtype=float)
            array.flags.writeable = False
            matrices.append(
                CostMatrix(
                    tuple(part["names"]),
                    np.ascontiguousarray(part["references"], dtype=float),
                    array,
                    self._spec,
                )
            )
        self._plan = ShardedCostView(
            tuple(plan_state["names"]),
            np.ascontiguousarray(plan_state["labels"], dtype=np.intp),
            data,
            tuple(matrices),
            np.ascontiguousarray(plan_state["singles"], dtype=float),
            self._spec,
        )


def placement_energy_proxy(
    placement: Placement,
    references: Mapping[str, float],
    cost_fn,
    freq_levels_ghz: tuple[float, ...],
    n_cores: int,
) -> float:
    """Total provisioned Eqn-4 static frequency across active servers.

    A monotone proxy for the fleet's static energy on the homogeneous
    hardware model (power grows with frequency; inactive servers draw
    nothing).  The sharded-vs-exact deviation gate evaluates *both*
    placements under the **exact** cost matrix, so the metric never
    flatters the approximation it measures.
    """
    ladder = FrequencyLadder(freq_levels_ghz)
    total = 0.0
    for _server, member_set in sorted(placement.by_server().items()):
        setting = correlation_aware_frequency(
            sorted(member_set), references, cost_fn, ladder, n_cores
        )
        total += setting.freq_ghz
    return total
