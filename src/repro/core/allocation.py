"""The Fig-2 correlation-aware VM allocation heuristic.

The algorithm is First-Fit-Decreasing shaped, split into the paper's two
phases:

UPDATE (done by the caller / :class:`~repro.core.manager.PowerManager`):
predict per-VM reference utilizations, sort VMs by predicted reference
descending (line 6, "to reduce the fragmentation of the bin-packing
problem"), refresh the cost matrix (line 7), and estimate the number of
active servers as ``ceil(sum(u_hat) / Ncore)`` (Eqn 3, line 8).

ALLOCATE (this module): repeatedly select the server with the largest
remaining capacity ``Rem_i`` (line 10) and give it the unallocated VM
that maximises the prospective Eqn-2 server cost, subject to (1) the
prospective cost exceeding the threshold ``TH_cost`` and (2) the VM's
reference fitting in ``Rem_i`` (line 11).  When a full sweep over the
servers places nothing while VMs remain, the threshold is degenerated by
the factor ``alpha`` (line 17) and the servers re-sorted by remaining
capacity (line 18).

Line 11 is evaluated over a dense symmetric cost array (``cost_array``
+ ``name_index``) gathered into *slot* order (descending reference,
then name).  Each server bin ``B`` keeps two join-order row sums over
the slot space, ``A[s] = sum_j C(s, j) r_j`` and ``S[s] = sum_j C(s, j)``
over its members ``j``, next to ``R = sum_j r_j`` and the weighted
pairwise sum ``T = sum_j r_j sum_{k != j} C(j, k)``.  The prospective
Eqn-2 cost of every candidate ``c`` is then one element-wise pass,
``Cost(B + c) = (T + (A[c] + r_c S[c])) / ((R + r_c) |B|)``, and a join of
slot ``p`` adds ``A[p] + r_p S[p]`` to ``T`` before adding row ``C[p]``
(scaled by ``r_p``) to ``A`` and ``C[p]`` to ``S``.  Both formulas live in
one helper pair (:func:`_join_sums`, :func:`_prospective_costs`).  Every
sum grows one member at a time in join order through element-wise IEEE
operations — no gather of member blocks, no BLAS reduction whose
rounding depends on what it is batched with — so a bin's costs are the
same bits whether it is swept alone or stacked with other problems'
bins.  The dense matrix must be symmetric (both cost matrices are).  The
scalar Fig-2 transcription (Eqn 2 through ``prospective_server_cost``,
one ``alpha`` level per unproductive sweep) lives in the test suite as
the oracle these placements are pinned against.

Two loops run the sweep on those sums:

* **Solo** (:meth:`CorrelationAwareAllocator.allocate`).  A bin's
  prospective candidate costs depend only on its membership, so each bin
  caches its fitting-candidate cost vector and invalidates it only when a
  VM lands *in that bin*.  Unproductive sweeps then never recompute
  Eqn 2: when a full sweep places nothing while fitting candidates
  remain, the sweep loop reads the cached per-bin best admissible cost,
  takes one masked reduction to find the highest prospective cost ``m``
  across all bins, and degenerates the threshold through however many
  ``alpha`` levels are needed until ``m`` admits — in one step instead
  of one full re-scan per TH level.  The threshold trajectory (repeated
  ``threshold *= alpha``) and the sweep accounting against
  ``max_sweeps`` are replicated exactly, so placements are identical to
  the level-by-level loop.
* **Lockstep** (:meth:`CorrelationAwareAllocator.allocate_lockstep`).
  Many independent problems (the sharded tier's shards) step their
  Fig-2 loops together over padded, stacked per-bin arrays: each step
  every unfinished problem makes the placement or the threshold/bin
  move its solo loop would make next.  Per-bin best costs are kept
  current as candidates leave, so a step's bin choice is one masked
  ``argmax`` over the stack.  Each problem's placement is the one the
  solo loop gives it alone.

The solo loop also keeps a **cross-period reuse of unchanged rows**:
:meth:`~CorrelationAwareAllocator.allocate` permutes ``cost_array`` into
slot order, an O(N²) gather per call.  The allocator instance caches
that permuted matrix together with a snapshot of the input; when the
next period's call carries the same VM order (e.g. a streaming
peak-mode matrix where most running maxima did not move), only the rows
that actually changed are re-gathered.  The cache is self-validating
(exact value comparison against the snapshot), so reuse can never change
a placement.

Evacuation (re-placing a failed server's VMs without a rebuild) keeps the
same incremental ``R_S``/``T_S`` bin state.  Its rule has one body,
:func:`_evacuate`, parameterised only by a pair-cost row lookup, so the
exact tier (rows of ``cost_array``) and the sharded tier (its cost view)
run the same code.

Interpretation notes (the paper gives the mechanism, not every corner):

* The target server is re-selected (largest ``Rem_i`` first) after
  *every* placement, not after a server fills up.  This balanced fill
  matters: stuffing one server to capacity before moving on spends all
  the well-de-correlated candidates early and piles the correlated
  leftovers onto the last servers, which defeats the whole scheme.  With
  re-selection the big VMs spread out first and every server then
  attracts its least-correlated partners.
* The first VM placed on an *empty* server is exempt from the threshold
  test — a singleton server has cost 1.0 by definition and no threshold
  above 1 would ever admit it.  The threshold gates *added* correlation.
* ``TH_cost`` decays geometrically, and every pairwise cost is strictly
  positive, so the correlation constraint always becomes vacuous after
  finitely many sweeps; if VMs still cannot be placed the blocker is
  capacity fragmentation, and the allocator opens servers beyond the
  Eqn-3 estimate (bounded by the fleet size when one is given).  The
  paper implicitly allows this — a placement failure would be an infinite
  QoS violation.
* Ties in the prospective cost break towards the larger reference (better
  bin-packing), then lexicographically (determinism).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from repro.core.placement import Placement

__all__ = ["AllocationConfig", "CorrelationAwareAllocator", "CapacityError"]

_FIT_EPS = 1e-12


class CapacityError(RuntimeError):
    """Raised when VMs cannot fit in the available fleet at any threshold."""


@dataclass(frozen=True)
class AllocationConfig:
    """Tunables of the ALLOCATE phase.

    ``th_cost`` and ``alpha`` are the paper's (unspecified) constants; the
    defaults are the values used throughout our experiments and swept by
    the ablation benches.

    Parameters
    ----------
    th_cost:
        Initial correlation threshold.  A candidate may join a non-empty
        server only if the resulting Eqn-2 cost exceeds the current
        threshold; 1.10 demands at least 10% multiplexing headroom before
        co-locating.
    alpha:
        Geometric decay applied to the threshold after every unproductive
        sweep, in (0, 1).
    cost_resolution:
        Candidate costs are compared at this granularity; among
        candidates whose prospective costs are indistinguishable at it,
        the larger VM wins.  This keeps the descending-size discipline
        that line 6 introduces "to reduce the fragmentation of the
        bin-packing problem" active *inside* the cost-driven selection —
        with an exact comparison the selection order is effectively
        random in size, and the balanced fill then strands large VMs.
        0 disables the bucketing (exact cost comparison).
    max_sweeps:
        Hard iteration bound; hitting it raises :class:`CapacityError`
        instead of looping (it cannot trigger for sane inputs and exists
        as an algorithmic safety net).
    """

    th_cost: float = 1.10
    alpha: float = 0.9
    cost_resolution: float = 0.05
    max_sweeps: int = 10_000

    def __post_init__(self) -> None:
        if self.th_cost <= 0:
            raise ValueError("th_cost must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.cost_resolution < 0:
            raise ValueError("cost_resolution must be non-negative")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be positive")


class _Bin:
    """Mutable server-side bookkeeping during one allocation run.

    ``members`` holds candidate slots (allocation) or VM names
    (:func:`_evacuate`).  ``ref_sum`` and ``pair_weight`` are the
    incremental Eqn-2 state: the committed reference sum ``R`` and the
    weighted pairwise sum ``T = sum_j r_j * sum_{k != j} C(j, k)``.  The
    solo sweep adds the join-order row sums ``row_ref`` (``A``) and
    ``row_one`` (``S``) over the slot space (``None`` until the first
    join), and ``cost_cache``, its (fitting slots, costs) pair for the
    current membership; the cache is invalidated whenever a VM is placed
    *into this bin* (placements elsewhere only shrink the free mask,
    which is applied on read).
    """

    __slots__ = (
        "index", "members", "remaining", "ref_sum", "pair_weight",
        "row_ref", "row_one", "cost_cache",
    )

    def __init__(self, index: int, capacity: float) -> None:
        self.index = index
        self.members: list = []
        self.remaining = capacity
        self.ref_sum = 0.0
        self.pair_weight = 0.0
        self.row_ref: np.ndarray | None = None
        self.row_one: np.ndarray | None = None
        self.cost_cache: tuple[np.ndarray, np.ndarray] | None = None


def _join_sums(pair_weight, ref_at, one_at, r_new, cost_row, row_ref, row_one):
    """A bin's Eqn-2 sums after slot ``p`` joins it, in join order.

    ``ref_at``/``one_at`` are the bin's ``A[p]``/``S[p]`` before the
    join, ``r_new`` is ``r_p`` and ``cost_row`` is ``C[p]`` in slot
    order.  Returns ``(T + (A[p] + r_p S[p]), A + C[p] r_p, S + C[p])``.
    Works on one bin (scalar ``r_new``, 1-D rows) or a stack of bins
    (1-D ``r_new``, 2-D rows); either way every value is the same
    element-wise IEEE operations.
    """
    return (
        pair_weight + (ref_at + r_new * one_at),
        row_ref + cost_row * np.expand_dims(r_new, -1),
        row_one + cost_row,
    )


def _prospective_costs(pair_weight, row_ref, row_one, ref_sum, r, count):
    """Eqn-2 cost of each candidate joining a non-empty bin.

    ``(T + (A + r S)) / ((R + r) m)`` element-wise over the candidates'
    row sums and references; 1.0 where ``R + r`` is zero.  The bin terms
    broadcast, so one call prices one bin's candidates or a stack of
    bins' rows.
    """
    totals = ref_sum + r
    weights = pair_weight + (row_ref + r * row_one)
    return np.divide(
        weights, totals * count, out=np.ones_like(weights), where=totals > 0.0
    )


class _IndexedCandidates:
    """Line-11 candidate selection over a dense symmetric cost array.

    Candidates live in *slot* space — positions in the canonical
    (descending reference, then name) order — with the cost matrix
    re-indexed to match, an aligned reference vector, and a free-slot
    mask.  Each bin's fitting-candidate cost vector (prospective Eqn-2
    costs from the bin's join-order sums) is computed once per bin
    membership and memoized on the bin, so a :meth:`pick` is one masked
    reduction and repeated sweeps at degenerating thresholds never
    recompute Eqn 2.
    """

    def __init__(self, r: np.ndarray, permuted_costs: np.ndarray, resolution: float) -> None:
        self._r = r
        self._costs = permuted_costs
        self._free = np.ones(r.size, dtype=bool)
        self._free_count = r.size
        self._resolution = resolution

    @property
    def remaining(self) -> int:
        return self._free_count

    def any_fits(self, free_capacity: float) -> bool:
        return bool((self._r[self._free] <= free_capacity + _FIT_EPS).any())

    def _bin_costs(self, bin_: _Bin) -> tuple[np.ndarray, np.ndarray]:
        """Fitting candidate slots and their prospective costs (memoized).

        Computed over the slots that are free *and* fit at compute time.
        A bin's ``remaining`` only changes with its membership (which
        invalidates the cache) and the free mask only ever shrinks, so a
        cached pair stays a valid superset of the live fitting set —
        readers re-apply the free mask, which is O(|cached|), instead of
        re-running the Eqn-2 evaluation.
        """
        cache = bin_.cost_cache
        if cache is None:
            fitting = np.flatnonzero(
                self._free & (self._r <= bin_.remaining + _FIT_EPS)
            )
            costs = _prospective_costs(
                bin_.pair_weight,
                bin_.row_ref[fitting],
                bin_.row_one[fitting],
                bin_.ref_sum,
                self._r[fitting],
                len(bin_.members),
            )
            cache = (fitting, costs)
            bin_.cost_cache = cache
        fitting, costs = cache
        live = self._free[fitting]
        if not live.all():
            fitting = fitting[live]
            costs = costs[live]
        return fitting, costs

    def pick(self, bin_: _Bin, threshold: float) -> int | None:
        if not bin_.members:
            fitting = np.flatnonzero(
                self._free & (self._r <= bin_.remaining + _FIT_EPS)
            )
            if fitting.size == 0:
                return None
            # Canonical order is descending reference: the FFD move.
            return int(fitting[0])
        fitting, costs = self._bin_costs(bin_)
        if fitting.size == 0:
            return None
        admissible = costs > threshold
        if not admissible.any():
            return None
        candidates = fitting[admissible]
        # argmax returns the *first* maximum; slots are in canonical
        # (descending reference, then name) order, so bucket ties break
        # by the (-cost, -reference, name) key.
        return int(candidates[np.argmax(_bucketed(costs[admissible], self._resolution))])

    def best_cost(self, bin_: _Bin) -> float | None:
        """Highest prospective cost among free fitting candidates.

        ``None`` when nothing fits; ``inf`` for an empty bin.  One cached
        masked max — this is what lets the sweep loop jump the threshold
        across TH levels without re-scanning every bin per level.
        """
        if not bin_.members:
            if self.any_fits(bin_.remaining):
                return math.inf
            return None
        fitting, costs = self._bin_costs(bin_)
        if fitting.size == 0:
            return None
        return float(costs.max())

    def place(self, bin_: _Bin, slot: int) -> None:
        if bin_.row_ref is None:
            bin_.row_ref = np.zeros(self._r.size)
            bin_.row_one = np.zeros(self._r.size)
        r_new = self._r[slot]
        bin_.pair_weight, bin_.row_ref, bin_.row_one = _join_sums(
            bin_.pair_weight,
            bin_.row_ref[slot],
            bin_.row_one[slot],
            r_new,
            self._costs[slot],
            bin_.row_ref,
            bin_.row_one,
        )
        bin_.members.append(slot)
        bin_.remaining -= r_new
        bin_.ref_sum += r_new
        bin_.cost_cache = None
        self._free[slot] = False
        self._free_count -= 1


def _bucketed(costs: np.ndarray, resolution: float) -> np.ndarray:
    """Costs rounded to the ``cost_resolution`` grid (unchanged at 0)."""
    return np.round(costs / resolution) * resolution if resolution > 0 else costs


class _ReindexCache:
    """Cross-period cache of the slot-permuted cost matrix.

    ``input_copy`` snapshots the caller's dense matrix; ``permuted`` is
    its gather into canonical slot order.  When the next period arrives
    with the same slot order, only rows whose input values actually
    changed are re-gathered.

    The fingerprint that authorises reuse is the full value comparison
    against ``input_copy`` — a *different* trace population of the same
    shape (same names, same order) therefore re-gathers every row whose
    costs differ and can never serve another population's entries.
    ``permuted`` is kept read-only outside the re-gather so that no
    caller holding the returned array can corrupt the cache in place
    (a mutation would otherwise go undetected forever, because the
    staleness check compares inputs, not outputs).
    """

    __slots__ = ("key", "rows", "input_copy", "permuted")

    def __init__(
        self, key: tuple, rows: np.ndarray, input_copy: np.ndarray, permuted: np.ndarray
    ) -> None:
        self.key = key
        self.rows = rows
        self.input_copy = input_copy
        self.permuted = permuted


class CorrelationAwareAllocator:
    """The proposed placement heuristic (Fig 2, ALLOCATE phase)."""

    def __init__(self, config: AllocationConfig | None = None) -> None:
        self._config = config or AllocationConfig()
        self._reindex_cache: _ReindexCache | None = None

    @property
    def config(self) -> AllocationConfig:
        """The active tunables."""
        return self._config

    def reset_cache(self) -> None:
        """Drop the cross-period reindex cache (fresh deployment)."""
        self._reindex_cache = None

    def apply_membership(
        self, added: Sequence[str] = (), removed: Sequence[str] = ()
    ) -> None:
        """Adjust the reindex cache to a membership delta.

        The cache is keyed by the *full* canonical order, so its
        invalidation granularity is all-or-nothing: a departure makes
        the cached permutation pin a dead VM's rows, so the cache is
        dropped; an arrival merely means the next :meth:`allocate` sees
        a longer order, misses the key and rebuilds cold — the cache is
        left in place in case the arrival is retired again before the
        next allocation.  A churn period therefore pays one cold O(N²)
        re-gather; static periods keep the warm row-diff path.
        """
        cache = self._reindex_cache
        if cache is None:
            return
        removed_set = set(removed)
        if removed_set and not removed_set.isdisjoint(cache.key[0]):
            self._reindex_cache = None

    def snapshot(self) -> dict:
        """Serializable copy of the cross-period reindex cache.

        Capturing the cache keeps a resumed replay byte-identical *and*
        equally fast: the warm-path row reuse survives the restore.
        """
        cache = self._reindex_cache
        if cache is None:
            return {"reindex_cache": None}
        return {
            "reindex_cache": {
                "key": cache.key,
                "rows": cache.rows.copy(),
                "input_copy": cache.input_copy.copy(),
                "permuted": cache.permuted.copy(),
            }
        }

    def restore(self, state: dict) -> None:
        """Reinstall a :meth:`snapshot` (re-applies the read-only guard).

        ``ascontiguousarray`` with explicit dtypes rather than
        ``np.array``: unpickled arrays carry non-singleton dtype objects
        that a plain copy would inherit, and a later re-snapshot of this
        allocator alongside other components would then pickle to
        different bytes than a never-restored twin's.
        """
        payload = state["reindex_cache"]
        if payload is None:
            self._reindex_cache = None
            return
        permuted = np.ascontiguousarray(payload["permuted"], dtype=float)
        permuted.flags.writeable = False
        self._reindex_cache = _ReindexCache(
            payload["key"],
            np.ascontiguousarray(payload["rows"], dtype=np.intp),
            np.ascontiguousarray(payload["input_copy"], dtype=float),
            permuted,
        )

    def _permuted_costs(
        self,
        order: Sequence[str],
        cost_array: np.ndarray,
        name_index: Mapping[str, int],
    ) -> np.ndarray:
        """``cost_array`` gathered into canonical slot order, with reuse.

        Successive periods usually re-allocate the same population in a
        similar order over a matrix where many rows did not move (e.g. a
        streaming peak-mode matrix between new joint peaks).  The gather
        is O(N²) random access; the value comparison that detects
        unchanged rows is O(N²) sequential reads, after which only the
        changed rows and columns are re-gathered.
        """
        cost_array, rows = _dense_rows(order, cost_array, name_index)
        key = (tuple(order), cost_array.shape)
        cache = self._reindex_cache
        if (
            cache is not None
            and cache.key == key
            and np.array_equal(cache.rows, rows)
        ):
            changed = np.flatnonzero((cost_array != cache.input_copy).any(axis=1))
            if changed.size:
                cache.input_copy[changed] = cost_array[changed]
                # A changed element in input row ``a`` can only surface in
                # permuted rows whose slot maps to ``a`` (cell [i, j] reads
                # input row rows[i]), so re-gathering those rows covers
                # every stale cell — no column pass needed.
                changed_slots = np.flatnonzero(np.isin(rows, changed))
                cache.permuted.flags.writeable = True
                cache.permuted[changed_slots, :] = cost_array[
                    np.ix_(rows[changed_slots], rows)
                ]
                cache.permuted.flags.writeable = False
            return cache.permuted
        permuted = _slot_costs(cost_array, rows)
        permuted.flags.writeable = False
        self._reindex_cache = _ReindexCache(key, rows, cost_array.copy(), permuted)
        return permuted

    def allocate(
        self,
        vm_ids: Sequence[str],
        references: Mapping[str, float],
        n_cores: int,
        max_servers: int | None = None,
        *,
        cost_array: np.ndarray,
        name_index: Mapping[str, int],
    ) -> Placement:
        """Place ``vm_ids`` onto the minimum number of ``n_cores`` servers.

        Parameters
        ----------
        vm_ids:
            VMs to place.
        references:
            Predicted reference utilization per VM (cores-at-fmax); each
            value is clamped into ``[0, n_cores]`` — a VM predicted beyond
            a whole server can at best receive a full server.
        n_cores:
            Per-server capacity ``Ncore``.
        max_servers:
            Optional fleet-size bound; exceeding it raises
            :class:`CapacityError`.
        cost_array:
            Dense symmetric pairwise Eqn-1 cost matrix (e.g.
            ``CostMatrix.as_array()``).
        name_index:
            ``{vm name: cost_array row}`` map, e.g.
            ``CostMatrix.name_index``.

        Returns
        -------
        Placement
            Every input VM placed exactly once; per-server committed
            reference never exceeds ``n_cores``.
        """
        capacity = _capacity(n_cores)
        order, refs, estimate = _canonical_problem(vm_ids, references, capacity)
        if max_servers is not None:
            if max_servers < 1:
                raise ValueError("max_servers must be positive")
            if estimate > max_servers:
                raise CapacityError(
                    f"Eqn-3 estimate needs {estimate} servers, fleet has {max_servers}"
                )

        permuted = self._permuted_costs(order, cost_array, name_index)
        r = np.array([refs[vm] for vm in order], dtype=float)
        candidates = _IndexedCandidates(r, permuted, self._config.cost_resolution)
        bins = self._run_sweeps(candidates, capacity, estimate, max_servers)
        self._consolidate_extras(bins, r, estimate)
        return _placement(order, bins, refs, capacity, max_servers)

    def allocate_lockstep(
        self,
        problems: Sequence[tuple[Sequence[str], np.ndarray, Mapping[str, int]]],
        references: Mapping[str, float],
        n_cores: int,
    ) -> list[Placement]:
        """Place several independent VM sets by lockstep sweeps.

        Each ``(vm_ids, cost_array, name_index)`` problem gets exactly
        the placement :meth:`allocate` gives it alone without a fleet
        bound (same bins, same server numbering from 0), including the
        :class:`CapacityError` a problem that exceeds ``max_sweeps``
        raises.  The problems' Fig-2 loops step together over stacked
        arrays (see the module docstring), in batches of similar size
        whose stack stays under ``_LOCKSTEP_CELLS``; that is what makes
        many small sweeps cheap.  The reindex cache is neither read nor
        written.
        """
        capacity = _capacity(n_cores)
        if not problems:
            return []
        canon = []
        refs_slot = []
        blocks = []
        for vm_ids, cost_array, name_index in problems:
            order, refs, estimate = _canonical_problem(vm_ids, references, capacity)
            cost_array, rows = _dense_rows(order, cost_array, name_index)
            canon.append((order, refs, estimate))
            refs_slot.append(np.array([refs[vm] for vm in order], dtype=float))
            blocks.append((cost_array, rows))
        estimates = [estimate for _order, _refs, estimate in canon]
        placed: dict[int, Placement] = {}
        for group in _lockstep_groups([r.size for r in refs_slot], estimates):
            swept = _lockstep_sweeps(
                [refs_slot[k] for k in group],
                [blocks[k] for k in group],
                [estimates[k] for k in group],
                capacity,
                self._config,
            )
            for k, bins in zip(group, swept, strict=True):
                order, refs, estimate = canon[k]
                self._consolidate_extras(bins, refs_slot[k], estimate)
                placed[k] = _placement(order, bins, refs, capacity, None)
        return [placed[k] for k in range(len(problems))]

    def evacuate(
        self,
        placement: Placement,
        failed_servers: Sequence[int],
        references: Mapping[str, float],
        n_cores: int,
        num_servers: int | None = None,
        *,
        cost_array: np.ndarray,
        name_index: Mapping[str, int],
    ) -> Placement:
        """Re-place the failed servers' VMs without a full rebuild.

        Runs :func:`_evacuate` with pair costs read as rows of
        ``cost_array``; see there for the rule.  Returns the amended
        placement (original VM order preserved); the caller diffs it
        against the input to charge migrations.
        """
        cost_array, rows = _dense_rows(placement.vm_ids, cost_array, name_index)
        row_of = dict(zip(placement.vm_ids, rows.tolist(), strict=True))

        def pair_costs(vm: str, others: Sequence[str]) -> np.ndarray:
            return cost_array[row_of[vm], [row_of[other] for other in others]]

        return _evacuate(
            placement,
            failed_servers,
            references,
            n_cores,
            num_servers,
            self._config.cost_resolution,
            pair_costs,
        )

    def _run_sweeps(
        self,
        candidates: _IndexedCandidates,
        capacity: float,
        estimate: int,
        max_servers: int | None,
    ) -> list[_Bin]:
        """The Fig-2 sweep loop (lines 9-18)."""
        bins = [_Bin(i, capacity) for i in range(estimate)]
        threshold = self._config.th_cost
        max_sweeps = self._config.max_sweeps
        sweeps = 0
        # Dense mirror of per-bin remaining capacity: the line-10/18
        # "servers by descending Rem_i" ranking is one C-level lexsort
        # over this vector instead of a Python key-lambda sort of the
        # bin objects per placement (which dominated large allocations).
        remaining = np.full(len(bins), capacity, dtype=float)
        while candidates.remaining:
            sweeps += 1
            if sweeps > max_sweeps:
                raise _sweep_limit(max_sweeps)
            progress = False
            # Line 10 / 18: servers in descending order of remaining
            # capacity; one placement per pass position, so the target
            # server is re-ranked after every placement.  lexsort's last
            # key is primary: descending remaining, then ascending index
            # — the same total order as sorting (-remaining, index).
            order = np.lexsort((np.arange(remaining.size), -remaining))
            for pos in order:
                bin_ = bins[pos]
                chosen = candidates.pick(bin_, threshold)
                if chosen is None:
                    continue
                candidates.place(bin_, chosen)
                remaining[bin_.index] = bin_.remaining
                progress = True
                break
            if candidates.remaining and not progress:
                # Batched sweep across TH levels: bin costs are unchanged
                # until the next placement, so the highest prospective
                # cost ``best`` across all bins decides every pending
                # threshold comparison at once.  Degenerate through
                # exactly the levels the level-by-level loop would have
                # swept unproductively (same repeated ``*= alpha`` float
                # trajectory, same ``max_sweeps`` accounting), then let
                # the outer loop run the first productive sweep.
                best = float("-inf")
                for bin_ in bins:
                    bin_best = candidates.best_cost(bin_)
                    if bin_best is not None and bin_best > best:
                        best = bin_best
                if best > float("-inf"):
                    # Correlation-blocked: degenerate the threshold (line 17).
                    threshold *= self._config.alpha
                    while best <= threshold:
                        sweeps += 1
                        if sweeps > max_sweeps:
                            raise _sweep_limit(max_sweeps)
                        threshold *= self._config.alpha
                else:
                    # Capacity-blocked (nothing fits anywhere): the Eqn-3
                    # estimate was too tight for this fragmentation; open
                    # one more server.
                    if max_servers is not None and len(bins) >= max_servers:
                        raise CapacityError(
                            f"cannot place {candidates.remaining} VMs within "
                            f"{max_servers} servers of capacity {capacity}"
                        )
                    bins.append(_Bin(len(bins), capacity))
                    remaining = np.append(remaining, capacity)
        return bins

    @staticmethod
    def _consolidate_extras(bins: list[_Bin], r: np.ndarray, estimate: int) -> None:
        """Close bins opened beyond the Eqn-3 estimate when possible.

        The balanced (largest-``Rem``-first) fill can fragment capacity and
        open a server beyond the estimate; since "the number of active
        servers is minimized" is an explicit objective of the paper's
        formulation, a final pass tries to drain each extra bin into the
        spare capacity of the estimated ones (the correlation threshold is
        vacuous by the time extras exist — they are opened only after it
        has fully degenerated).  A bin is only closed when *all* of its
        VMs relocate.  Bin members are slots into ``r``, the slot-aligned
        clamped references.
        """
        for extra in reversed(bins[estimate:]):
            if not extra.members:
                continue
            moves: list[tuple[int, _Bin]] = []
            planned: dict[int, float] = {}
            for member in extra.members:
                demand = float(r[member])
                target: _Bin | None = None
                for bin_ in bins[:estimate]:
                    free = bin_.remaining - planned.get(bin_.index, 0.0)
                    if demand <= free + _FIT_EPS:
                        target = bin_
                        break
                if target is None:
                    break
                planned[target.index] = planned.get(target.index, 0.0) + demand
                moves.append((member, target))
            if len(moves) != len(extra.members):
                continue
            for member, target in moves:
                target.members.append(member)
                target.remaining -= float(r[member])
            extra.members.clear()
            extra.remaining = 0.0


def _sweep_limit(max_sweeps: int) -> CapacityError:
    return CapacityError(f"allocation did not converge within {max_sweeps} sweeps")


#: Cells (problems x bins x slots) one lockstep sweep stacks at most:
#: each of its three per-bin arrays then stays under 4 MiB of float64,
#: whatever the fleet size.  Larger stacks measured no faster.
_LOCKSTEP_CELLS = 1 << 19


def _lockstep_groups(sizes: Sequence[int], estimates: Sequence[int]) -> list[list[int]]:
    """Problem indices in lockstep batches of at most ``_LOCKSTEP_CELLS``.

    Largest problems first, so a batch pads to problems of similar size
    (and they finish at similar iterations).  A problem too large for
    the budget on its own gets a batch of its own.
    """
    groups: list[list[int]] = []
    group: list[int] = []
    width = depth = 0
    for k in sorted(range(len(sizes)), key=lambda k: (-sizes[k], k)):
        grown_width, grown_depth = max(width, sizes[k]), max(depth, estimates[k])
        if group and (len(group) + 1) * grown_width * grown_depth > _LOCKSTEP_CELLS:
            groups.append(group)
            group, grown_width, grown_depth = [], sizes[k], estimates[k]
        group.append(k)
        width, depth = grown_width, grown_depth
    groups.append(group)
    return groups


def _lockstep_sweeps(
    refs: Sequence[np.ndarray],
    blocks: Sequence[tuple[np.ndarray, np.ndarray]],
    estimates: Sequence[int],
    capacity: float,
    config: AllocationConfig,
) -> list[list[_Bin]]:
    """The Fig-2 sweep loop (lines 9-18) of K independent problems at once.

    ``refs[k]`` is problem ``k``'s slot-ordered clamped references and
    ``blocks[k]`` its ``(cost_array, rows)`` pair (``rows`` maps slots to
    matrix rows).  Per-bin state is stacked into ``(K, bins)`` and
    ``(K, bins, slots)`` arrays padded to the largest problem; padding is
    never free, never fits and never wins an ``argmax``.

    One iteration of the ``while`` loop is one iteration of every
    unfinished problem's solo loop (:meth:`CorrelationAwareAllocator._run_sweeps`):

    * the solo loop places into the first bin, by descending remaining
      capacity then index, whose ``pick`` succeeds — a bin whose best
      live cost beats the threshold, or an empty bin (best ``inf``).
      That is one masked ``argmax`` of ``remaining`` per problem;
    * the slot choice is the solo ``pick`` on the bin's cost row;
    * a problem with no such bin takes the solo unproductive branch:
      jump the threshold through the same ``alpha`` levels with the same
      ``max_sweeps`` accounting, or open one more bin.

    ``cost[k, b]`` holds bin ``b``'s prospective costs (``-inf`` where a
    slot is taken or does not fit) and ``best[k, b]`` its maximum.  A
    join recomputes the joined bin's row; a departing slot is masked out
    of every row, and only the bins whose maximum sat at that slot are
    re-maxed.  Returns each problem's bins (members in join order), for
    :meth:`CorrelationAwareAllocator._consolidate_extras`.
    """
    num = len(refs)
    sizes = np.array([r.size for r in refs], dtype=np.intp)
    width = int(sizes.max())
    # Slot-ordered matrices, concatenated; row p of problem k starts at
    # starts[k] + p * sizes[k].  Row gathers clamp columns past a
    # problem's size to its last column: padding slots are never free,
    # so what their sums hold is never read.
    starts = np.concatenate(([0], np.cumsum(sizes * sizes)[:-1]))
    flat = np.empty(int((sizes * sizes).sum()))
    for k, (cost_array, rows) in enumerate(blocks):
        flat[starts[k] : starts[k] + rows.size * rows.size] = _slot_costs(
            cost_array, rows
        ).ravel()
    columns = np.minimum(np.arange(width), sizes[:, None] - 1)

    r = np.zeros((num, width))
    for k, row in enumerate(refs):
        r[k, : row.size] = row
    free = np.arange(width) < sizes[:, None]
    left = sizes.copy()
    nbins = np.array(estimates, dtype=np.intp)
    depth = int(nbins.max())
    live = np.arange(depth) < nbins[:, None]
    remaining = np.where(live, capacity, -np.inf)
    best = np.where(live, np.inf, -np.inf)
    count = np.zeros((num, depth), dtype=np.intp)
    ref_sum = np.zeros((num, depth))
    pair_weight = np.zeros((num, depth))
    row_ref = np.zeros((num, depth, width))
    row_one = np.zeros((num, depth, width))
    cost = np.full((num, depth, width), -np.inf)

    threshold = np.full(num, config.th_cost)
    alpha = config.alpha
    resolution = config.cost_resolution
    max_sweeps = config.max_sweeps
    # Sweeps per problem = loop iterations while unfinished + ``extra``
    # (threshold levels jumped over); every unfinished problem has run
    # every iteration so far.
    extra = np.zeros(num, dtype=np.intp)
    iteration = 0
    joins: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    active = np.flatnonzero(left)
    while active.size:
        iteration += 1
        if iteration + int(extra[active].max()) > max_sweeps:
            raise _sweep_limit(max_sweeps)
        pickable = best[active] > threshold[active, None]
        productive = pickable.any(axis=1)
        everyone = productive.all()
        ks = active if everyone else active[productive]
        if ks.size:
            if not everyone:
                pickable = pickable[productive]
            bs = np.where(pickable, remaining[ks], -np.inf).argmax(axis=1)
            rows = cost[ks, bs]
            slots = np.where(
                rows > threshold[ks, None], _bucketed(rows, resolution), -np.inf
            ).argmax(axis=1)
            empty = count[ks, bs] == 0
            if empty.any():
                # An empty bin fits every free slot; the first one is the
                # largest (canonical order): the FFD move.
                slots[empty] = free[ks[empty]].argmax(axis=1)
            r_new = r[ks, slots]
            # The departing slot leaves every bin's row; re-max the bins
            # whose best sat there.
            column = cost[ks, :, slots]
            hit = (column == best[ks]) & (column > -np.inf)
            cost[ks, :, slots] = -np.inf
            if hit.any():
                hk, hb = np.nonzero(hit)
                best[ks[hk], hb] = cost[ks[hk], hb].max(axis=1)

            weight, ref_rows, one_rows = _join_sums(
                pair_weight[ks, bs],
                row_ref[ks, bs, slots],
                row_one[ks, bs, slots],
                r_new,
                flat[(starts[ks] + slots * sizes[ks])[:, None] + columns[ks]],
                row_ref[ks, bs],
                row_one[ks, bs],
            )
            pair_weight[ks, bs] = weight
            row_ref[ks, bs] = ref_rows
            row_one[ks, bs] = one_rows
            members = count[ks, bs] + 1
            count[ks, bs] = members
            room = remaining[ks, bs] - r_new
            remaining[ks, bs] = room
            total = ref_sum[ks, bs] + r_new
            ref_sum[ks, bs] = total
            free[ks, slots] = False
            left[ks] -= 1
            joins.append((ks, bs, slots))

            r_rows = r[ks]
            rows = np.where(
                free[ks] & (r_rows <= room[:, None] + _FIT_EPS),
                _prospective_costs(
                    weight[:, None], ref_rows, one_rows, total[:, None], r_rows, members[:, None]
                ),
                -np.inf,
            )
            cost[ks, bs] = rows
            best[ks, bs] = rows.max(axis=1)

        if not everyone:
            idle = active[~productive]
            top = best[idle].max(axis=1)
            blocked = top == -np.inf
            # Correlation-blocked: degenerate the threshold (line 17)
            # through exactly the levels the solo loop sweeps.
            jump, top = idle[~blocked], top[~blocked]
            threshold[jump] *= alpha
            pending = top <= threshold[jump]
            while pending.any():
                jump, top = jump[pending], top[pending]
                extra[jump] += 1
                if iteration + int(extra[jump].max()) > max_sweeps:
                    raise _sweep_limit(max_sweeps)
                threshold[jump] *= alpha
                pending = top <= threshold[jump]
            # Capacity-blocked: open one more server.
            grow = idle[blocked]
            if grow.size:
                if int(nbins[grow].max()) >= depth:
                    pad = max(1, depth // 4)
                    count, ref_sum, pair_weight, remaining, best = (
                        _pad_bins(array, pad, fill)
                        for array, fill in (
                            (count, 0), (ref_sum, 0.0), (pair_weight, 0.0),
                            (remaining, -np.inf), (best, -np.inf),
                        )
                    )
                    row_ref = _pad_bins(row_ref, pad, 0.0)
                    row_one = _pad_bins(row_one, pad, 0.0)
                    cost = _pad_bins(cost, pad, -np.inf)
                    depth += pad
                remaining[grow, nbins[grow]] = capacity
                best[grow, nbins[grow]] = np.inf
                nbins[grow] += 1
        active = active[left[active] > 0]

    bins = [[_Bin(b, capacity) for b in range(int(nbins[k]))] for k in range(num)]
    for ks, bs, slots in joins:
        for k, b, slot in zip(ks.tolist(), bs.tolist(), slots.tolist(), strict=True):
            bins[k][b].members.append(slot)
    for k, problem_bins in enumerate(bins):
        for bin_ in problem_bins:
            bin_.remaining = float(remaining[k, bin_.index])
    return bins


def _pad_bins(array: np.ndarray, extra: int, fill: float) -> np.ndarray:
    """``array`` with ``extra`` more bins (axis 1) filled with ``fill``."""
    shape = (array.shape[0], extra, *array.shape[2:])
    return np.concatenate([array, np.full(shape, fill, dtype=array.dtype)], axis=1)


PairCostRow = Callable[[str, Sequence[str]], np.ndarray]
"""``(vm, others) -> costs``: the Eqn-1 pair costs of ``vm`` against each
of ``others``, in order."""


def _cross_weight(
    bin_: _Bin, vm: str, refs: Mapping[str, float], pair_costs: PairCostRow
) -> float:
    """``sum_j (r_j + r_vm) C(j, vm)`` over the members of a non-empty bin."""
    row = pair_costs(vm, bin_.members)
    member_refs = np.array([refs[member] for member in bin_.members], dtype=float)
    return float(row @ member_refs) + refs[vm] * float(row.sum())


def _join(bin_: _Bin, vm: str, refs: Mapping[str, float], pair_costs: PairCostRow) -> None:
    """Commit ``vm`` to ``bin_``, updating the incremental ``R_S``/``T_S``."""
    if bin_.members:
        bin_.pair_weight += _cross_weight(bin_, vm, refs, pair_costs)
    bin_.members.append(vm)
    bin_.remaining -= refs[vm]
    bin_.ref_sum += refs[vm]


def _evacuate(
    placement: Placement,
    failed_servers: Sequence[int],
    references: Mapping[str, float],
    n_cores: int,
    num_servers: int | None,
    resolution: float,
    pair_costs: PairCostRow,
) -> Placement:
    """The evacuation rule: re-place the failed servers' VMs without a rebuild.

    The surviving bins' Eqn-2 state (``R_S`` and the weighted pair sum
    ``T_S``) is rebuilt from ``placement`` with survivors joining in
    assignment order.  Each evacuee (descending *clamped* reference, then
    name) then joins the surviving bin that *maximises* the bucketed
    prospective Eqn-2 cost among the bins it fits, scanned by ascending
    index (ties: larger remaining capacity, then lower index); when no
    non-empty bin fits, the lowest-index empty survivor is opened; when
    nothing fits at all, the bin with the most remaining capacity is
    *overcommitted* — an emergency re-placement prefers a violated QoS
    target over an unhosted VM, so no correlation threshold gates
    admission and ``validate_capacity`` is not enforced.  A VM stays
    unplaced only when no surviving server exists.

    References are clamped into ``[0, n_cores]`` exactly as in
    :meth:`CorrelationAwareAllocator.allocate`.  Returns ``placement``
    itself when no VM sits on a failed server, otherwise the amended
    placement (original VM order preserved).
    """
    if n_cores <= 0:
        raise ValueError("n_cores must be positive")
    capacity = float(n_cores)
    failed = {int(server) for server in failed_servers}
    fleet = num_servers if num_servers is not None else placement.num_servers
    if fleet < placement.num_servers:
        raise ValueError(
            f"num_servers {fleet} below the placement's {placement.num_servers}"
        )
    missing = [vm for vm in placement.vm_ids if vm not in references]
    if missing:
        raise ValueError(f"missing references for {missing}")
    evacuees = [vm for vm, server in placement.assignment.items() if server in failed]
    if not evacuees:
        return placement

    refs = {
        vm: min(max(float(references[vm]), 0.0), capacity) for vm in placement.vm_ids
    }
    bins = {server: _Bin(server, capacity) for server in range(fleet) if server not in failed}
    for vm, server in placement.assignment.items():
        if server not in failed:
            _join(bins[server], vm, refs, pair_costs)

    targets: dict[str, int] = {}
    for vm in sorted(evacuees, key=lambda vm: (-refs[vm], vm)):
        demand = refs[vm]
        best_key: tuple | None = None
        best_bin: _Bin | None = None
        for bin_ in bins.values():
            if demand > bin_.remaining + _FIT_EPS:
                continue
            if bin_.members:
                total = bin_.ref_sum + demand
                cost = (
                    (bin_.pair_weight + _cross_weight(bin_, vm, refs, pair_costs))
                    / (total * len(bin_.members))
                    if total > 0.0
                    else 1.0
                )
                bucketed = round(cost / resolution) * resolution if resolution > 0 else cost
                key = (0, -bucketed, -bin_.remaining, bin_.index)
            else:
                key = (1, 0.0, 0.0, bin_.index)
            if best_key is None or key < best_key:
                best_key = key
                best_bin = bin_
        if best_bin is None and bins:
            best_bin = min(bins.values(), key=lambda b: (-b.remaining, b.index))
        if best_bin is None:
            continue
        _join(best_bin, vm, refs, pair_costs)
        targets[vm] = best_bin.index

    assignment: dict[str, int] = {}
    for vm, server in placement.assignment.items():
        if server in failed:
            if vm in targets:
                assignment[vm] = targets[vm]
        else:
            assignment[vm] = server
    return Placement(assignment, num_servers=max(fleet, placement.num_servers))


def _dense_rows(
    order: Sequence[str], cost_array: np.ndarray, name_index: Mapping[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Validate the dense inputs; return the float matrix and ``order``'s rows."""
    cost_array = np.asarray(cost_array, dtype=float)
    if cost_array.ndim != 2 or cost_array.shape[0] != cost_array.shape[1]:
        raise ValueError(f"cost_array must be square, got shape {cost_array.shape}")
    missing = [vm for vm in order if vm not in name_index]
    if missing:
        raise ValueError(f"name_index missing entries for {missing}")
    rows = np.array([name_index[vm] for vm in order], dtype=np.intp)
    if rows.size and (rows.min() < 0 or rows.max() >= cost_array.shape[0]):
        raise ValueError("name_index points outside cost_array")
    return cost_array, rows


def _slot_costs(cost_array: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``cost_array`` gathered into slot order (a new C-contiguous array)."""
    return np.ascontiguousarray(cost_array[np.ix_(rows, rows)])


def _capacity(n_cores: int) -> float:
    if n_cores <= 0:
        raise ValueError("n_cores must be positive")
    return float(n_cores)


def _canonical_problem(
    vm_ids: Sequence[str], references: Mapping[str, float], capacity: float
) -> tuple[list[str], dict[str, float], int]:
    """Validate one ALLOCATE input; return its slot order, clamped refs, estimate.

    UPDATE leftovers that live here by construction: the descending sort
    (line 6) and the Eqn-3 server estimate (line 8).
    """
    vm_ids = list(vm_ids)
    if len(set(vm_ids)) != len(vm_ids):
        raise ValueError("duplicate VM ids")
    if not vm_ids:
        raise ValueError("nothing to allocate")
    missing = [vm for vm in vm_ids if vm not in references]
    if missing:
        raise ValueError(f"missing references for {missing}")
    refs = {vm: min(max(float(references[vm]), 0.0), capacity) for vm in vm_ids}
    order = sorted(vm_ids, key=lambda vm: (-refs[vm], vm))
    estimate = max(1, math.ceil(sum(refs.values()) / capacity - 1e-12))
    return order, refs, estimate


def _placement(
    order: list[str],
    bins: list[_Bin],
    refs: Mapping[str, float],
    capacity: float,
    max_servers: int | None,
) -> Placement:
    """The swept bins as a capacity-checked :class:`Placement`."""
    assignment = {order[slot]: bin_.index for bin_ in bins for slot in bin_.members}
    num_servers = max_servers if max_servers is not None else len(bins)
    placement = Placement(assignment, num_servers=num_servers)
    placement.validate_capacity(refs, capacity)
    return placement
