"""The Eqn-2 per-server weighted correlation cost.

For server ``i`` hosting VMs ``V_alloc_i = {VM_i,1 ... VM_i,n}``:

``Cost_server_i = sum_j w_j * ( sum_{k != j} Cost_vm(j, k) / (n - 1) )``

with weights ``w_j = u_hat(VM_j) / sum_k u_hat(VM_k)`` over the co-located
VMs.  Intuitively: each VM contributes the *average* of its pairwise costs
against its co-residents, weighted by how much of the server's demand it
is responsible for.  The value feeds two decisions:

* the ALLOCATE phase picks, for the server under consideration, the
  unallocated VM that *maximises* the prospective server cost, and
* the Eqn-4 frequency controller divides the worst-case peak frequency by
  it (Fig 3 shows it is an empirical lower bound of the achievable
  slowdown).

Degenerate cases follow the conservative convention of the cost metric: a
server with zero or one VM, or with all-zero references, has cost 1.0 (no
multiplexing headroom to exploit).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

import numpy as np

__all__ = ["server_correlation_cost", "prospective_server_cost", "CostFn"]

#: Pairwise cost lookup; both the exact and streaming matrices conform.
CostFn = Callable[[str, str], float]


def server_correlation_cost(
    members: Sequence[str],
    references: Mapping[str, float],
    cost_fn: CostFn | np.ndarray,
) -> float:
    """Eqn 2 for the given co-located VM set.

    Parameters
    ----------
    members:
        VM ids on the server.
    references:
        ``u_hat`` per VM id (the weights' numerators).
    cost_fn:
        Pairwise cost lookup, typically ``CostMatrix.cost`` — or the
        members' ``n x n`` cost block in ``members`` order (e.g.
        ``CostMatrix.block(members)``), read in one gather instead of
        ``n (n - 1)`` lookups.  Both give the same bits: the pair sums
        run in the same order either way.
    """
    n = len(members)
    if len(set(members)) != n:
        raise ValueError("duplicate VM ids in server member list")
    if n <= 1:
        return 1.0
    total_ref = sum(references[vm] for vm in members)
    if total_ref <= 0.0:
        return 1.0
    if callable(cost_fn):

        def row_of(j: int) -> list[float]:
            vm_j = members[j]
            return [0.0 if k == j else cost_fn(vm_j, vm_k) for k, vm_k in enumerate(members)]

    else:
        block = np.asarray(cost_fn, dtype=float)
        if block.shape != (n, n):
            raise ValueError(f"cost block must be {n} x {n}, got shape {block.shape}")
        row_of = block.tolist().__getitem__
    cost = 0.0
    for j, vm_j in enumerate(members):
        weight = references[vm_j] / total_ref
        if weight == 0.0:
            continue
        # Explicit left-to-right ``+=``: ``sum()`` rounds differently on
        # newer Pythons, and both lookup forms must agree bit for bit.
        pair_sum = 0.0
        for k, pair_cost in enumerate(row_of(j)):
            if k != j:
                pair_sum += pair_cost
        cost += weight * pair_sum / (n - 1)
    return cost


def prospective_server_cost(
    members: Sequence[str],
    candidate: str,
    references: Mapping[str, float],
    cost_fn: CostFn,
) -> float:
    """Eqn 2 evaluated as if ``candidate`` were already placed.

    This is the quantity the ALLOCATE phase maximises when choosing the
    next VM for the selected server (Fig 2, line 11).
    """
    if candidate in members:
        raise ValueError(f"{candidate!r} is already a member")
    return server_correlation_cost([*members, candidate], references, cost_fn)
