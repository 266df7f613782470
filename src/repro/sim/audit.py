"""Runtime invariant auditor for :func:`repro.sim.engine.replay`.

Cheap, vectorized self-checks over the live replay state, run at every
checkpoint boundary (``CheckpointPolicy(audit=True)``) right before the
checkpoint is written — a corrupted accumulator must never be persisted
as if it were healthy.  The checks:

* **residency** — per-server frequency-residency bincounts (active
  levels + inactive) must account for exactly ``period *
  samples_per_period`` samples per server, with no negative counts;
* **violation_matrix** — per-period violation ratios finite and in
  ``[0, 1]``;
* **energy** — the energy accumulator finite, non-negative, and
  monotone non-decreasing across checkpoint boundaries;
* **counters** — committed accounting (migrations, evacuations,
  unserved demand, unplaced VM-periods) non-negative;
* **cost_matrix** — the approach's last cost matrix finite and exactly
  symmetric (it is symmetric by construction, so any asymmetry is
  memory corruption, not roundoff);
* **p2_markers** — every reachable P² marker state (standalone
  :class:`~repro.analysis.stats.BatchPSquare` estimators, streaming
  cost-matrix estimators, rolling-horizon marker parts) monotone per
  stream (:func:`~repro.analysis.stats.validate_p2_markers`).

``on_violation`` selects the failure mode: ``"raise"`` aborts the replay
with :class:`AuditError`; ``"warn"`` emits a ``RuntimeWarning`` per
finding and records it; ``"degrade"`` rebuilds the corrupted component
where one is rebuildable (streaming estimators and caches are derived
state — resetting them costs accuracy for a few periods, never
correctness) and records what happened in ``ReplayResult.audit_events``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import BatchPSquare, validate_p2_markers
from repro.core.correlation import RollingCostHorizon, StreamingCostMatrix

__all__ = [
    "ON_VIOLATION_MODES",
    "AuditError",
    "AuditEvent",
    "apply_policy",
    "audit_replay_state",
]

#: Accepted ``CheckpointPolicy.on_violation`` modes.
ON_VIOLATION_MODES = ("raise", "warn", "degrade")


class AuditError(RuntimeError):
    """An invariant violation under ``on_violation="raise"``."""


@dataclass(frozen=True)
class AuditEvent:
    """One recorded invariant violation (lands in ``ReplayResult``).

    ``action`` is what the auditor did about it: ``"warned"`` (warn
    mode), ``"rebuilt"`` (degrade mode, corrupted component reset) or
    ``"recorded"`` (degrade mode, nothing rebuildable — accumulator
    totals cannot be re-derived mid-stream).
    """

    check: str
    period: int
    detail: str
    action: str


#: Checks whose backing state is derived (re-derivable) and therefore
#: rebuildable under ``on_violation="degrade"``.
_REBUILDABLE = frozenset({"cost_matrix", "p2_markers"})


def _state_of(approach):
    """Where an approach keeps its horizon, allocator and last cost matrix:
    its :class:`~repro.core.manager.PowerManager` if it drives one."""
    return getattr(approach, "manager", approach)


def _iter_p2_estimators(owner):
    """Duck-typed scan of decision state for live P² estimators."""
    attrs = vars(owner) if hasattr(owner, "__dict__") else {}
    for value in attrs.values():
        if isinstance(value, BatchPSquare):
            yield value
        elif isinstance(value, StreamingCostMatrix):
            for estimator in (value._single_est, value._pair_est):
                if estimator is not None:
                    yield estimator


def _iter_horizons(owner):
    attrs = vars(owner) if hasattr(owner, "__dict__") else {}
    for value in attrs.values():
        if isinstance(value, RollingCostHorizon):
            yield value


def audit_replay_state(
    *,
    period: int,
    samples_per_period: int,
    violation: np.ndarray,
    residency,
    energy_j: float,
    previous_energy_j: float,
    counters: dict,
    approach,
) -> list[tuple[str, str]]:
    """Run every check; returns ``[(check, detail), ...]`` findings.

    Pure inspection — never mutates the replay state; pair with
    :func:`apply_policy` to act on the findings.
    """
    findings: list[tuple[str, str]] = []

    # Residency conservation: every server contributes samples_per_period
    # samples per completed period, split between active levels and the
    # inactive bucket.
    state = residency.snapshot()
    counts = np.asarray(state["counts"])
    inactive = np.asarray(state["inactive"])
    if np.any(counts < 0) or np.any(inactive < 0):
        findings.append(("residency", "negative residency counts"))
    else:
        expected = period * samples_per_period
        totals = counts.sum(axis=1) + inactive
        bad = np.flatnonzero(totals != expected)
        if bad.size:
            findings.append(
                (
                    "residency",
                    f"{bad.size} server(s) account for the wrong sample total "
                    f"(expected {expected}, e.g. server {bad[0]} has "
                    f"{totals[bad[0]]})",
                )
            )

    measured = violation[:period]
    if not np.all(np.isfinite(measured)):
        findings.append(("violation_matrix", "non-finite violation ratios"))
    elif measured.size and (measured.min() < 0.0 or measured.max() > 1.0):
        findings.append(
            (
                "violation_matrix",
                f"violation ratios outside [0, 1] "
                f"(min {measured.min():.6g}, max {measured.max():.6g})",
            )
        )

    if not np.isfinite(energy_j) or energy_j < 0.0:
        findings.append(("energy", f"energy accumulator is {energy_j!r}"))
    elif energy_j < previous_energy_j:
        findings.append(
            (
                "energy",
                f"energy accumulator decreased across checkpoints "
                f"({previous_energy_j!r} -> {energy_j!r})",
            )
        )

    negative = [
        name for name, value in counters.items() if not value >= 0
    ]
    if negative:
        findings.append(("counters", f"negative accounting: {', '.join(negative)}"))

    owner = _state_of(approach)
    matrix = getattr(owner, "_last_matrix", None)
    if matrix is not None and hasattr(matrix, "as_array"):
        dense = matrix.as_array()
        if not np.all(np.isfinite(dense)):
            findings.append(("cost_matrix", "non-finite cost-matrix entries"))
        elif not np.array_equal(dense, dense.T):
            findings.append(("cost_matrix", "cost matrix is not symmetric"))

    for estimator in _iter_p2_estimators(owner):
        try:
            validate_p2_markers(
                estimator._heights, estimator._positions, estimator._count
            )
        except ValueError as error:
            findings.append(("p2_markers", str(error)))
            break
    else:
        for horizon in _iter_horizons(owner):
            parts = getattr(horizon, "_marker_parts", ())
            for singles, pairs, count in parts:
                if count >= 5 and (
                    np.any(np.diff(singles, axis=1) < 0)
                    or np.any(np.diff(pairs, axis=1) < 0)
                ):
                    findings.append(
                        ("p2_markers", "horizon marker heights are not sorted")
                    )
                    break
            else:
                continue
            break

    return findings


def _rebuild_component(approach, check: str) -> bool:
    """Reset the derived state behind a rebuildable check (duck-typed).

    Returns True when something was actually reset.  The rebuild is
    deliberately coarse — streaming estimators, horizon rings and
    allocator caches all restart cold — because a corrupted estimator's
    history is unrecoverable and a cold restart is merely approximate
    for a few periods, never wrong.
    """
    rebuilt = False
    owner = _state_of(approach)
    horizon = getattr(owner, "_horizon", None)
    if horizon is not None and hasattr(horizon, "reset"):
        horizon.reset()
        rebuilt = True
    allocator = getattr(owner, "_allocator", None)
    if allocator is not None and hasattr(allocator, "reset_cache"):
        allocator.reset_cache()
        rebuilt = True
    if getattr(owner, "_last_matrix", None) is not None:
        owner._last_matrix = None
        rebuilt = True
    if check == "p2_markers":
        attrs = vars(owner) if hasattr(owner, "__dict__") else {}
        for value in attrs.values():
            if isinstance(value, (BatchPSquare, StreamingCostMatrix)):
                value.reset()
                rebuilt = True
    return rebuilt


def apply_policy(
    findings: list[tuple[str, str]],
    on_violation: str,
    approach,
    period: int,
) -> tuple[AuditEvent, ...]:
    """Act on :func:`audit_replay_state` findings per ``on_violation``."""
    if not findings:
        return ()
    if on_violation == "raise":
        raise AuditError(
            f"replay audit failed at period {period}: "
            + "; ".join(f"{check}: {detail}" for check, detail in findings)
        )
    events = []
    for check, detail in findings:
        if on_violation == "degrade":
            if check in _REBUILDABLE and _rebuild_component(approach, check):
                action = "rebuilt"
            else:
                action = "recorded"
        else:
            warnings.warn(
                f"replay audit: {check} violated at period {period}: {detail}",
                RuntimeWarning,
                stacklevel=2,
            )
            action = "warned"
        events.append(AuditEvent(check=check, period=period, detail=detail, action=action))
    return tuple(events)
