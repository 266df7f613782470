"""Per-VM reference history: the UPDATE phase's state, for every approach."""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.prediction.predictors import Predictor
from repro.traces.trace import ReferenceSpec, TraceSet

__all__ = ["ReferenceHistory"]


class ReferenceHistory:
    """Bounded per-VM reference history plus prediction.

    Histories are bounded to the predictor's declared ``history_window``
    (see :class:`~repro.prediction.predictors.Predictor`; absent or
    ``None`` keeps everything), so a controller serving indefinitely
    keeps constant per-VM state.  VMs never observed predict ``default``.
    *Oracle priming* (``ReplayConfig.oracle``) replaces the predictor's
    output with the true references for exactly one :meth:`predict`,
    separating placement quality from predictor error in the ablations.
    """

    def __init__(self, spec: ReferenceSpec, predictor: Predictor, default: float) -> None:
        self._spec = spec
        self._predictor = predictor
        self._default = default
        window = getattr(predictor, "history_window", None)
        if window is not None and window < 0:
            raise ValueError(f"history_window must be non-negative, got {window}")
        self._bound = window
        self._history: dict[str, list[float]] = {}
        self._primed: dict[str, float] | None = None

    @property
    def history(self) -> Mapping[str, tuple[float, ...]]:
        """Per-VM retained history (oldest first)."""
        return {vm: tuple(values) for vm, values in self._history.items()}

    def __contains__(self, vm: object) -> bool:
        return vm in self._history

    def prime(self, true_references: Mapping[str, float]) -> None:
        """Inject the true upcoming references (consumed by the next predict)."""
        self._primed = dict(true_references)

    def observe(self, window: TraceSet) -> dict[str, float]:
        """Append the window's observed references; returns them."""
        observed = window.references(self._spec)
        bound = self._bound
        for vm, value in observed.items():
            history = self._history.setdefault(vm, [])
            history.append(value)
            if bound is not None and len(history) > bound:
                del history[: len(history) - bound]
        return observed

    def predict(self, vm_ids: Iterable[str]) -> dict[str, float]:
        """Predicted next-period references, consuming any primed values."""
        primed = self._primed
        self._primed = None
        predictions: dict[str, float] = {}
        for vm in vm_ids:
            if primed is not None and vm in primed:
                predictions[vm] = primed[vm]
                continue
            history = self._history.get(vm)
            predictions[vm] = (
                self._default if history is None else self._predictor.predict(history)
            )
        return predictions

    def observe_and_predict(self, window: TraceSet) -> dict[str, float]:
        """:meth:`observe` the window, then :meth:`predict` its VMs."""
        return self.predict(self.observe(window))

    def drop(self, vm_ids: Iterable[str]) -> None:
        """Forget departed VMs' histories."""
        for vm in vm_ids:
            self._history.pop(vm, None)

    def reset(self) -> None:
        self._history.clear()
        self._primed = None

    def snapshot(self) -> dict:
        return {
            "history": {vm: list(values) for vm, values in self._history.items()},
            "primed": None if self._primed is None else dict(self._primed),
        }

    def restore(self, state: dict) -> None:
        self._history = {vm: list(values) for vm, values in state["history"].items()}
        self._primed = None if state["primed"] is None else dict(state["primed"])
