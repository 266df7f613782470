"""Outside-in span tracer for the benchmark's traced run.

Nothing under ``src/`` knows about tracing.  :class:`Tracer` replaces a
public callable with a timing wrapper *at the binding its caller looks
up* — a module attribute such as ``repro.core.manager.correlation_aware_frequency``
(the manager imported the function by name, so patching
``repro.core.vf_control`` alone would miss it) or a class attribute such
as ``PowerManager.predict`` — and restores every binding on
:meth:`Tracer.close`.

Spans stay in memory as ``[name, parent, start_ns, end_ns, op]`` rows
and are written out only when the run ends.  A span's *self time* is
its duration minus the durations of its direct children, so the self
times of all spans sum to the summed duration of the top-level spans,
and ``other_ms`` (wall time minus that sum) closes the total.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from pathlib import Path

CountHook = Callable[[dict, tuple, dict, object], None]


class Tracer:
    """Records nested spans around patched callables."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: Operation id stamped on each new span (a period or an
        #: experiment); set by the workload loop, ``None`` outside one.
        self.op: object = None
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def _wrap(self, name: str, fn: Callable, count: CountHook | None) -> Callable:
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            counts[name + "_calls"] += 1
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def patch_binding(
        self, module_name: str, attr: str, name: str, count: CountHook | None = None
    ) -> None:
        """Wrap the function one module looks up under ``attr``."""
        module = sys.modules[module_name]
        original = getattr(module, attr)
        setattr(module, attr, self._wrap(name, original, count))
        self._undo.append(lambda: setattr(module, attr, original))

    def patch_function(
        self, module_name: str, attr: str, name: str, count: CountHook | None = None
    ) -> None:
        """Wrap a function at every loaded ``repro`` binding that holds it."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = self._wrap(name, original, count)
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    self._undo.append(
                        lambda module=module, key=key: setattr(module, key, original)
                    )

    def patch_method(
        self, cls: type, attr: str, name: str, count: CountHook | None = None
    ) -> None:
        """Wrap a plain method or a classmethod of ``cls``."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(name, original.__func__, count))
        else:
            replacement = self._wrap(name, original, count)
        setattr(cls, attr, replacement)
        self._undo.append(lambda: setattr(cls, attr, original))

    def close(self) -> None:
        """Restore every patched binding (newest first)."""
        while self._undo:
            self._undo.pop()()

    def _self_ns(self) -> list[int]:
        """Each span's duration minus its direct children's durations."""
        own = [end - start for _name, _parent, start, end, _op in self.spans]
        for _name, parent, start, end, _op in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_ms(self) -> dict[str, float]:
        """Per span name: summed self time in milliseconds."""
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self._self_ns()):
            totals[span[0]] += own / 1e6
        return dict(totals)

    def self_ms_by_op(self, name: str) -> dict[object, float]:
        """Self time of spans called ``name``, summed per operation id."""
        totals: dict[object, float] = defaultdict(float)
        for span, own in zip(self.spans, self._self_ns()):
            if span[0] == name:
                totals[span[4]] += own / 1e6
        return dict(totals)

    def top_level_ms(self) -> float:
        """Summed duration of the spans that have no traced parent."""
        return sum(end - start for _n, parent, start, end, _op in self.spans if parent < 0) / 1e6

    def write(self, path: Path) -> None:
        """Dump the spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][2] if self.spans else 0
        with path.open("w") as handle:
            for index, (name, parent, start, end, op) in enumerate(self.spans):
                row = {
                    "id": index,
                    "parent": parent,
                    "name": name,
                    "start_us": (start - origin) / 1e3,
                    "end_us": (end - origin) / 1e3,
                    "op": op,
                }
                handle.write(json.dumps(row) + "\n")
