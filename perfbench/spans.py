"""Timing wrappers around the layers' public functions, and self-time.

A traced run installs a wrapper on each function listed in
``perfbench/layers.py``, patched where callers look the name up: on the
defining class for methods, and on every ``repro`` module that holds a
reference for module functions.  Each call appends one span
``[name, start, end, parent, op]`` to an in-memory list; ``op`` is the
job or event id the benchmark loop set before the call.  :meth:`Recorder.remove`
puts every original object back.

A span's self time is its duration minus the durations of its direct
children, so the self times of one tree add up to the root's duration
and every second is counted once.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

NAME, START, END, PARENT, OP = range(5)

#: ``observe(recorder, args, kwargs, result)``: a cheap count taken
#: after the call returns.
Observer = Callable[["Recorder", tuple, dict, object], None]


class Recorder:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = {}
        self.op: Optional[int] = None
        self._patches: List[tuple] = []

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    # -- wrappers ------------------------------------------------------
    def _wrap(self, name: str, fn, observe: Optional[Observer]):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
                stack.append(len(spans))
                spans.append(record)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    record[END] = clock()
                    stack.pop()
                if observe is not None:
                    observe(self, args, kwargs, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def patch_method(
        self, cls: type, attr: str, name: str, observe: Optional[Observer] = None
    ) -> None:
        """Wrap ``cls.attr`` (plain, class or static method) in place."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(name, raw.__func__, observe))
        else:
            wrapped = self._wrap(name, raw, observe)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def patch_function(
        self, fn, name: str, observe: Optional[Observer] = None
    ) -> None:
        """Wrap ``fn`` in every loaded ``repro`` module that names it."""
        wrapped = self._wrap(name, fn, observe)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def remove(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patches)


# -- self-time arithmetic ---------------------------------------------
def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus its direct children's durations."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            own[parent] -= span[END] - span[START]
    return own


def covered_seconds(spans: Sequence[Sequence]) -> float:
    """Wall time covered by root spans (those without a parent)."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def summarize(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """``{span name: {"calls": n, "self_s": seconds}}``."""
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[NAME], {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
    return table


def by_layer(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Self seconds summed per layer (the span name's first part)."""
    totals: Dict[str, float] = {}
    for name, row in table.items():
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + row["self_s"]
    return totals


def median_duration_us(
    spans: Sequence[Sequence], name: str, lo: int, hi: int
) -> float:
    """Median duration (microseconds) of ``name`` spans whose op id is
    in ``[lo, hi)``; 0 when there are none."""
    durations = [
        (s[END] - s[START]) * 1e6
        for s in spans
        if s[NAME] == name and s[OP] is not None and lo <= s[OP] < hi
    ]
    return statistics.median(durations) if durations else 0.0
