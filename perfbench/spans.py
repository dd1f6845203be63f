"""In-memory span recorder for the traced benchmark run.

A span is ``(id, name, start, end, parent, run)``.  Spans are only recorded
from the benchmark's own files: around the calls it makes into a layer's
public functions, or by wrapping bound methods of objects it constructed
and handed to the program.  Nothing is written until :meth:`Tracer.write`.

The untraced run uses :data:`OFF`, whose ``fn`` returns the function itself
and whose ``wrap`` does nothing, so end-to-end timings carry no wrapper.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator


class Tracer:
    """Records nested spans; computes per-name self time and counts."""

    enabled = True

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # [id, name, start, end, parent, units]
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, units: int = 0) -> Iterator[list[Any]]:
        """Open a span; ``units`` is the work it covers (events, frames)."""
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), name, perf_counter(), None, parent, units]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    def fn(self, name: str, func: Callable, units: Callable[..., int] | None = None) -> Callable:
        """``func`` wrapped in a span per call (``units(*args)`` sizes it)."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            n = units(*args, **kwargs) if units is not None else 0
            with self.span(name, n):
                return func(*args, **kwargs)

        return traced

    def wrap(self, obj: Any, attr: str, name: str, units: Callable[..., int] | None = None) -> None:
        """Shadow a bound method of ``obj`` with a traced one (instance attr)."""
        setattr(obj, attr, self.fn(name, getattr(obj, attr), units))

    # ---------------------------------------------------------------- #
    # Reductions
    # ---------------------------------------------------------------- #

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, units, inclusive and self seconds.

        Self time is a span's duration minus the time its direct children
        cover (children nest strictly inside their parent and never
        overlap, since every span is opened on one thread).
        """
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[4] is not None:
                child_time[s[4]] += s[3] - s[2]
        table: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = table.setdefault(
                s[1], {"calls": 0, "units": 0, "total_s": 0.0, "self_s": 0.0}
            )
            duration = s[3] - s[2]
            row["calls"] += 1
            row["units"] += s[5]
            row["total_s"] += duration
            row["self_s"] += duration - child_time[s[0]]
        return table

    def roots_wall(self) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[4] is None)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            "run": self.run_id,
            "fields": ["id", "name", "start", "end", "parent", "units"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")


class _Off:
    """The tracing-off stand-in: no spans, no wrappers."""

    enabled = False

    def span(self, name: str, units: int = 0) -> contextlib.nullcontext:
        return contextlib.nullcontext()

    def fn(self, name: str, func: Callable, units: Callable[..., int] | None = None) -> Callable:
        return func

    def wrap(self, obj: Any, attr: str, name: str, units: Callable[..., int] | None = None) -> None:
        return None


OFF = _Off()
