"""Spans recorded from outside the program, around calls into each layer.

A span is ``{name, start, end, parent, op}``: ``parent`` is the index of
the span that caused it (``-1`` for a root) and ``op`` identifies the
operation (request index, round index) so the spans of one operation
share an identifier.  Spans are kept in memory and written once, when
the run ends.

Two ways to record:

* :meth:`Tracer.span` / :meth:`Tracer.wrap` — a stack-tracked context
  manager and an *instance-level* wrapper around a public method, for
  the synchronous round path (the classes are left untouched, so an
  untraced run executes unchanged code);
* :meth:`Tracer.add` — an explicit span, for the concurrent serve path
  and for durations the program reports itself (``wait_ms``,
  ``service_ms``, ``probe_ms``, the ``timings`` dict), which are laid
  out after the fact inside the span that contains them.

A span's *self time* is its duration minus the part of it that its
child spans cover (overlapping children are merged first).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

ROOT = -1


class Tracer:
    """In-memory span recorder plus the self-time arithmetic over it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        #: Operation id given to spans recorded without one (the round
        #: in progress, set by the driver loop).
        self.op = -1
        self._stack: list[int] = []
        self._wrapped: list[tuple[Any, str]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def add(
        self, name: str, start: float, end: float, parent: int = ROOT, op: int | None = None
    ) -> int:
        """Record a finished span; returns its index (a parent handle)."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.ops.append(self.op if op is None else op)
        return len(self.names) - 1

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Time a block; nested blocks become children of the enclosing one."""
        parent = self._stack[-1] if self._stack else ROOT
        index = self.add(name, time.perf_counter(), 0.0, parent)
        self._stack.append(index)
        try:
            yield index
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    def current(self) -> int:
        """Index of the innermost open span (``ROOT`` outside any)."""
        return self._stack[-1] if self._stack else ROOT

    def current_name(self) -> str:
        """Name of the innermost open span (empty outside any)."""
        return self.names[self._stack[-1]] if self._stack else ""

    def wrap(
        self,
        target: Any,
        method: str,
        name: str | Callable[[], str],
        around: Callable[[Callable[..., Any]], Callable[..., Any]] | None = None,
    ) -> None:
        """Shadow ``target.method`` on the instance with a span-recording
        wrapper.  A callable ``name`` is evaluated per call (one method
        serving two layers is named by its caller).  ``around`` may
        further decorate the original (used to pass the program's own
        ``timings`` accumulator in)."""
        original = getattr(target, method)
        inner = around(original) if around is not None else original

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name if isinstance(name, str) else name()):
                return inner(*args, **kwargs)

        setattr(target, method, traced)
        self._wrapped.append((target, method))

    def unwrap_all(self) -> None:
        """Remove every instance-level wrapper (the class method shows again)."""
        for target, method in self._wrapped:
            try:
                delattr(target, method)
            except AttributeError:
                pass
        self._wrapped.clear()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def durations(self, name: str) -> np.ndarray:
        """Durations (seconds) of every span called ``name``, in record order."""
        return np.array(
            [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]
        )

    def totals_per_op(self, name: str, ops: list[int]) -> np.ndarray:
        """Summed duration (seconds) of the spans called ``name``, per
        operation id in ``ops`` (zero where an operation has none)."""
        slot = {op: k for k, op in enumerate(ops)}
        totals = np.zeros(len(ops))
        for n, s, e, op in zip(self.names, self.starts, self.ends, self.ops):
            if n == name and op in slot:
                totals[slot[op]] += e - s
        return totals

    def _children(self) -> dict[int, list[int]]:
        children: dict[int, list[int]] = defaultdict(list)
        for index, parent in enumerate(self.parents):
            if parent != ROOT:
                children[parent].append(index)
        return children

    def _covered(self, index: int, kids: list[int]) -> float:
        """Seconds of span ``index`` covered by the union of its children."""
        lo, hi = self.starts[index], self.ends[index]
        covered = 0.0
        reach = lo
        for start, end in sorted((self.starts[k], self.ends[k]) for k in kids):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        return covered

    def self_times(self) -> dict[str, float]:
        """Total self time (seconds) per span name."""
        children = self._children()
        totals: dict[str, float] = defaultdict(float)
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            totals[name] += duration - self._covered(index, children.get(index, []))
        return dict(totals)

    def unattributed_share(self) -> float:
        """Largest share of a root span that its children do not cover."""
        children = self._children()
        worst = 0.0
        for index, parent in enumerate(self.parents):
            if parent != ROOT:
                continue
            duration = self.ends[index] - self.starts[index]
            if duration <= 0:
                continue
            covered = self._covered(index, children.get(index, []))
            worst = max(worst, 1.0 - covered / duration)
        return worst

    def dump(self, path: Path, header: dict[str, Any]) -> None:
        """Write the spans (times relative to the first one) as JSON."""
        origin = min(self.starts) if self.starts else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    **header,
                    "columns": ["name", "start_s", "end_s", "parent", "op"],
                    "spans": [
                        [n, round(s - origin, 7), round(e - origin, 7), p, o]
                        for n, s, e, p, o in zip(
                            self.names, self.starts, self.ends, self.parents, self.ops
                        )
                    ],
                },
                handle,
            )
