"""In-memory span recording for the traced benchmark run.

Spans are recorded from the benchmark's side of each public call, never
from inside the program.  Two kinds exist:

* a *span* wraps one coarse call (``generate_trace``, ``get_stream``,
  ``KernelSimulator.run``, ``run_experiment`` ...).  Every span keeps its
  id, its parent span, the op it belongs to, its start and end;
* an *aggregate* wraps a method called once or more per simulated cycle
  (``bpu.generate``, ``fetch.tick`` ...).  One record per (op, name) sums
  the calls, the seconds and the seconds covered by nested spans, because
  a record per call would hold millions of entries per run.

A span's self time is its duration minus the time its child spans cover.
Everything stays in memory until :meth:`Tracer.dump` writes it out when
the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator


class Aggregate:
    """Summed timing of one hot method within one op."""

    __slots__ = ("op", "name", "calls", "seconds", "child")

    def __init__(self, op: int, name: str) -> None:
        self.op = op
        self.name = name
        self.calls = 0
        self.seconds = 0.0
        #: Seconds covered by spans nested inside these calls.
        self.child = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": "aggregate",
            "op": self.op,
            "name": self.name,
            "calls": self.calls,
            "seconds": self.seconds,
            "child_seconds": self.child,
        }


class Tracer:
    """Records spans and aggregates for one benchmark run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.aggregates: list[Aggregate] = []
        #: Child-time accumulator of every open span; the bottom entry
        #: collects top-level time and is never read.
        self._child: list[float] = [0.0]
        self._open: list[int] = []
        self._next_id = 0
        #: Current op id; -1 while setting up.
        self.op = -1

    def begin_op(self) -> None:
        """Start a new op: later spans and aggregates share its id."""
        self.op += 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        self._child.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            child = self._child.pop()
            self._open.pop()
            self._child[-1] += end - start
            self.spans.append(
                {
                    "kind": "span",
                    "id": span_id,
                    "parent": parent,
                    "op": self.op,
                    "name": name,
                    "start": start,
                    "end": end,
                    "child_seconds": child,
                }
            )

    def call(self, name: str, function: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
        """Call ``function`` inside a span named ``name``."""
        with self.span(name):
            return function(*args, **kwargs)

    def wrap(self, owner: object, method: str, name: str) -> None:
        """Shadow ``owner.method`` on the instance with an aggregating timer."""
        inner = getattr(owner, method)
        record = Aggregate(self.op, name)
        self.aggregates.append(record)
        child = self._child

        def timed(*args: Any, **kwargs: Any) -> Any:
            child.append(0.0)
            start = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                record.calls += 1
                record.seconds += elapsed
                record.child += child.pop()
                child[-1] += elapsed

        setattr(owner, method, timed)

    def dump(self, path: Path) -> None:
        """Write every span and aggregate as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
            for aggregate in self.aggregates:
                handle.write(json.dumps(aggregate.as_dict()) + "\n")


class NullTracer:
    """The untraced run: same interface, records nothing."""

    enabled = False
    op = -1

    def begin_op(self) -> None:
        pass

    def span(self, name: str) -> nullcontext[None]:
        return nullcontext()

    def call(self, name: str, function: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
        return function(*args, **kwargs)

    def wrap(self, owner: object, method: str, name: str) -> None:
        pass
