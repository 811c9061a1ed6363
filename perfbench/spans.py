"""In-memory spans recorded around calls into the program's layers.

A :class:`Tracer` keeps two kinds of record, both in memory until the
run ends:

* **spans** — ``(name, start, end, parent, run_id)`` for the coarse
  layer boundaries a run crosses a handful of times (import, topology,
  engine construction, the discovery run, verification, queries);
* **call totals** — per-function call count and seconds for the hot
  boundaries crossed once per node, frame or message
  (``run_round``, ``encode_frame``, ...), charged to the span that was
  open when the call was made.  One span per frame would cost more
  memory than the run it measures.

A span's self time is its duration minus its child spans and minus the
call totals charged to it.

Wrappers are installed only where the caller looks the function up:
``patch(module, name, ...)`` replaces a module attribute (restored on
exit), and :meth:`Tracer.wrap_factory` wraps each node's ``run_round`` as
the node factory builds it.  No program source changes.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: ``[name, start, end, parent_index]`` per span, in start order.
        self.spans: List[list] = []
        #: ``(call name, span index) -> [calls, seconds]``.
        self.calls: Dict[tuple, list] = {}
        #: Free-form counters (messages, frames, bytes, ...).
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    # -- recording -----------------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def timed(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """Wrap a synchronous *fn* so each call adds to *name*'s totals.

        *on_result*, if given, is called with ``(args, result)`` after
        the clock stops (to count frames, messages or bytes).
        """
        calls = self.calls
        stack = self._stack

        def wrapper(*args, **kwargs):
            started = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - started
            key = (name, stack[-1] if stack else None)
            entry = calls.get(key)
            if entry is None:
                calls[key] = [1, elapsed]
            else:
                entry[0] += 1
                entry[1] += elapsed
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def wrap_factory(self, factory: Callable) -> Callable:
        """Node factory whose nodes time and count every ``run_round``."""

        def on_outbox(_args, outbox) -> None:
            if outbox:
                self.count("algorithms.messages", len(outbox))
                self.count("algorithms.pointers", sum(len(m.ids) for m in outbox))

        def build(node_id):
            node = factory(node_id)
            node.run_round = self.timed("algorithms.run_round", node.run_round, on_outbox)
            return node

        return build

    # -- reduction -----------------------------------------------------------------

    def duration(self, name: str) -> float:
        """Total seconds of every span called *name*."""
        return sum(end - start for span_name, start, end, _ in self.spans if span_name == name)

    def call_seconds(self, name: str, within: Optional[str] = None) -> float:
        """Seconds spent in calls to *name*, optionally only those made
        while a span called *within* was the innermost open span."""
        return sum(
            seconds
            for (call, index), (_, seconds) in self.calls.items()
            if call == name
            and (within is None or (index is not None and self.spans[index][0] == within))
        )

    def call_count(self, name: str) -> int:
        return sum(count for (call, _), (count, _) in self.calls.items() if call == name)

    def self_times(self) -> Dict[str, float]:
        """Span name -> total self time (duration minus children and calls)."""
        own = [end - start for _, start, end, _ in self.spans]
        for name, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        for (_, index), (_, seconds) in self.calls.items():
            if index is not None:
                own[index] -= seconds
        totals: Dict[str, float] = {}
        for (name, *_), seconds in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def dump(self, handle) -> None:
        """Append this run's spans and call totals to *handle* as JSONL."""
        for index, (name, start, end, parent) in enumerate(self.spans):
            record = {
                "run": self.run_id,
                "span": index,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
            }
            handle.write(json.dumps(record) + "\n")
        for (name, index), (count, seconds) in sorted(
            self.calls.items(), key=lambda item: (item[0][0], item[0][1] or -1)
        ):
            record = {
                "run": self.run_id,
                "calls": name,
                "parent": index,
                "count": count,
                "seconds": seconds,
            }
            handle.write(json.dumps(record) + "\n")


@contextmanager
def patch(module, name: str, replacement) -> Iterator[None]:
    """Replace ``module.name`` for the duration of the block."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)
