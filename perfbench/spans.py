"""Span recording and the statistics the benchmark reports.

A span is one call from the benchmark into a layer of ``tropwitt``:
``(name, start, end, parent, op_id, tag)``.  The layer is the part of the
name before the first dot (``witt.mul`` belongs to ``witt``).  Spans are
kept in memory and written out once, when the run ends.  With tracing off
the benchmark uses :class:`NullTracer`, whose spans record nothing.

This module imports nothing from ``tropwitt``, so the benchmark can load it
before it measures the cold import of the library.
"""

from __future__ import annotations

import hashlib
import statistics
import time

# Layers of the library, named after its modules, reported in every traced run.
LAYERS = ("partitions", "quantale", "symfunc", "witt", "enriched", "plancherel", "suites", "cli")


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.records[self.index][2] = time.perf_counter()
        tracer.stack.pop()
        return False


class Tracer:
    """Records spans in memory; nested spans name their parent."""

    enabled = True

    def __init__(self):
        self.records: list[list] = []
        self.stack: list[int] = []
        self.failed_ops: set = set()

    def span(self, name: str, op_id=None, tag: str = ""):
        parent = self.stack[-1] if self.stack else -1
        if op_id is None and parent >= 0:
            op_id = self.records[parent][4]
        index = len(self.records)
        self.records.append([name, time.perf_counter(), None, parent, op_id, tag])
        self.stack.append(index)
        return _Span(self, index)

    def add(self, name: str, start: float, end: float, op_id=None, tag: str = "", parent: int = -1) -> int:
        """Record a span measured elsewhere, e.g. in a child process."""
        self.records.append([name, start, end, parent, op_id, tag])
        return len(self.records) - 1

    def mark_failed(self, op_id) -> None:
        self.failed_ops.add(op_id)


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    enabled = False
    records: list = []

    def span(self, name, op_id=None, tag=""):
        return _NULL_SPAN

    def mark_failed(self, op_id) -> None:
        pass


class Tally:
    """What a timed loop reports: per-operation latencies, failures, and a
    digest of the outputs of the first cycle of operations."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.failed = 0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()
        self.wall = 0.0
        self.cycle = 0
        self.cycles = 0.0

    def record(self, op_id, latency: float, ok: bool, label: str, output: bytes | None) -> None:
        self.latencies.append(latency)
        if not ok:
            self.failed += 1
            self.tracer.mark_failed(op_id)
            if len(self.failures) < 5:
                self.failures.append(label[:300])
        if output is not None:
            self.digest.update(output)


def run_loop(tally: Tally, cycle: int, step, seconds: float, between, stop_every: int | None = None) -> Tally:
    """Closed loop, one client: ``step(op_id)`` for op_id = 0, 1, ... until
    at least one cycle of `cycle` operations is done and `seconds` have
    passed, ending on a boundary of `stop_every` operations (by default a
    whole cycle).

    ``step`` returns ``(latency, ok, label, output)``; the outputs of the
    first cycle go into the tally's digest.  ``between(done)`` runs after
    each operation, outside its latency, with the count of operations done.
    """
    stop_every = stop_every or cycle
    start = time.perf_counter()
    op_id = 0
    while True:
        latency, ok, label, output = step(op_id)
        tally.record(op_id, latency, ok, label, output if op_id < cycle else None)
        op_id += 1
        between(op_id)
        if op_id >= cycle and op_id % stop_every == 0 and time.perf_counter() - start >= seconds:
            break
    tally.cycle = cycle
    tally.cycles = op_id / cycle
    tally.wall = time.perf_counter() - start
    return tally


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of recording one nested span pair, in seconds."""
    tracer = Tracer()
    start = time.perf_counter()
    for i in range(samples):
        with tracer.span("op.calibrate", i):
            with tracer.span("calibrate.call"):
                pass
    return (time.perf_counter() - start) / (2 * samples)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def cycle_time(latencies: list[float], cycle: int) -> float:
    """Time of one cycle of operations, each operation at its median.

    Operation ``i`` of a run is position ``i % cycle`` of the cycle; the
    median over the repetitions of each position is summed over the cycle.
    A spell in which the host runs slow moves this less than a plain sum.
    """
    return sum(statistics.median(latencies[pos::cycle]) for pos in range(cycle))


def p90(values) -> float:
    """The 90th percentile (inclusive method); the median below 2 samples."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def layer_summary(tracer: Tracer) -> dict[str, float]:
    """Calls, self time and failed calls per layer.

    A span's self time is its duration minus the part covered by its child
    spans; a call counts as failed when its operation failed a check.
    """
    records = tracer.records
    child_time = [0.0] * len(records)
    for name, start, end, parent, op_id, tag in records:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.busy_ms"] = 0.0
        out[f"{layer}.failed"] = 0
    for i, (name, start, end, parent, op_id, tag) in enumerate(records):
        layer = name.split(".", 1)[0]
        if layer not in LAYERS:
            continue
        out[f"{layer}.calls"] += 1
        out[f"{layer}.busy_ms"] += (end - start - child_time[i]) * 1000
        if op_id in tracer.failed_ops:
            out[f"{layer}.failed"] += 1
    return out


def durations(tracer: Tracer, name: str, tag: str | None = None) -> list[float]:
    """Durations in seconds of every span with this name (and tag)."""
    return [
        end - start
        for n, start, end, parent, op_id, t in tracer.records
        if n == name and (tag is None or t == tag)
    ]
