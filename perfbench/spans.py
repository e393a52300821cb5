"""In-memory span recording and per-layer self-time arithmetic.

A :class:`Tracer` wraps chosen methods of the program's classes at run
time, from the benchmark's own code: each call becomes one span with a
name, a start and an end (host ``perf_counter_ns``), the span that was
open when it started (its parent), and the op id the workload set
last.  Span names are ``<layer>.<what>``; the part before the first
dot names the layer the span's time belongs to.

A span's *self time* is its duration minus the part of that interval
its child spans cover.  Summed per layer over one root span, the self
times add up to the root span's duration exactly, because every
instant inside the root is covered by exactly one innermost span.

Every wrapped call also costs the wrapper's own work.  Most of it
falls outside the call's span, in its parent's self time: on a workload
whose event loop calls a million wrapped callbacks, the loop's self
time would mostly be the tracer's.  :func:`wrapper_costs` measures that
cost on a wrapped no-op, and :func:`remove_tracing_cost` moves it out of
the layers into a ``trace`` layer of its own.

Spans live in flat ``array`` columns (about 34 bytes a span) while a
traced run records, and :meth:`SpanTable.dump` writes them out when
the run ends; :meth:`SpanTable.load` reads such a file back.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from pathlib import Path
from typing import Callable, Collection, Dict, Iterable, List, Optional, Tuple

_COLUMNS = (("name", "H"), ("start", "q"), ("end", "q"), ("parent", "q"),
            ("op", "q"))


def layer_of(name: str) -> str:
    """The layer a span name belongs to: the part before the first dot."""
    return name.split(".", 1)[0]


class SpanTable:
    """Spans as columns: span ``i`` is ``names[name[i]]`` from ``start[i]``
    to ``end[i]``, opened under span ``parent[i]`` (-1 for a root) while
    op ``op[i]`` was current.  A parent always precedes its children."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def append(self, name: str, start: int, end: int, parent: int,
               op: int = 0) -> int:
        index = len(self.start)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return index

    @classmethod
    def from_rows(cls, rows: Iterable[Tuple[str, int, int, int]]) -> "SpanTable":
        """``(name, start, end, parent)`` rows, for tests and hand-made traces."""
        table = cls()
        for name, start, end, parent in rows:
            table.append(name, start, end, parent)
        return table

    def dump(self, path: Path) -> None:
        """Write every span to ``path``: one JSON header line, then raw columns."""
        header = {"format": "perfbench-spans/1", "clock": "perf_counter_ns",
                  "count": len(self), "names": self.names,
                  "columns": [list(column) for column in _COLUMNS]}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column, _ in _COLUMNS:
                getattr(self, column).tofile(out)

    @classmethod
    def load(cls, path: Path) -> "SpanTable":
        """Read back a file written by :meth:`dump`."""
        table = cls()
        with open(path, "rb") as source:
            header = json.loads(source.readline())
            for column, typecode in header["columns"]:
                values = array(typecode)
                values.fromfile(source, header["count"])
                setattr(table, column, values)
        for name in header["names"]:
            table.name_id(name)
        return table


def self_times(table: SpanTable) -> array:
    """Self time of every span, in the units of its start/end stamps.

    Child intervals are clipped to their parent's interval and merged
    before they are subtracted, so overlapping children (asynchronous
    work, or stamps from different clocks) are not counted twice and a
    child that outlives its parent only removes the overlapping part.
    """
    start, end, parent = table.start, table.end, table.parent
    count = len(start)
    order: Iterable[int] = range(count)
    if any(start[index] < start[index - 1] for index in range(1, count)):
        order = sorted(order, key=start.__getitem__)
    covered = array("q", bytes(8 * count))
    covered_until: Dict[int, int] = {}
    for index in order:
        outer = parent[index]
        if outer < 0:
            continue
        begin = max(start[index], start[outer],
                    covered_until.get(outer, start[outer]))
        finish = min(end[index], end[outer])
        if finish > begin:
            covered[outer] += finish - begin
            covered_until[outer] = finish
    return array("q", (end[index] - start[index] - covered[index]
                       for index in range(count)))


def layer_totals(table: SpanTable,
                 values: Iterable[float]) -> Dict[int, Dict[str, float]]:
    """Per-span ``values`` summed per layer under each root span:
    ``{root index: {layer: total}}``."""
    layer_ids = [layer_of(name) for name in table.names]
    roots = array("q")
    totals: Dict[int, Dict[str, float]] = {}
    for index, value in enumerate(values):
        outer = table.parent[index]
        root = index if outer < 0 else roots[outer]
        roots.append(root)
        layers = totals.setdefault(root, {})
        layer = layer_ids[table.name[index]]
        layers[layer] = layers.get(layer, 0) + value
    return totals


def layer_self_times(table: SpanTable) -> Dict[int, Dict[str, int]]:
    """Self time per layer under each root span: ``{root index: {layer: time}}``."""
    return layer_totals(table, self_times(table))


def layer_tracing_costs(table: SpanTable, parent_cost: float,
                        own_cost: float) -> Dict[int, Dict[str, float]]:
    """Estimated tracing cost inside each layer's self time, per root span.

    A wrapped call costs ``own_cost`` inside its own span and
    ``parent_cost`` inside its parent's (see :func:`wrapper_costs`), so
    a span's self time holds ``own_cost`` plus ``parent_cost`` for each
    direct child.  Root spans are opened by hand and have no own cost.
    """
    children = array("q", bytes(8 * len(table)))
    for outer in table.parent:
        if outer >= 0:
            children[outer] += 1
    return layer_totals(table, (
        parent_cost * children[index]
        + (own_cost if table.parent[index] >= 0 else 0)
        for index in range(len(table))))


def remove_tracing_cost(self_time: Dict[str, float],
                        cost: Dict[str, float]) -> Dict[str, float]:
    """Layer self times less their tracing cost, which becomes layer ``trace``.

    A layer never goes below zero, so the total stays the same.
    """
    result = dict(self_time)
    removed = 0.0
    for layer, value in self_time.items():
        taken = min(value, cost.get(layer, 0))
        result[layer] = value - taken
        removed += taken
    result["trace"] = result.get("trace", 0) + removed
    return result


def outermost_totals(table: SpanTable, root: int,
                     names: Collection[str]) -> Dict[str, Tuple[int, int]]:
    """``name -> (calls, inclusive time)`` for the given span names under ``root``.

    A call nested inside another call of the same name (a wrapper
    calling its own overload) is not counted twice.
    """
    wanted = {table.name_id(name) for name in names}
    totals: Dict[str, Tuple[int, int]] = {}
    for index, nid in enumerate(table.name):
        if nid not in wanted:
            continue
        nested = False
        top = index
        while table.parent[top] >= 0:
            top = table.parent[top]
            nested = nested or table.name[top] == nid
        if nested or top != root:
            continue
        name = table.names[nid]
        calls, total = totals.get(name, (0, 0))
        totals[name] = (calls + 1, total + table.end[index] - table.start[index])
    return totals


class _Probe:
    def call(self, value):
        return value


#: No-op calls per timing of :func:`wrapper_costs`, and timings.  Many
#: calls, so that the span columns grow as they do in a traced batch.
_CALIBRATION_CALLS = 200_000
_CALIBRATION_ROUNDS = 3


def wrapper_costs(new_simulator: Callable[[], object]) -> Tuple[float, float]:
    """Host ns one wrapped call adds: ``(to its parent's span, to its own)``.

    Timed where most wrapped calls are made, in an event loop:
    ``new_simulator()`` makes a simulator, which runs many no-op
    callbacks once unwrapped and once wrapped under a root span.  The
    difference per call is the whole cost.  The part inside the call's
    own span is the no-op spans' self time less a plain no-op call; the
    rest falls in the parent.  Each is the median of a few timings.
    """
    clock = time.perf_counter_ns
    probe = _Probe()
    calls = range(_CALIBRATION_CALLS)

    def dispatch(tracer: Optional["Tracer"] = None) -> int:
        """Host ns the simulator takes to run the calls (under a root
        span of ``tracer`` when given)."""
        sim = new_simulator()
        for value in calls:
            sim.call_after(value, probe.call, value)
        root = tracer.open("trace.calibrate") if tracer else -1
        start = clock()
        sim.run()
        elapsed = clock() - start
        if tracer:
            tracer.close(root)
        return elapsed

    parent_costs: List[float] = []
    own_costs: List[float] = []
    for _ in range(_CALIBRATION_ROUNDS):
        start = clock()
        for value in calls:
            pass
        empty = clock() - start
        start = clock()
        for value in calls:
            probe.call(value)
        call = (clock() - start - empty) / len(calls)
        plain = dispatch()
        tracer = Tracer(clock)
        tracer.patch(_Probe, "call", "trace.probe")
        try:
            total = (dispatch(tracer) - plain) / len(calls)
        finally:
            tracer.restore()
        spans = self_times(tracer.table)
        own = (sum(spans) - spans[0]) / len(calls) - call
        parent_costs.append(total - own)
        own_costs.append(own)
    return (max(0.0, statistics.median(parent_costs)),
            max(0.0, statistics.median(own_costs)))


class Tracer:
    """Records spans around wrapped callables; undo with :meth:`restore`."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        self.table = SpanTable()
        self._stack: List[int] = [-1]
        #: Op id stamped on spans opened from now on (set through ``run.py``).
        self.op_id = 0
        self._patches: List[Tuple[type, str, object]] = []

    def open(self, name: str) -> int:
        """Open a span now; returns its index for :meth:`close`."""
        index = self.table.append(name, 0, 0, self._stack[-1], self.op_id)
        self._stack.append(index)
        self.table.start[index] = self._clock()
        return index

    def close(self, index: int) -> None:
        self.table.end[index] = self._clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} is open")

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A function that records one ``name`` span around each call of ``fn``."""
        table = self.table
        nid = table.name_id(name)
        clock = self._clock
        stack = self._stack
        names, starts, ends = table.name, table.start, table.end
        parents, ops = table.parent, table.op
        tracer = self

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owner: type, attribute: str, name: str) -> None:
        """Wrap method ``attribute`` of class ``owner`` until :meth:`restore`.

        The original is read from the class's own ``__dict__``, so the
        wrapper stays a plain function that instances bind as a method.
        """
        self.replace(owner, attribute,
                     self.wrap(name, owner.__dict__[attribute]))

    def replace(self, owner: type, attribute: str, value: object) -> None:
        """Set class attribute ``owner.attribute`` until :meth:`restore`."""
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        """Undo every :meth:`patch` and :meth:`replace`, newest first."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
