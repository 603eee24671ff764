"""Out-of-program tracing: wrap each layer's public functions from here.

:class:`Tracer` replaces selected functions on the simulator's classes and
modules with timing wrappers for the duration of a ``with`` block, then
restores the originals.  Each wrapped call becomes a span (name, layer,
wall start/end, simulated start/end, parent span).  Generator functions
are timed per resume, because a simulated operation runs in slices
between the events it waits for; their whole-call simulated start and end
are recorded as a separate span.

Per layer the tracer keeps:

- ``busy``: wall seconds inside the layer's outermost wrapped calls;
- ``self``: ``busy`` minus the wrapped calls of any layer nested inside;
- ``calls``: wrapped calls made.

Spans are kept in memory (up to :data:`MAX_SPANS`) and written out as Chrome
trace-event JSON by :meth:`Tracer.write_chrome_trace`.  Spans that event
callbacks cause (network delivery) have no link to the client operation
that caused them: that needs tracing inside the program.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

from repro.core import records
from repro.db import btree, driver, instance, mtr, proxy, replica
from repro.sim import events
from repro.storage import node, page, segment

#: Spans kept in memory per run; later ones are counted as dropped.
MAX_SPANS = 100_000

#: layer -> (owner, attribute) pairs timed as that layer.
LAYERS = {
    "sim.events": [(events.EventLoop, "step")],
    "db.driver": [
        (driver.StorageDriver, "submit"),
        (driver.StorageDriver, "flush_all"),
        (driver.StorageDriver, "on_write_ack"),
        (driver.StorageDriver, "on_rejection"),
        (driver.StorageDriver, "read_block"),
    ],
    "storage.node": [(node.StorageNode, "on_message")],
    "storage.segment.receive": [(segment.Segment, "receive")],
    "storage.segment.coalesce": [(segment.Segment, "coalesce")],
    "storage.segment.read": [
        (segment.Segment, "read_block"),
        (segment.Segment, "read_version"),
    ],
    "storage.page.checksum": [
        (page, "image_checksum"),
        (segment, "image_checksum"),
        (page.BlockVersion, "verify"),
    ],
    "db.btree.get": [(btree.BTree, "get")],
    "db.btree.put": [(btree.BTree, "put")],
    "db.mtr.seal": [(mtr.MTRBuilder, "seal")],
    "db.instance.commit": [(instance.WriterInstance, "commit")],
    "core.records.apply": [
        (records.CommitPayload, "apply"),
        (records.BlockPut, "apply"),
    ],
    "db.replica": [
        (replica.ReplicaInstance, "on_message"),
        (replica.ReplicaInstance, "get"),
    ],
    "db.proxy": [
        (proxy.ConnectionProxy, "read"),
        (proxy.ConnectionProxy, "write"),
    ],
}

#: Client writes whose key and value bytes are counted.
USER_WRITES = [
    (instance.WriterInstance, "put"),
    (instance.WriterInstance, "delete"),
]

#: Block reads made while a B-tree lookup is running (nodes visited).
NODE_READS = [
    (instance.WriterInstance, "read_image"),
    (replica.ReplicaInstance, "read_image"),
]


def _owner_name(owner) -> str:
    return getattr(owner, "__qualname__", owner.__name__.rsplit(".", 1)[-1])


class Tracer:
    """Times wrapped calls; use as a context manager around a run."""

    def __init__(self, sim_clock) -> None:
        self.sim_clock = sim_clock
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Per-function call counts (``Owner.attr``).
        self.function_calls: Counter = Counter()
        self.node_reads = 0
        self.user_bytes = 0
        self.sealed_records = 0
        self.spans: list[tuple] = []
        self.call_spans: list[tuple] = []
        self.dropped_spans = 0
        self._stack: list[list] = []
        self._depth: Counter = Counter()
        self._next_id = 0
        self._originals: list[tuple] = []
        self._origin = time.perf_counter()

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _enter(self, name: str, layer: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][2] if self._stack else 0
        frame = [name, layer, self._next_id, parent, 0.0, self.sim_clock(),
                 time.perf_counter()]
        self._depth[layer] += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, layer, span_id, parent, child, sim_start, start = frame
        duration = end - start
        self.self_time[layer] += duration - child
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            self.busy[layer] += duration
        if self._stack:
            self._stack[-1][4] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((name, layer, span_id, parent, start, end,
                               sim_start, self.sim_clock()))
        else:
            self.dropped_spans += 1

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                return tracer._resumes(fn(*args, **kwargs), name, layer)
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[layer] += 1
            tracer.function_calls[name] += 1
            frame = tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if layer == "db.mtr.seal":
                tracer.sealed_records += len(result)
            return result

        return wrapper

    def _resumes(self, generator, name: str, layer: str):
        """Drive ``generator``, timing each resume as one span."""
        self.calls[layer] += 1
        self.function_calls[name] += 1
        sim_start = self.sim_clock()
        value, error = None, None
        try:
            while True:
                frame = self._enter(name, layer)
                try:
                    if error is None:
                        yielded = generator.send(value)
                    else:
                        yielded = generator.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self._exit(frame)
                try:
                    value, error = (yield yielded), None
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as exc:  # delivered into the callee
                    value, error = None, exc
        finally:
            if len(self.call_spans) < MAX_SPANS:
                self.call_spans.append((name, layer, sim_start,
                                        self.sim_clock()))

    def _count_node_read(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._depth["db.btree.get"] or tracer._depth["db.btree.put"]:
                tracer.node_reads += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_user_bytes(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(instance, txn, key, *value):
            tracer.user_bytes += len(str(key)) + sum(
                len(str(v)) for v in value)
            return fn(instance, txn, key, *value)

        return wrapper

    # ------------------------------------------------------------------
    # Install / restore
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        for layer, targets in LAYERS.items():
            for owner, attr in targets:
                name = f"{_owner_name(owner)}.{attr}"
                self._patch(owner, attr,
                            self._wrap(owner.__dict__[attr], name, layer))
        for owner, attr in NODE_READS:
            self._patch(owner, attr,
                        self._count_node_read(owner.__dict__[attr]))
        for owner, attr in USER_WRITES:
            self._patch(owner, attr,
                        self._count_user_bytes(owner.__dict__[attr]))
        self._origin = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write_chrome_trace(self, path) -> None:
        """Chrome trace-event JSON: wall-clock spans on process 1, whole
        generator calls on a simulated-time track (process 2)."""
        origin = self._origin
        trace = []
        for name, layer, span_id, parent, start, end, sim0, sim1 in self.spans:
            trace.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent,
                         "sim_start_ms": sim0, "sim_end_ms": sim1},
            })
        for name, layer, sim0, sim1 in self.call_spans:
            trace.append({
                "name": name, "cat": layer, "ph": "X", "pid": 2, "tid": 1,
                "ts": sim0 * 1e3, "dur": (sim1 - sim0) * 1e3,
                "args": {"sim_start_ms": sim0, "sim_end_ms": sim1},
            })
        meta = [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": "wall clock (per resume)"}},
            {"name": "process_name", "ph": "M", "pid": 2,
             "args": {"name": "simulated time (whole calls)"}},
        ]
        with open(path, "w", encoding="utf-8") as out:
            json.dump({
                "traceEvents": meta + trace,
                "displayTimeUnit": "ms",
                "otherData": {"dropped_spans": self.dropped_spans},
            }, out)
