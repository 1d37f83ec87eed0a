"""Spans, boundary counters and a counting event loop for the traced run.

The program under test carries no instrumentation.  For the duration of
one timed pass the traced run wraps public functions of each layer from
here and restores them afterwards (:func:`kernel_layers`,
:func:`live_layers`):

* a span records ``(id, name, start, end, parent id, request id)``; the
  parent comes from a ``contextvars`` variable, so spans in tasks that a
  wrapped coroutine spawns link to it, and a span whose call carries no
  request id inherits its parent's;
* counters record work done at the same boundaries (frames by type,
  bytes, WAL appends, snapshots);
* :class:`CountingLoop` counts the asyncio tasks, timers and selector
  wake-ups the live cluster costs.

Spans stay in memory until :meth:`Tracer.write` dumps them when the run
ends.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import gzip
import itertools
import json
import selectors
import time
import tracemalloc
from collections import Counter, defaultdict
from types import ModuleType, SimpleNamespace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

RidOf = Optional[Callable[[tuple], Any]]
Span = Tuple[int, str, float, float, int, Any]


class Tracer:
    """An in-memory span buffer plus boundary counters.

    Wrappers record only while :attr:`enabled` is set, so the timed
    window is exactly the interval the caller enables."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.enabled = False
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(0, None)
        )

    # -- recording ---------------------------------------------------------

    def _open(self, args: tuple, rid_of: RidOf):
        parent, inherited = self._current.get()
        rid = rid_of(args) if rid_of is not None else None
        if rid is None:
            rid = inherited
        span_id = next(self._ids)
        token = self._current.set((span_id, rid))
        return span_id, parent, rid, token

    def _close(self, span_id, name, start, parent, rid, token) -> None:
        end = time.perf_counter()
        self._current.reset(token)
        self.spans.append((span_id, name, start, end, parent, rid))

    def record(self, name: str, start: float, end: float, rid: Any = None) -> None:
        """Add a span timed by the caller, under the current parent."""
        parent, inherited = self._current.get()
        self.spans.append(
            (next(self._ids), name, start, end, parent,
             inherited if rid is None else rid)
        )

    def wrap(
        self,
        name: str,
        fn: Callable,
        rid_of: RidOf = None,
        count: Optional[str] = None,
    ) -> Callable:
        """A span-recording stand-in for ``fn`` (sync or coroutine)."""
        tracer = self
        if asyncio.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                span_id, parent, rid, token = tracer._open(args, rid_of)
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._close(span_id, name, start, parent, rid, token)
                    if count:
                        tracer.counts[count] += 1

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id, parent, rid, token = tracer._open(args, rid_of)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span_id, name, start, parent, rid, token)
                if count:
                    tracer.counts[count] += 1

        return traced

    # -- reporting ---------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds.

        Self time is a span's duration minus the part of its interval
        that its child spans cover (children clipped to the parent and
        merged, so overlapping children in concurrent tasks count once).
        """
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent:
                children[parent].append((start, end))
        result: Dict[str, Dict[str, float]] = {}
        for span_id, name, start, end, _, _ in self.spans:
            entry = result.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
            duration = end - start
            entry["count"] += 1
            entry["total"] += duration
            entry["self"] += duration - _covered(children.get(span_id, ()), start, end)
        return result

    def write(self, path: str) -> None:
        """Dump every span as gzip'd CSV, times relative to the first."""
        origin = min((span[2] for span in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("span_id,name,start_s,end_s,parent_id,rid\n")
            for span_id, name, start, end, parent, rid in self.spans:
                handle.write(
                    f"{span_id},{name},{start - origin:.9f},{end - origin:.9f},"
                    f"{parent},{'' if rid is None else rid}\n"
                )


def _covered(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


# -- patching ----------------------------------------------------------------


class Patches:
    """Attribute replacements undone, in reverse, when the block exits."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def replace_everywhere(
        self, modules: Iterable[ModuleType], original: Callable, value: Callable
    ) -> None:
        """Rebind every module-level name bound to ``original``: a
        function imported by name elsewhere is called through that
        name, so wrapping only its home module would miss the calls."""
        for module in modules:
            for name, bound in list(vars(module).items()):
                if bound is original:
                    self.replace(module, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


# -- the layer maps ----------------------------------------------------------


def kernel_layers(tracer: Tracer) -> Patches:
    """Wrap the kernel chain: workloads -> kernel.compile -> kernel.evaluate."""
    import repro.kernel as kernel_package
    from repro.kernel import compile as kernel_compile
    from repro.kernel import dispatch, evaluate
    from repro.workloads.uniform import UniformWorkload

    patches = Patches()
    modules = (kernel_package, kernel_compile, dispatch, evaluate)
    patches.replace(
        UniformWorkload,
        "generate",
        tracer.wrap("workloads.generate", vars(UniformWorkload)["generate"]),
    )
    for original, span in (
        (kernel_compile.compile_batch, "kernel.compile"),
        (evaluate.sa_request_costs, "kernel.evaluate_sa"),
        (evaluate.schedule_totals, "kernel.totals"),
    ):
        patches.replace_everywhere(modules, original, tracer.wrap(span, original))

    da_costs = evaluate.da_request_costs
    traced_da = tracer.wrap("kernel.evaluate_da", da_costs)

    def measured_da(*args, **kwargs):
        # tracemalloc sees numpy's buffers, so its peak is the
        # evaluator's working set (the (B, T, n) membership tensor).
        if not tracer.enabled:
            return da_costs(*args, **kwargs)
        tracemalloc.start()
        try:
            return traced_da(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            key = "kernel.evaluate_da_peak_bytes"
            tracer.counts[key] = max(tracer.counts[key], peak)

    patches.replace_everywhere(modules, da_costs, measured_da)
    return patches


def live_layers(tracer: Tracer) -> Patches:
    """Wrap the live chain: client -> codec -> transport -> node ->
    protocol -> durability / WAL."""
    from repro.cluster import durability, launcher, loadgen, node, protocol, rpc, transport
    from repro.storage import wal

    patches = Patches()
    rpc_modules = (rpc, node, loadgen, launcher, transport, durability)

    def request_id(index: int) -> RidOf:
        return lambda args: getattr(args[index], "request_id", None)

    patches.replace(
        loadgen.ClusterClient,
        "execute",
        tracer.wrap(
            "client.execute",
            vars(loadgen.ClusterClient)["execute"],
            rid_of=lambda args: args[3] if len(args) > 3 else None,
        ),
    )

    encode = rpc.encode_frame
    traced_encode = tracer.wrap(
        "rpc.encode", encode, rid_of=lambda args: args[0].get("rid")
    )

    def counted_encode(payload):
        data = traced_encode(payload)
        if tracer.enabled:
            tracer.counts["frames." + str(payload.get("type"))] += 1
            tracer.counts["frame_bytes"] += len(data)
        return data

    patches.replace_everywhere(rpc_modules, encode, counted_encode)

    loads = json.loads

    def traced_loads(text, *args, **kwargs):
        if not tracer.enabled:
            return loads(text, *args, **kwargs)
        start = time.perf_counter()
        value = loads(text, *args, **kwargs)
        end = time.perf_counter()
        rid = value.get("rid") if isinstance(value, dict) else None
        tracer.record("rpc.decode", start, end, rid=rid)
        return value

    # The codec decodes through its module-level `json`; a stand-in
    # namespace times `loads` without touching any other json user.
    patches.replace(
        rpc,
        "json",
        SimpleNamespace(
            dumps=json.dumps, loads=traced_loads, JSONDecodeError=json.JSONDecodeError
        ),
    )

    peer = transport.PeerTransport
    patches.replace(
        peer,
        "send_protocol",
        tracer.wrap("transport.send_protocol", vars(peer)["send_protocol"], request_id(1)),
    )
    patches.replace(
        peer,
        "send_done",
        tracer.wrap(
            "transport.send_done", vars(peer)["send_done"], lambda args: args[2]
        ),
    )
    patches.replace(
        node.NodeServer,
        "output_object",
        tracer.wrap("node.output_object", vars(node.NodeServer)["output_object"]),
    )
    for cls in (protocol.LiveStaticAllocation, protocol.LiveDynamicAllocation):
        for method, rid_of in (
            ("client_read", lambda args: args[1]),
            ("client_write", lambda args: args[1]),
            ("handle_message", request_id(1)),
        ):
            patches.replace(
                cls,
                method,
                tracer.wrap("protocol." + method, vars(cls)[method], rid_of),
            )

    append = vars(wal.WriteAheadLog)["append"]
    traced_append = tracer.wrap("wal.append", append)

    def counted_append(self, kind, payload=None):
        if not tracer.enabled:
            return append(self, kind, payload)
        before = self.size()
        record = traced_append(self, kind, payload)
        tracer.counts["wal.appends"] += 1
        tracer.counts["wal.bytes"] += self.size() - before
        return record

    patches.replace(wal.WriteAheadLog, "append", counted_append)
    patches.replace(
        durability.NodeDurability,
        "take_snapshot",
        tracer.wrap(
            "snapshot",
            vars(durability.NodeDurability)["take_snapshot"],
            count="snapshots",
        ),
    )
    return patches


# -- the counting event loop -------------------------------------------------


class CountingSelector(selectors.DefaultSelector):
    """Counts ``select`` calls that returned ready events (wake-ups)."""

    def __init__(self) -> None:
        super().__init__()
        self.counting = False
        self.wakeups = 0

    def select(self, timeout=None):
        ready = super().select(timeout)
        if ready and self.counting:
            self.wakeups += 1
        return ready


def _counting_task_factory(loop: "CountingLoop", coro, **kwargs):
    if loop.counting:
        loop.tasks += 1
    return asyncio.Task(coro, loop=loop, **kwargs)


class CountingLoop(asyncio.SelectorEventLoop):
    """A selector loop that counts created tasks, scheduled timers and
    selector wake-ups while :attr:`counting` is set."""

    def __init__(self) -> None:
        self._counting = False
        self.tasks = 0
        self.timers = 0
        self._selector_counter = CountingSelector()
        super().__init__(self._selector_counter)
        self.set_task_factory(_counting_task_factory)

    @property
    def counting(self) -> bool:
        return self._counting

    @counting.setter
    def counting(self, value: bool) -> None:
        self._counting = value
        self._selector_counter.counting = value

    def call_at(self, when, callback, *args, context=None):
        if self._counting:
            self.timers += 1
        return super().call_at(when, callback, *args, context=context)

    def counters(self) -> Dict[str, int]:
        return {
            "tasks": self.tasks,
            "timers": self.timers,
            "wakeups": self._selector_counter.wakeups,
        }
