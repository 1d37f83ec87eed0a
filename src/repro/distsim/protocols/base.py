"""Protocol driver scaffolding.

A *driver* executes a schedule of read-write requests over the
discrete-event network, one request at a time (the paper's schedules
totally order writes against everything; running each request to
quiescence realizes that order exactly).

The driver doubles as the message handler of every node.  Each request
gets a :class:`RequestContext` tracking the outstanding asynchronous
completions (local I/O, remote stores, invalidation deliveries); the
request's latency is the simulation time at which the counter reaches
zero.  Completion tracking is an *experimenter's oracle*: it adds no
messages, so the counted traffic equals what the protocol itself needs
— and can be compared against the analytic cost model unit for unit.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.distsim.messages import (
    DataTransfer,
    Invalidate,
    Message,
    ReadRequest,
    VersionInquiry,
    VersionReport,
)
from repro.distsim.network import Network
from repro.distsim.statistics import SimulationStats
from repro.exceptions import ProtocolError
from repro.model.request import Request
from repro.model.schedule import Schedule
from repro.storage.versions import ObjectVersion, VersionCounter
from repro.types import ProcessorId, ProcessorSet, processor_set


@dataclass
class RequestContext:
    """Bookkeeping for one in-flight request."""

    request_id: int
    request: Request
    start_time: float
    pending: int = 0
    done_time: Optional[float] = None
    #: For reads: the version the reader ended up with.
    version: Optional[ObjectVersion] = None

    def add_work(self, units: int = 1) -> None:
        if self.done_time is not None:
            raise ProtocolError(
                f"request {self.request_id} gained work after completing"
            )
        self.pending += units

    def finish_work(self, now: float, units: int = 1) -> None:
        self.pending -= units
        if self.pending < 0:
            raise ProtocolError(
                f"request {self.request_id} completed more work than started"
            )
        if self.pending == 0 and self.done_time is None:
            self.done_time = now


class ProtocolDriver(abc.ABC):
    """Base class for SA/DA/quorum drivers."""

    name: str = "abstract-protocol"

    def __init__(
        self,
        network: Network,
        initial_scheme: Iterable[ProcessorId],
    ) -> None:
        self.network = network
        self.simulator = network.simulator
        self.initial_scheme: ProcessorSet = processor_set(initial_scheme)
        if not self.initial_scheme:
            raise ProtocolError("the initial scheme is empty")
        missing = self.initial_scheme - set(network.node_ids)
        if missing:
            raise ProtocolError(f"scheme members without nodes: {sorted(missing)}")
        self.versions = VersionCounter(start=0)
        self._contexts: Dict[int, RequestContext] = {}
        self._next_request_id = 0
        for node_id in network.node_ids:
            network.node(node_id).attach_handler(self)
        network.drop_listener = self
        self._seed_initial_copies()
        network.reset_stats()

    # -- initialization -------------------------------------------------------

    def _seed_initial_copies(self) -> None:
        """Install version 0 at the initial scheme, uncharged."""
        version = self.versions.next_version(writer=min(self.initial_scheme))
        for node_id in sorted(self.initial_scheme):
            self.network.node(node_id).seed_copy(version)
        self._latest_version = version

    @property
    def latest_version(self) -> ObjectVersion:
        """The globally most recent version (the driver, as the
        experimenter's oracle, always knows it)."""
        return self._latest_version

    # -- request lifecycle -------------------------------------------------------

    def _new_context(self, request: Request) -> RequestContext:
        self._next_request_id += 1
        context = RequestContext(
            self._next_request_id, request, self.simulator.now
        )
        self._contexts[context.request_id] = context
        return context

    def context(self, request_id: int) -> RequestContext:
        if request_id not in self._contexts:
            raise ProtocolError(f"unknown request id {request_id}")
        return self._contexts[request_id]

    def execute(self, schedule: Schedule) -> SimulationStats:
        """Run the whole schedule to completion, one request at a time."""
        for request in schedule:
            self.execute_request(request)
        return self.network.stats

    def execute_request(self, request: Request) -> RequestContext:
        """Inject one request, run to quiescence, verify completion."""
        context = self._new_context(request)
        if request.is_read:
            self.start_read(context)
        else:
            new_version = self.versions.next_version(request.processor)
            self._latest_version = new_version
            self.start_write(context, new_version)
        self.simulator.run()
        if context.done_time is None:
            raise ProtocolError(
                f"request {context.request_id} ({request}) never completed"
            )
        if request.is_read:
            self._check_read_freshness(context)
        stats = self.network.stats
        stats.requests_completed += 1
        stats.latencies.append(context.done_time - context.start_time)
        return context

    def _check_read_freshness(self, context: RequestContext) -> None:
        """Every read must observe the latest version (paper §1.2: the
        concurrency-control mechanism orders requests so that each read
        accesses the most recent version)."""
        if context.version is None:
            raise ProtocolError(
                f"read {context.request_id} completed without a version"
            )
        if context.version.number != self._latest_version.number:
            raise ProtocolError(
                f"stale read: got v{context.version.number}, latest is "
                f"v{self._latest_version.number}"
            )

    # -- protocol specifics ---------------------------------------------------------

    @abc.abstractmethod
    def start_read(self, context: RequestContext) -> None:
        """Begin servicing a read request."""

    @abc.abstractmethod
    def start_write(
        self, context: RequestContext, version: ObjectVersion
    ) -> None:
        """Begin servicing a write request creating ``version``."""

    # -- message dispatch --------------------------------------------------------------

    def on_message(self, node, message: Message) -> None:
        """Dispatch a delivered message to the matching handler."""
        if isinstance(message, ReadRequest):
            self.handle_read_request(node, message)
        elif isinstance(message, DataTransfer):
            self.handle_data_transfer(node, message)
        elif isinstance(message, Invalidate):
            self.handle_invalidate(node, message)
        elif isinstance(message, VersionInquiry):
            self.handle_version_inquiry(node, message)
        elif isinstance(message, VersionReport):
            self.handle_version_report(node, message)
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unhandled message {message.describe()}")

    def on_dropped(self, message: Message) -> None:
        """A message addressed to a crashed node was lost.

        A lost store or invalidation resolves its work unit (the dead
        node's copy is moot: its volatile validity is wiped by the
        crash, and the missing-writes log — if the driver keeps one —
        records the gap).  A lost *request* would hang the issuing
        read, so plain protocols fail fast; the fault-tolerant driver
        switches modes before this can happen.
        """
        request_id = getattr(message, "request_id", 0)
        context = self._contexts.get(request_id)
        if isinstance(message, (DataTransfer, Invalidate)):
            if context is not None and context.done_time is None:
                context.finish_work(self.simulator.now)
            return
        raise ProtocolError(
            f"{message.describe()} was dropped; {self.name} cannot make "
            "progress with this node down"
        )

    # Default handlers raise: a protocol only accepts what it sends.

    def handle_read_request(self, node, message: ReadRequest) -> None:
        raise ProtocolError(f"{self.name} got unexpected {message.describe()}")

    def handle_data_transfer(self, node, message: DataTransfer) -> None:
        raise ProtocolError(f"{self.name} got unexpected {message.describe()}")

    def handle_invalidate(self, node, message: Invalidate) -> None:
        raise ProtocolError(f"{self.name} got unexpected {message.describe()}")

    def handle_version_inquiry(self, node, message: VersionInquiry) -> None:
        raise ProtocolError(f"{self.name} got unexpected {message.describe()}")

    def handle_version_report(self, node, message: VersionReport) -> None:
        raise ProtocolError(f"{self.name} got unexpected {message.describe()}")

    # -- shared building blocks ------------------------------------------------------------

    def local_read(self, context: RequestContext, node_id: ProcessorId) -> None:
        """Charge a local input and complete that work unit after the
        I/O latency."""
        node = self.network.node(node_id)
        version = node.input_object()
        context.add_work()
        self.network.perform_io(
            lambda: self._finish_local_read(context, version),
            label=f"read-io@{node_id}",
            node=node_id,
        )

    def _finish_local_read(
        self, context: RequestContext, version: ObjectVersion
    ) -> None:
        context.version = version
        context.finish_work(self.simulator.now)

    def local_write(
        self,
        context: RequestContext,
        node_id: ProcessorId,
        version: ObjectVersion,
    ) -> None:
        """Charge a local output and complete that work unit after the
        I/O latency."""
        node = self.network.node(node_id)
        node.output_object(version)
        context.add_work()
        self.network.perform_io(
            lambda: context.finish_work(self.simulator.now),
            label=f"write-io@{node_id}",
            node=node_id,
        )
