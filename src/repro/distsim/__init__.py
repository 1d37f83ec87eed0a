"""Discrete-event distributed-system substrate.

Runs SA, DA, quorum consensus and the fault-tolerant DA composition as
*real message-passing protocols* over a homogeneous point-to-point
network, counting control messages, data messages and I/O operations in
the same units the analytic model prices — so the simulator validates
the model and vice versa.
"""

from repro.distsim.bus import SharedBusNetwork
from repro.distsim.events import Event, EventQueue
from repro.distsim.failures import FailureInjector
from repro.distsim.messages import (
    DataTransfer,
    Invalidate,
    Message,
    MessageClass,
    ReadRequest,
    VersionInquiry,
    VersionReport,
)
from repro.distsim.network import Network
from repro.distsim.node import Node
from repro.distsim.protocols import (
    BaseStationDeployment,
    DynamicAllocationProtocol,
    FaultTolerantDAProtocol,
    ProtocolDriver,
    QuorumConsensusProtocol,
    SkiRentalProtocol,
    SnoopyCachingProtocol,
    StaticAllocationProtocol,
    WirelessBill,
)
from repro.distsim.runner import (
    RequestComparison,
    build_network,
    compare_with_model,
    make_protocol,
    mismatches,
    run_protocol,
)
from repro.distsim.simulator import Simulator
from repro.distsim.statistics import SimulationStats
from repro.distsim.tracing import MessageLog, TraceEntry

__all__ = [
    "BaseStationDeployment",
    "DataTransfer",
    "DynamicAllocationProtocol",
    "Event",
    "EventQueue",
    "FailureInjector",
    "FaultTolerantDAProtocol",
    "Invalidate",
    "Message",
    "MessageClass",
    "MessageLog",
    "TraceEntry",
    "Network",
    "Node",
    "ProtocolDriver",
    "QuorumConsensusProtocol",
    "ReadRequest",
    "RequestComparison",
    "SharedBusNetwork",
    "Simulator",
    "SkiRentalProtocol",
    "SnoopyCachingProtocol",
    "SimulationStats",
    "StaticAllocationProtocol",
    "VersionInquiry",
    "VersionReport",
    "WirelessBill",
    "build_network",
    "compare_with_model",
    "make_protocol",
    "mismatches",
    "run_protocol",
]
