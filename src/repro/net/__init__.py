"""Discrete-event network substrate for the distributed protocols."""

from repro.net.batch import BatchedCluster
from repro.net.cluster import Cluster
from repro.net.events import EventEngine
from repro.net.links import (
    ConstantLatency,
    LatencyModel,
    Link,
    LogNormalLatency,
    UniformLatency,
)
from repro.net.message import Message, scalar_payload_size
from repro.net.metrics import NetworkMetrics
from repro.net.node import Node
from repro.net.topology import Topology, connected_components

__all__ = [
    "BatchedCluster",
    "Cluster",
    "EventEngine",
    "Node",
    "Topology",
    "connected_components",
    "Message",
    "scalar_payload_size",
    "NetworkMetrics",
    "Link",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LogNormalLatency",
]
