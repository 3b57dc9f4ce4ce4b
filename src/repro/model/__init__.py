"""Task, resource, and platform models for the DPCP-p reproduction."""

from .dag import DAG, DAGError, Edge, PathProfile
from .platform import (
    Cluster,
    PartitionedSystem,
    Platform,
    PlatformError,
    minimal_federated_clusters,
)
from .priorities import (
    assign_rate_monotonic,
    rate_monotonic,
)
from .resources import Resource, ResourceError, ResourceUsage, classify_resources
from .task import DAGTask, TaskError, TaskSet, Vertex, validate_taskset

__all__ = [
    "DAG",
    "DAGError",
    "Edge",
    "PathProfile",
    "Cluster",
    "PartitionedSystem",
    "Platform",
    "PlatformError",
    "minimal_federated_clusters",
    "assign_rate_monotonic",
    "rate_monotonic",
    "Resource",
    "ResourceError",
    "ResourceUsage",
    "classify_resources",
    "DAGTask",
    "TaskError",
    "TaskSet",
    "Vertex",
    "validate_taskset",
]
