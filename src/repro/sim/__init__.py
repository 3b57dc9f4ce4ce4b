"""Discrete-event simulation of the locking-protocol runtimes (DPCP-p, SPIN, LPP)."""

from .behaviors import (
    BehaviorError,
    Segment,
    VertexBehavior,
    behaviors_from_task,
    validate_behaviors,
)
from .paper_example import build_figure1_system, build_task_i, build_task_j
from .protocols import (
    RUNTIME_BEHAVIORS,
    DpcpPBehavior,
    LppBehavior,
    ProtocolBehavior,
    SpinBehavior,
    behavior_for,
)
from .simulator import (
    RuntimeSimulator,
    SimulationError,
    SimulationTruncated,
)
from .trace import ExecutionInterval, JobRecord, RequestRecord, SimulationTrace
from .validation import (
    InvariantMonitor,
    SimulationConfig,
    ValidationOutcome,
    capped_hyperperiod,
    validate_partition,
    validation_horizon,
)

__all__ = [
    "BehaviorError",
    "Segment",
    "VertexBehavior",
    "behaviors_from_task",
    "validate_behaviors",
    "build_figure1_system",
    "build_task_i",
    "build_task_j",
    "ProtocolBehavior",
    "DpcpPBehavior",
    "SpinBehavior",
    "LppBehavior",
    "RUNTIME_BEHAVIORS",
    "behavior_for",
    "RuntimeSimulator",
    "SimulationError",
    "SimulationTruncated",
    "ExecutionInterval",
    "JobRecord",
    "RequestRecord",
    "SimulationTrace",
    "InvariantMonitor",
    "SimulationConfig",
    "ValidationOutcome",
    "capped_hyperperiod",
    "validate_partition",
    "validation_horizon",
]
