"""repro — reproduction of "DPCP-p: A Distributed Locking Protocol for
Parallel Real-Time Tasks" (Yang et al., DAC 2020).

The package is organised as follows:

* :mod:`repro.model` — DAG tasks, shared resources, platforms, priorities.
* :mod:`repro.generation` — synthetic workload generation (Sec. VII-A).
* :mod:`repro.analysis` — DPCP-p (EP/EN) schedulability analysis plus the
  SPIN, LPP, and FED-FP baselines.
* :mod:`repro.sim` — discrete-event simulator of the DPCP-p runtime protocol.
* :mod:`repro.experiments` — the schedulability experiment harness:
  scenarios, sweeps, and the metrics behind the paper's Fig. 2 and
  Tables 2–3.
* :mod:`repro.campaign` — parallel, resumable scenario-grid campaigns with
  an on-disk checkpoint store and CLI (``python -m repro.campaign``).
* :mod:`repro.report` — stateless store aggregation and the
  zero-dependency figure/table renderers (``REPORT.md``, ``report.html``,
  per-scenario CSVs).
"""

from .analysis import (
    DpcpPEnTest,
    DpcpPEpTest,
    DpcpPTest,
    FedFpTest,
    LppTest,
    SchedulabilityResult,
    SchedulabilityTest,
    SpinTest,
    default_protocols,
)
from .generation import TaskSetGenerationConfig, generate_taskset
from .model import (
    DAG,
    DAGTask,
    PartitionedSystem,
    Platform,
    Resource,
    ResourceUsage,
    TaskSet,
    Vertex,
)

__version__ = "0.1.0"

__all__ = [
    "DpcpPEnTest",
    "DpcpPEpTest",
    "DpcpPTest",
    "FedFpTest",
    "LppTest",
    "SchedulabilityResult",
    "SchedulabilityTest",
    "SpinTest",
    "default_protocols",
    "TaskSetGenerationConfig",
    "generate_taskset",
    "DAG",
    "DAGTask",
    "PartitionedSystem",
    "Platform",
    "Resource",
    "ResourceUsage",
    "TaskSet",
    "Vertex",
    "__version__",
]
