"""Schedulability analyses: DPCP-p (EP/EN) and the baseline protocols."""

from .dpcp_p import (
    DpcpPEnTest,
    DpcpPEpTest,
    DpcpPKernel,
    DpcpPTest,
    ENGINE_KERNEL,
    ENGINE_REFERENCE,
)
from .engine import CompiledTaskset, compile_taskset
from .fedfp import FedFpTest, federated_wcrt
from .interfaces import (
    SchedulabilityResult,
    SchedulabilityTest,
    TaskAnalysis,
    UNBOUNDED,
)
from .lpp import LppKernel, LppTest
from .paths import PathEnumerator, PathEnumerationResult
from .rta import (
    FixedPointNoConvergence,
    ceil_div_jobs,
    least_fixed_point,
)
from .spin import SpinKernel, SpinTest

def default_protocols():
    """Instantiate the protocol suite compared in the paper (Sec. VII-B).

    The suite (names, order, construction) is defined once, in
    :data:`repro.campaign.planner.PROTOCOL_FACTORIES`; the import is
    deferred because the campaign package builds on this one.
    """
    from ..campaign.executor import build_protocols
    from ..campaign.planner import KNOWN_PROTOCOLS

    return build_protocols(KNOWN_PROTOCOLS)


__all__ = [
    "CompiledTaskset",
    "compile_taskset",
    "DpcpPEnTest",
    "DpcpPEpTest",
    "DpcpPKernel",
    "DpcpPTest",
    "ENGINE_KERNEL",
    "ENGINE_REFERENCE",
    "LppKernel",
    "SpinKernel",
    "FedFpTest",
    "federated_wcrt",
    "SchedulabilityResult",
    "SchedulabilityTest",
    "TaskAnalysis",
    "UNBOUNDED",
    "LppTest",
    "PathEnumerator",
    "PathEnumerationResult",
    "ceil_div_jobs",
    "least_fixed_point",
    "FixedPointNoConvergence",
    "SpinTest",
    "default_protocols",
]
