"""Protocol-agnostic analysis engine: compiled coefficient tables and solvers.

The WCRT analyses of every protocol in this library share the same
computational skeleton: compile, once per task set, the interval-independent
coefficients their recurrences reuse (per-``(task, resource)`` request counts
and critical-section lengths, η parameters, priority masks, sparse
``(task, weight)`` workload columns), then iterate monotone least fixed
points over them.  PR 2 built that machinery inside the DPCP-p kernel; this
package promotes it into a reusable layer:

* :mod:`.tables` — :class:`CompiledTaskset` / :class:`CompiledTask`, the
  protocol-agnostic static arrays plus the sparse column layout, shared
  across all protocols analysing the same task set (and across federated
  top-up retries, where only a cluster size changes);
* :mod:`.solver` — the inline-scalar and batched-NumPy least-fixed-point
  solvers with the converged / diverged / no-convergence status semantics
  that :mod:`repro.analysis.rta` and the DPCP-p kernel previously each
  implemented on their own.

Protocol-specific *lanes* (the DPCP-p kernel's partition-dependent
coefficients, the SPIN/LPP baselines' per-task columns) build on these
tables; see :mod:`repro.analysis.dpcp_p.kernel`, :mod:`repro.analysis.spin`,
and :mod:`repro.analysis.lpp`.
"""

from .solver import (
    CONVERGED,
    DEFAULT_ENGINE,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    DIVERGED,
    ENGINE_KERNEL,
    ENGINE_REFERENCE,
    ETA_GUARD,
    FixedPointNoConvergence,
    NO_CONVERGENCE,
    check_engine,
    solve_batched,
    solve_scalar,
    warn_no_convergence,
)
from .tables import CompiledTask, CompiledTaskset, compile_taskset

__all__ = [
    "CompiledTask",
    "CompiledTaskset",
    "compile_taskset",
    "CONVERGED",
    "DIVERGED",
    "NO_CONVERGENCE",
    "DEFAULT_ENGINE",
    "DEFAULT_MAX_ITERATIONS",
    "DEFAULT_TOLERANCE",
    "ENGINE_KERNEL",
    "ENGINE_REFERENCE",
    "ETA_GUARD",
    "FixedPointNoConvergence",
    "check_engine",
    "solve_batched",
    "solve_scalar",
    "warn_no_convergence",
]

