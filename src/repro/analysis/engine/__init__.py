"""Analysis engine of the DPCP-p kernel: compiled coefficient tables and solvers.

The DPCP-p kernel compiles, once per task set, the interval-independent
coefficients its recurrences reuse (per-``(task, resource)`` request counts
and critical-section lengths, η parameters, priorities, dense per-resource
fold rows), then iterates monotone least fixed points over them:

* :mod:`.tables` — :class:`CompiledTaskset` / :class:`CompiledTask`, the
  task-static tables shared by DPCP-p-EP and -EN over the same task set
  (and across Algorithm 1's partition retries);
* :mod:`.solver` — the inline-scalar and batched-NumPy least-fixed-point
  solvers with the converged / diverged / no-convergence status semantics;
  :mod:`repro.analysis.rta` exposes the scalar one to the straight-line
  analyses.

The kernel builds its partition-dependent coefficients on these tables; see
:mod:`repro.analysis.dpcp_p.kernel`.  The SPIN and LPP baselines are
straight-line analyses and read the task set directly.
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

