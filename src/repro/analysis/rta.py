"""Fixed-point iteration helpers for response-time analysis.

The paper's WCRT bounds (Theorem 1 and Lemma 2) are least fixed points of
monotone recurrences ``x = f(x)``.  :func:`least_fixed_point` iterates such a
recurrence from a starting value until convergence, giving up when the
iterate exceeds a divergence bound (which the analyses interpret as
"unschedulable / no bound").

The solver itself lives in :mod:`repro.analysis.engine.solver` — one
implementation shared with the DPCP-p kernel — and this module keeps the
scalar API (plus :func:`ceil_div_jobs`) on top of it.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .engine.solver import (
    CONVERGED,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    DIVERGED,
    ETA_GUARD,
    NO_CONVERGENCE,
    FixedPointNoConvergence,
    solve_scalar,
    warn_no_convergence,
)

__all__ = [
    "CONVERGED",
    "DIVERGED",
    "NO_CONVERGENCE",
    "DEFAULT_MAX_ITERATIONS",
    "DEFAULT_TOLERANCE",
    "ETA_GUARD",
    "FixedPointNoConvergence",
    "ceil_div_jobs",
    "least_fixed_point",
]


def least_fixed_point(
    recurrence: Callable[[float], float],
    start: float,
    divergence_bound: float,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> Optional[float]:
    """Iterate ``x_{k+1} = recurrence(x_k)`` from ``start`` until convergence.

    Parameters
    ----------
    recurrence:
        A monotone function of the iterate.
    start:
        Initial value (typically the constant part of the recurrence).
    divergence_bound:
        If an iterate exceeds this value the search is abandoned and ``None``
        is returned.  Analyses pass the deadline (or a small multiple of it):
        any fixed point beyond it is irrelevant for schedulability.
    tolerance:
        Absolute convergence tolerance.
    max_iterations:
        Safety cap on the number of iterations.  Exhausting it (as opposed to
        diverging past the bound) emits a :class:`FixedPointNoConvergence`
        warning before ``None`` is returned.

    Returns
    -------
    float or None
        The least fixed point (up to ``tolerance``), or ``None`` if the
        iteration diverged past ``divergence_bound`` or failed to converge.
    """
    value, status = solve_scalar(
        recurrence, start, divergence_bound, tolerance, max_iterations
    )
    if status == NO_CONVERGENCE:
        warn_no_convergence(
            1, divergence_bound, stacklevel=3, max_iterations=max_iterations
        )
    return value


def ceil_div_jobs(interval: float, period: float, response_time: float) -> int:
    """Bound :math:`\\eta_j(L) = \\lceil (L + R_j) / T_j \\rceil` on released jobs.

    ``response_time`` is the carried-in response-time bound :math:`R_j`
    (use the deadline for tasks whose response time is not yet known).
    Negative or zero intervals still account for one carried-in job.
    """
    if period <= 0:
        raise ValueError("period must be positive")
    interval = max(interval, 0.0)
    return max(0, int(math.ceil((interval + response_time) / period - ETA_GUARD)))
