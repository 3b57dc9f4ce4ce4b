"""Least-fixed-point solvers of the DPCP-p kernel and the straight-line analyses.

The paper's WCRT bounds (Theorem 1, Lemma 2) and the baselines' blocking
windows are least fixed points of monotone recurrences ``x = f(x)``.  Two
execution strategies cover every call site:

* :func:`solve_scalar` — one recurrence at a time, with the status semantics
  (:data:`CONVERGED` / :data:`DIVERGED` / :data:`NO_CONVERGENCE`) that
  :mod:`repro.analysis.rta` exposes to the straight-line analyses and that
  the DPCP-p kernel uses directly;
* :func:`solve_batched` — a batch of independent fixed points iterated
  elementwise with NumPy, retiring entries as they converge or diverge.
  This is what makes wide-DAG EP analyses (thousands of path signatures)
  cheap.

Both share one set of convergence rules (defensive non-decrease clamp,
divergence bound, absolute tolerance, iteration cap), defined here.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Optional, Tuple

import numpy as np

from ...obs.telemetry import _SESSION as _telemetry_session
from ...obs.telemetry import active as _active_telemetry

#: Default absolute convergence tolerance, in microseconds.
DEFAULT_TOLERANCE = 1e-6

#: Default iteration cap; the recurrences used here converge in far fewer steps.
DEFAULT_MAX_ITERATIONS = 10_000

#: Guard subtracted inside the η ceiling so that exact multiples of the
#: period are not rounded up by floating-point noise.  Shared by
#: :func:`repro.analysis.rta.ceil_div_jobs`, the compiled tables'
#: η evaluation, and every inline η loop in the DPCP-p kernel.
ETA_GUARD = 1e-12

#: Status values returned by :func:`solve_scalar`.
CONVERGED = "converged"
DIVERGED = "diverged"
NO_CONVERGENCE = "no-convergence"

#: Analysis engines selectable on every schedulability test: the compiled
#: kernel (default) or the straight-line reference oracle it is validated
#: against.
ENGINE_KERNEL = "kernel"
ENGINE_REFERENCE = "reference"
DEFAULT_ENGINE = ENGINE_KERNEL


def check_engine(engine: str) -> None:
    """Reject engine names other than ``"kernel"`` / ``"reference"``."""
    if engine not in (ENGINE_KERNEL, ENGINE_REFERENCE):
        raise ValueError(f"unknown analysis engine {engine!r}")


class FixedPointNoConvergence(RuntimeWarning):
    """A fixed-point search hit its iteration cap without converging.

    Unlike divergence past the bound (a definitive "no relevant fixed point"
    answer), hitting the iteration cap means the search was inconclusive; the
    analyses still treat the task as unbounded, but the situation is surfaced
    as a warning so slowly-converging systems are not silently conflated with
    genuinely diverging ones.
    """


def warn_no_convergence(
    count: int,
    bound: float,
    stacklevel: int = 3,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> None:
    """Emit the :class:`FixedPointNoConvergence` warning for ``count`` entries."""
    warnings.warn(
        f"{count} fixed-point iteration(s) hit the cap of "
        f"{max_iterations} iterations without converging "
        f"(bound {bound}); treating as unbounded",
        FixedPointNoConvergence,
        stacklevel=stacklevel,
    )


def solve_scalar(
    recurrence: Callable[[float], float],
    start: float,
    divergence_bound: float,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> Tuple[Optional[float], str]:
    """Iterate ``x_{k+1} = recurrence(x_k)`` from ``start`` until convergence.

    Returns ``(value, status)`` where ``status`` is :data:`CONVERGED` (and
    ``value`` is the least fixed point), :data:`DIVERGED` (an iterate — or the
    start value — exceeded ``divergence_bound``, or the recurrence produced
    NaN), or :data:`NO_CONVERGENCE` (``max_iterations`` exhausted without
    meeting the tolerance).  ``value`` is ``None`` for both failure statuses.

    When a :mod:`repro.obs.telemetry` session is active, each call adds its
    outcome and iteration count to the ``solver.scalar.*`` counters and the
    ``solver.iterations`` histogram; with no session the cost is one
    thread-local read per call.
    """
    value, status, iterations = _solve_scalar(
        recurrence, start, divergence_bound, tolerance, max_iterations
    )
    # This runs O(100) times per schedulability test, so the recording cost
    # must stay near the ≤2% overhead budget's noise floor: one read of the
    # session hook (the active bundle's preloaded ``list.append``) and one
    # GC-invisible encoded int, tallied lazily by ScalarSolves.fold_into.
    append = _telemetry_session.solve_append
    if append is not None:
        if status is CONVERGED:
            append(iterations << 2)
        elif status is DIVERGED:
            append(iterations << 2 | 1)
        else:
            append(iterations << 2 | 2)
    return value, status


def _solve_scalar(
    recurrence: Callable[[float], float],
    start: float,
    divergence_bound: float,
    tolerance: float,
    max_iterations: int,
) -> Tuple[Optional[float], str, int]:
    """:func:`solve_scalar` core; additionally returns the iteration count."""
    if math.isinf(start) or math.isnan(start):
        return None, DIVERGED, 0
    current = float(start)
    if current > divergence_bound:
        return None, DIVERGED, 0
    for iteration in range(1, max_iterations + 1):
        nxt = float(recurrence(current))
        if math.isnan(nxt):
            return None, DIVERGED, iteration
        if nxt < current - tolerance:
            # A monotone recurrence should never decrease; clamp defensively
            # so that rounding noise cannot cause oscillation.
            nxt = current
        if nxt > divergence_bound:
            return None, DIVERGED, iteration
        if abs(nxt - current) <= tolerance:
            return nxt, CONVERGED, iteration
        current = nxt
    return None, NO_CONVERGENCE, max_iterations


def solve_batched(
    start: np.ndarray,
    step: Callable[[np.ndarray, np.ndarray], np.ndarray],
    bound: float,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> np.ndarray:
    """Solve a batch of independent monotone fixed points elementwise.

    ``step(values, indices)`` must return the recurrence applied to the
    still-active entries (``indices`` into the original batch).  ``bound``
    is the divergence bound shared by the whole batch.  Entries that
    diverge past it (or start beyond it, or produce NaN) resolve to
    ``inf`` — the scalar solver's reading of a ``None`` fixed point.  Entries still active after
    the iteration cap resolve to ``inf`` as well, with a
    :class:`FixedPointNoConvergence` warning.

    Per entry, the iteration is semantically identical to
    :func:`solve_scalar`: same defensive non-decrease clamp, divergence
    check, and absolute convergence tolerance, applied in the same order.

    When a :mod:`repro.obs.telemetry` session is active, each call adds its
    entry/outcome/round tallies to the ``solver.batched.*`` counters.
    """
    tel = _active_telemetry()
    start = np.asarray(start, dtype=float)
    out = np.full(start.shape, math.inf)
    bound = float(bound)
    active = np.isfinite(start) & (start <= bound)
    idx = np.flatnonzero(active)
    if tel is not None:
        tel.count("solver.batched.calls")
        tel.count("solver.batched.entries", int(start.size))
        tel.count("solver.batched.diverged", int(start.size - idx.size))
    if idx.size == 0:
        return out
    cur = start[idx].astype(float)
    rounds = 0
    for _ in range(max_iterations):
        rounds += 1
        nxt = np.asarray(step(cur, idx), dtype=float)
        if np.isnan(nxt).any():
            nxt = np.where(np.isnan(nxt), math.inf, nxt)
        # A monotone recurrence should never decrease; clamp defensively
        # so that rounding noise cannot cause oscillation.
        low = nxt < cur - tolerance
        if low.any():
            nxt = np.where(low, cur, nxt)
        diverged = nxt > bound
        converged = ~diverged & (np.abs(nxt - cur) <= tolerance)
        done = diverged | converged
        if done.any():
            out[idx[converged]] = nxt[converged]
            if tel is not None:
                tel.count("solver.batched.converged", int(converged.sum()))
                tel.count("solver.batched.diverged", int(diverged.sum()))
            keep = ~done
            idx = idx[keep]
            cur = nxt[keep]
            if idx.size == 0:
                if tel is not None:
                    tel.count("solver.batched.rounds", rounds)
                return out
        else:
            cur = nxt
    if tel is not None:
        tel.count("solver.batched.rounds", rounds)
        tel.count("solver.batched.no_convergence", int(idx.size))
    warn_no_convergence(
        idx.size, bound, stacklevel=4, max_iterations=max_iterations
    )
    return out
