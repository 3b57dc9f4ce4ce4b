"""Worst-case response-time bounds for DPCP-p (Sec. IV, Theorem 1 and Eq. (1)).

Two analysis variants are provided:

* **EP** (:func:`task_wcrt_ep`) enumerates the complete paths of the task and
  evaluates Theorem 1 for each path with its exact per-resource request
  counts :math:`N^\\lambda_{i,q}`.
* **EN** (:func:`task_wcrt_en`) reasons about the longest path only and
  treats the request counts as free variables, bounding every term by its
  worst admissible value (the approach of the prior work [6], [11]); this is
  sound for every path and therefore also serves as the fallback when path
  enumeration is truncated.

Two engines compute the bounds, selected by :func:`analyze_taskset`'s
``engine``:

* ``"kernel"`` (default) — the vectorized
  :class:`~repro.analysis.dpcp_p.kernel.DpcpPKernel`, which precomputes the
  interval-independent coefficients once per ``(taskset, partition)`` and
  batches all fixed points of a task into elementwise NumPy iterations.
* ``"reference"`` — the straight-line functions of this module
  (:func:`path_wcrt`, :func:`task_wcrt_ep`, :func:`task_wcrt_en`) built
  from :mod:`.context`, :mod:`.blocking` and :mod:`.interference`, kept as
  the correctness oracle the kernel is validated against.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Mapping, Optional

from ...model.dag import PathProfile
from ...model.task import DAGTask, TaskSet
from ...model.platform import PartitionedSystem
from ...obs.telemetry import active as _active_telemetry
from ..engine.solver import (
    DEFAULT_ENGINE,
    ENGINE_KERNEL,
    ENGINE_REFERENCE,
    check_engine as _check_engine,
)
from ..interfaces import TaskAnalysis
from ..paths import PathEnumerator, require_vertices
from ..rta import least_fixed_point
from .blocking import inter_task_blocking, intra_task_blocking, request_response_time
from .context import DpcpPContext
from .interference import (
    agent_interference,
    intra_task_interference,
    intra_task_interference_en,
)
from .kernel import DpcpPKernel

#: Analysis modes.
MODE_EP = "EP"
MODE_EN = "EN"


def _theorem1_fixed_point(
    ctx: DpcpPContext,
    task: DAGTask,
    length: float,
    n_lambda: Mapping[int, int],
    intra_interference: float,
    intra_blocking: float,
    request_windows: Mapping[int, float],
    divergence_bound: float,
) -> float:
    """Evaluate Theorem 1 for one (possibly abstract) path.

    ``r = L(λ) + B_i(r) + b_i + (I_intra + I_A(r)) / m_i``; the response-time
    dependent terms are the inter-task blocking (via ζ) and the agent
    interference (via η_j).  Returns ``math.inf`` when no fixed point exists
    below ``divergence_bound``.
    """
    cluster_size = ctx.cluster_size(task)

    def recurrence(response: float) -> float:
        blocking = inter_task_blocking(
            ctx, task, n_lambda, response, request_windows
        )
        agents = agent_interference(ctx, task, n_lambda, response)
        return (
            length
            + blocking
            + intra_blocking
            + (intra_interference + agents) / cluster_size
        )

    start = length + intra_blocking + intra_interference / cluster_size
    solution = least_fixed_point(recurrence, start, divergence_bound)
    return solution if solution is not None else math.inf


def path_wcrt(
    ctx: DpcpPContext,
    task: DAGTask,
    profile: PathProfile,
    divergence_bound: Optional[float] = None,
) -> float:
    """WCRT bound of one concrete path (EP building block).

    ``profile`` must carry its vertices, as :meth:`DAGTask.path_profile` and
    :meth:`PathEnumerator.walk` profiles do; a signature row of the DP's
    lazy view (``vertices=()``) raises ``ValueError``.
    """
    require_vertices(profile)
    if divergence_bound is None:
        divergence_bound = task.deadline
    n_lambda = profile.requests
    request_windows: Dict[int, float] = {}
    for rid, count in n_lambda.items():
        if count > 0 and ctx.taskset.is_global(rid):
            request_windows[rid] = request_response_time(
                ctx, task, rid, n_lambda, divergence_bound
            )
    intra_interf = intra_task_interference(ctx, task, profile)
    intra_block = intra_task_blocking(ctx, task, n_lambda)
    return _theorem1_fixed_point(
        ctx,
        task,
        profile.length,
        n_lambda,
        intra_interf,
        intra_block,
        request_windows,
        divergence_bound,
    )


def task_wcrt_en(
    ctx: DpcpPContext,
    task: DAGTask,
    divergence_bound: Optional[float] = None,
) -> float:
    """EN-style WCRT bound (request counts of the path as free variables).

    Every term of Theorem 1 is bounded by its worst admissible value over
    :math:`N^\\lambda_{i,q} \\in [0, N_{i,q}]`:

    * the path length by :math:`L^*_i`,
    * the per-request blocking multiplier by :math:`N_{i,q}` and the windows
      :math:`W_{i,q}` with the full intra-task request workload,
    * the intra-task blocking by :math:`(N_{i,q}-1) L_{i,q}` for local
      resources and the full request workload for co-located global ones,
    * the intra-task interference by :math:`C_i - L^*_i`, and
    * the own-agent interference by :math:`N_{i,q} L_{i,q}`.
    """
    if divergence_bound is None:
        divergence_bound = task.deadline
    # Path requests maximised: every request may lie on the path...
    n_lambda_full: Dict[int, int] = {
        rid: task.request_count(rid) for rid in task.used_resources()
    }
    # ...and, simultaneously, none of them may (for the terms that grow with
    # the off-path request count).  The decoupled bound uses whichever is
    # worse per term.
    n_lambda_empty: Dict[int, int] = {rid: 0 for rid in task.used_resources()}

    request_windows: Dict[int, float] = {}
    for rid in task.used_resources():
        if ctx.taskset.is_global(rid):
            request_windows[rid] = request_response_time(
                ctx, task, rid, n_lambda_empty, divergence_bound
            )

    intra_interf = intra_task_interference_en(task)

    # Intra-task blocking: local resources at N^λ = 1, globals at N^λ = 0 with
    # σ = 1 whenever the task uses any global resource on the processor.
    intra_block = 0.0
    for rid in ctx.taskset.local_resources():
        count = task.request_count(rid)
        if count >= 1:
            intra_block += (count - 1) * task.cs_length(rid)
    for processor in ctx.partition.platform.processors:
        resources = ctx.resources_on_processor(processor)
        if not resources:
            continue
        if any(task.request_count(rid) > 0 for rid in resources):
            intra_block += ctx.own_offpath_cs_workload(task, resources, n_lambda_empty)

    return _theorem1_fixed_point(
        ctx,
        task,
        task.critical_path_length,
        n_lambda_full,
        intra_interf,
        intra_block,
        request_windows,
        divergence_bound,
    )


def task_wcrt_ep(
    ctx: DpcpPContext,
    task: DAGTask,
    enumerator: PathEnumerator,
    divergence_bound: Optional[float] = None,
) -> float:
    """Eq. (1): the task WCRT bound as the maximum over its complete paths.

    When the enumeration is truncated the EN bound is used as a sound
    over-approximation of the missing paths.  That decision comes from
    :meth:`PathEnumerator.enumerate`, as in the kernel; the bounds are then
    taken over vertex-bearing profiles — the walk's
    (:meth:`PathEnumerator.walk`) when the enumeration is exhaustive, else
    the truncated enumeration's critical path — so this oracle keeps
    computing Lemma 5 from real vertex sets.
    """
    if divergence_bound is None:
        divergence_bound = task.deadline
    enumeration = enumerator.enumerate(task)
    profiles = (
        enumerator.walk(task).profiles if enumeration.exhaustive
        else enumeration.profiles
    )
    worst = 0.0
    for profile in profiles:
        worst = max(worst, path_wcrt(ctx, task, profile, divergence_bound))
        if math.isinf(worst):
            return worst
    if not enumeration.exhaustive:
        worst = max(worst, task_wcrt_en(ctx, task, divergence_bound))
    return worst


def analyze_taskset(
    taskset: TaskSet,
    partition: PartitionedSystem,
    mode: str = MODE_EP,
    enumerator: Optional[PathEnumerator] = None,
    divergence_factor: float = 1.0,
    engine: str = DEFAULT_ENGINE,
) -> Dict[int, TaskAnalysis]:
    """Analyse all tasks of a partitioned system under DPCP-p.

    Tasks are processed in decreasing priority order so that higher-priority
    response times feed the :math:`\\eta_j` bounds of lower-priority tasks;
    tasks whose bound is not yet available contribute with their deadline.
    Every task gets a bound, schedulable or not; Algorithm 1
    (:func:`.partition.partition_and_analyze`) instead stops each pass at
    the first deadline miss.

    Parameters
    ----------
    taskset, partition:
        The system under analysis.
    mode:
        ``"EP"`` (path enumeration) or ``"EN"`` (request-count enumeration).
    enumerator:
        Path enumerator to reuse across calls (EP mode only).
    divergence_factor:
        The fixed-point search is abandoned once the iterate exceeds
        ``divergence_factor * deadline``; values slightly above 1.0 report
        (finite) over-deadline bounds instead of ``inf``.
    engine:
        ``"kernel"`` (a :class:`DpcpPKernel`, default) or ``"reference"``
        (this module's straight-line oracle).
    """
    return {
        analysis.task_id: analysis
        for analysis in _iter_task_analyses(
            taskset, partition, mode, enumerator, divergence_factor, engine
        )
    }


def _iter_task_analyses(
    taskset: TaskSet,
    partition: PartitionedSystem,
    mode: str = MODE_EP,
    enumerator: Optional[PathEnumerator] = None,
    divergence_factor: float = 1.0,
    engine: str = DEFAULT_ENGINE,
) -> Iterator[TaskAnalysis]:
    """Yield each task's :class:`TaskAnalysis` in decreasing priority order.

    The parameters are :func:`analyze_taskset`'s.  A task's bound reads
    only the bounds yielded before it (later tasks contribute their
    deadline), so a caller may stop early without changing what it has
    already read.  Builds the kernel (or reference context) once, when
    iteration starts.
    """
    if mode not in (MODE_EP, MODE_EN):
        raise ValueError(f"unknown analysis mode {mode!r}")
    _check_engine(engine)
    enumerator = enumerator or PathEnumerator()
    kernel = ctx = None
    if engine == ENGINE_KERNEL:
        kernel = DpcpPKernel(taskset, partition)
        response_times: Dict[int, float] = {}
    else:
        ctx = DpcpPContext(taskset, partition)
        response_times = ctx.response_times
    tel = _active_telemetry()
    counters = tel.counters if tel is not None else None
    for task in taskset.by_priority(descending=True):
        bound = task.deadline * max(divergence_factor, 1.0)
        if kernel is not None:
            kernel.sync_response_times(response_times)
            if mode == MODE_EP:
                wcrt = kernel.task_wcrt_ep(task, enumerator.enumerate(task), bound)
            else:
                wcrt = kernel.task_wcrt_en(task, bound)
        elif mode == MODE_EP:
            wcrt = task_wcrt_ep(ctx, task, enumerator, bound)
        else:
            wcrt = task_wcrt_en(ctx, task, bound)
        if counters is not None:
            # Inline bump, as for ``partition.wfd_passes``: the method-call
            # API would be a visible slice of the telemetry budget here.
            counters["analysis.tasks"] = counters.get("analysis.tasks", 0) + 1
        response_times[task.task_id] = min(wcrt, task.deadline)
        yield TaskAnalysis(
            task_id=task.task_id,
            wcrt=wcrt,
            deadline=task.deadline,
            processors=partition.num_processors_of(task.task_id),
        )
