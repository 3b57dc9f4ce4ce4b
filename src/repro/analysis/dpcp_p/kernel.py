"""Vectorized analysis kernel for the DPCP-p WCRT bounds.

The straight-line analysis (:mod:`.context`, :mod:`.blocking`,
:mod:`.interference`, retained as the reference oracle) re-walks pure-Python
loops over tasks × processors × resources on *every* fixed-point iteration of
Theorem 1 and Lemma 2.  This module compiles, once per
``(taskset, partition)``, the interval-independent coefficients those
recurrences reuse:

* ``W[j, k]`` — request workload :math:`\\sum_{\\ell_u \\in \\Phi(\\wp_k)}
  N_{j,u} L_{j,u}` of task :math:`\\tau_j` on processor :math:`\\wp_k`.  With
  the released-job vector :math:`\\eta(L)`, Eq. (2)'s :math:`\\gamma` and the
  :math:`\\zeta` / agent-interference workloads all reduce to one masked
  dot product per fixed-point iteration instead of nested loops.
* ``beta[i, k]`` — Lemma 2's longest lower-priority blocking critical
  section, which depends only on the requesting task's priority and the
  hosting processor.

The task-static data (request vectors, per-vertex non-critical WCETs,
critical path lengths, η parameters) and the fixed-point solvers are **not**
DPCP-p specific: they live in the protocol-agnostic
:mod:`repro.analysis.engine` layer (:class:`~repro.analysis.engine.tables.CompiledTaskset`
/ :func:`~repro.analysis.engine.solver.solve_batched` /
:func:`~repro.analysis.engine.solver.solve_scalar`), shared by DPCP-p-EP and
-EN over the same task set; the solvers also back the straight-line analyses.
This module adds only the partition-dependent coefficients (per-task
:class:`_TaskLane` slices) and the DPCP-p lemma structure on top.
:class:`DpcpPKernel` fetches those shared tables with :func:`compile_taskset`
itself, and :func:`.wcrt.analyze_taskset` (``engine="kernel"``) builds one
kernel per partition outcome and calls it directly; the reference
functions of :mod:`.wcrt` never reach it.

**EP input.**  The EP bound reads a task's enumeration as arrays
(:class:`~repro.analysis.paths.PathEnumerationResult`: path lengths, the
on-path request-count matrix and the on-path non-critical WCET per
signature); no per-profile objects are touched.  Everything that does not
depend on the partition — the lengths, the global/local count columns,
Lemma 4's local-resource blocking and Lemma 5's intra-task interference —
is assembled once per ``(task, enumeration)`` into an :class:`_EpColumns`
and cached in the shared tables' protocol cache, so every Algorithm 1
retry only adds the partition-dependent terms (off-path workload per
processor, σ, Lemma 2 windows, ε).

Two execution strategies share the coefficients:

* a **batched NumPy path** that solves Lemma 2 for every
  ``(signature, resource)`` pair of a task simultaneously and Theorem 1
  for every signature simultaneously, iterating only the entries that
  have neither converged nor diverged — this is what makes wide-DAG EP
  analyses (thousands of path signatures) cheap; and
* a **scalar path** over the same precomputed coefficient tables (plain
  Python floats, sparse ``(task, weight)`` columns) for small batches, where
  NumPy dispatch overhead would dominate: the EN analysis and tasks with few
  path signatures.

**Diverging bounds are decided before their windows.**  Every Theorem-1
step is ``fixed + blocking + agents / m_i`` with a window-free ``fixed``
and non-negative blocking and agent terms, and both solvers test
divergence before convergence.  So before any Lemma-2 window is solved,
a task bound is ``inf`` when some row starts non-finite or above the
bound, or has ``fixed`` above it (test 1: batched EP, every scalar EP
row, EN), or when the batched solve's own first step, with ε at its
window-free floor :math:`N^\\lambda \\beta`, already exceeds it (test 2:
batched EP).  Both tests are exact, so every bound is bit-identical to a
full solve (DESIGN.md, "A diverging bound is decided before its
windows").  The window-free parts and test 2's η/ζ arrays are computed
once and reused by the solve.

**A failing EP bound is decided from its critical path.**  Any one path's
bound is a lower bound on Eq. (1)'s maximum, and the enumeration's row of
the critical path's request code dominates that path's row.  So before a
task is enumerated for the first time,
:meth:`DpcpPKernel.critical_path_diverges` runs both tests on the critical
path alone (scalar, η at ``start``), less a rounding margin of
:data:`PROBE_MARGIN` times the bound; when they fire, the task's bound is
``inf`` and it is never enumerated (DESIGN.md, "A failing EP bound is
decided from its critical path").

Per-signature bounds match the reference implementation up to
floating-point summation order (observed well below 1e-12 relative on
randomized systems).  The kernel assumes (like the reference analysis) that
enumerations passed to it were derived from the task itself, i.e. their
request counts only cover resources the task uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ...model.dag import PathProfile
from ...model.platform import PartitionedSystem
from ...model.task import DAGTask, TaskSet
from ...obs.telemetry import active as _active_telemetry
from ..engine.solver import (
    ETA_GUARD,
    NO_CONVERGENCE,
    solve_batched,
    solve_scalar,
    warn_no_convergence,
)
from ..engine.tables import CompiledTask, compile_taskset
from ..paths import PathEnumerationResult, require_vertices

#: Enumerations with at least this many signatures use the batched NumPy
#: fixed-point solver; smaller ones use the scalar path over the same
#: coefficients.
BATCH_CUTOFF = 48

#: Relative margin of the critical-path probe: it decides a task only when
#: its step exceeds the bound by more than ``PROBE_MARGIN * bound``, which
#: covers the rounding that separates the probe from the enumeration's row
#: (DESIGN.md, "A failing EP bound is decided from its critical path").
PROBE_MARGIN = 1e-9

_ceil = math.ceil
_inf = math.inf


@dataclass
class _TaskLane:
    """Per-task kernel slice: static tables plus partition-dependent coefficients."""

    index: int
    static: CompiledTask
    m_i: float
    cluster_proc_list: List[int]
    w_cluster_list: List[float]    # per-task request workload on this cluster
    g_proc_list: List[int]         # hosting processor per used global resource
    beta_list: List[float]         # beta[i, proc(q)]
    use_procs: List[int]           # distinct processors hosting resources the task uses
    cluster_use_procs: List[int]   # use_procs inside the task's own cluster
    full_off: Dict[int, float]     # per-processor own workload with an empty path
    # Scalar coefficient tables: sparse (task index, weight) columns.
    hp_cols: Dict[int, List[Tuple[int, float]]]     # per used proc: higher-prio W column
    other_cols: Dict[int, List[Tuple[int, float]]]  # per used proc: other-task W column
    wcl_col: List[Tuple[int, float]]                # other-task cluster workload
    g_by_proc: Dict[int, List[Tuple[int, float, float]]]  # per proc: (g, N, L)
    # NumPy views, materialized lazily by the batched path only.
    hp: Optional[np.ndarray] = field(repr=False, default=None)
    other: Optional[np.ndarray] = field(repr=False, default=None)
    w_cluster: Optional[np.ndarray] = field(repr=False, default=None)
    cluster_procs: Optional[np.ndarray] = field(repr=False, default=None)
    g_proc: Optional[np.ndarray] = field(repr=False, default=None)
    beta_arr: Optional[np.ndarray] = field(repr=False, default=None)


#: Scalar-path row: ``(length, on-path counts per used global resource,
#: Lemma 4 local-resource blocking, Lemma 5 intra-task interference)``.
_Row = Tuple[float, List[int], float, float]

#: A scalar row's window-free parts: ``(own off-path work per used
#: processor, Theorem 1's start, Theorem 1's fixed term)``.
_RowTerms = Tuple[Dict[int, float], float, float]


def _theorem1_terms(length, intra_block, intra_interf, own_off_cluster, m_i):
    """Theorem 1's window-free terms ``(start, fixed)`` (floats or row arrays).

    Every step of the iteration is ``fixed + blocking + agents / m_i`` with
    non-negative blocking and agent terms, so no iterate after ``start``
    falls below ``fixed``.
    """
    fixed = length + intra_block + (intra_interf + own_off_cluster) / m_i
    start = length + intra_block + intra_interf / m_i
    return start, fixed


def _theorem1_step(fixed, eps_active, zeta, agents, m_i, idx):
    """One batched Theorem-1 step on rows ``idx``: ``fixed + Σ min(ε, ζ) + agents/m_i``.

    The solve and the early test 2 both evaluate their step here, so they
    round identically.
    """
    return fixed[idx] + np.minimum(eps_active[idx], zeta).sum(axis=1) + agents / m_i


def _diverges_at_start(start: float, fixed: float, bound: float) -> bool:
    """Test 1: must Theorem 1's iteration from ``start`` pass ``bound``?

    True when ``start`` is non-finite or above ``bound``, which both solvers
    resolve to ``inf``, or when ``fixed > bound``: the first step is at
    least ``fixed``, and both solvers test divergence (strict ``>``) before
    convergence.  For a batch, pass the row maxima: NaN and ``inf``
    propagate through ``max``.
    """
    return not math.isfinite(start) or start > bound or fixed > bound


def _bump(counters: Optional[Dict[str, int]], counter: str) -> None:
    """Add one to ``counter`` on a telemetry counter dict (``None``: no session)."""
    if counters is not None:
        counters[counter] = counters.get(counter, 0) + 1


@dataclass
class _EpColumns:
    """Partition-independent EP inputs of one task, built once per enumeration.

    Algorithm 1's retries re-partition the task set but never change a
    task's enumeration, so one instance serves every retry.  Tasks with
    fewer than :data:`BATCH_CUTOFF` signatures get scalar ``rows``; wider
    ones get the NumPy columns of the batched path.
    """

    enumeration: PathEnumerationResult
    rows: Optional[List[_Row]] = None
    # Batched columns over the task's global resources (P, G) and rows (P,).
    n_g: Optional[np.ndarray] = field(repr=False, default=None)    # on-path counts
    req_g: Optional[np.ndarray] = field(repr=False, default=None)  # n_g > 0
    off_g: Optional[np.ndarray] = field(repr=False, default=None)  # own off-path work
    local_block: Optional[np.ndarray] = field(repr=False, default=None)   # Lemma 4
    intra_interf: Optional[np.ndarray] = field(repr=False, default=None)  # Lemma 5


def _scalar_row(
    static: CompiledTask,
    length: float,
    n_g: List[int],
    n_l: List[int],
    onpath_noncrit: float,
) -> _Row:
    """One scalar-path row: Lemma 4's local blocking and Lemma 5's interference."""
    local_block = 0.0
    local_offpath = 0.0
    for n_path, count, cs in zip(n_l, static.l_N, static.l_L):
        if n_path > 0:
            local_block += (count - n_path) * cs
        gap = count - n_path
        if gap > 0:
            local_offpath += gap * cs
    intra_interf = (static.total_noncrit - onpath_noncrit) + local_offpath
    return (length, n_g, local_block, intra_interf)


def _path_row(static: CompiledTask, profile: PathProfile) -> _Row:
    """The scalar-path row of one vertex-bearing path."""
    requests = profile.requests
    noncrit = static.noncrit
    onpath = 0.0
    for v in profile.vertices:
        onpath += noncrit[v]
    return _scalar_row(
        static,
        profile.length,
        [requests.get(rid, 0) for rid in static.ugr],
        [requests.get(rid, 0) for rid in static.lres],
        onpath,
    )


def _build_ep_columns(
    static: CompiledTask, enumeration: PathEnumerationResult
) -> _EpColumns:
    """Assemble the partition-independent EP columns of one enumeration."""
    column_of = {rid: j for j, rid in enumerate(enumeration.resource_ids)}
    g_cols = [column_of.get(rid) for rid in static.ugr]
    l_cols = [column_of.get(rid) for rid in static.lres]
    counts = enumeration.counts
    P = len(enumeration.lengths)
    if P < BATCH_CUTOFF:
        rows = []
        for length, row, onpath in zip(
            enumeration.lengths.tolist(),
            counts.tolist(),
            enumeration.onpath_noncrit.tolist(),
        ):
            rows.append(_scalar_row(
                static,
                length,
                [0 if c is None else row[c] for c in g_cols],
                [0 if c is None else row[c] for c in l_cols],
                onpath,
            ))
        return _EpColumns(enumeration=enumeration, rows=rows)

    static.ensure_arrays()

    def gather(cols: List[Optional[int]]) -> np.ndarray:
        out = np.zeros((P, len(cols)))
        for j, c in enumerate(cols):
            if c is not None:
                out[:, j] = counts[:, c]
        return out

    n_g = gather(g_cols)
    n_l = gather(l_cols)
    off_g = np.maximum(static.g_N_arr[None, :] - n_g, 0.0) * static.g_L_arr[None, :]
    if l_cols:
        local_block = (
            (static.l_N_arr[None, :] - n_l) * static.l_L_arr[None, :] * (n_l > 0)
        ).sum(axis=1)
        local_offpath = (
            np.maximum(static.l_N_arr[None, :] - n_l, 0.0) * static.l_L_arr[None, :]
        ).sum(axis=1)
    else:
        local_block = np.zeros(P)
        local_offpath = np.zeros(P)
    return _EpColumns(
        enumeration=enumeration,
        n_g=n_g,
        req_g=n_g > 0,
        off_g=off_g,
        local_block=local_block,
        intra_interf=(static.total_noncrit - enumeration.onpath_noncrit)
        + local_offpath,
    )


class DpcpPKernel:
    """Precomputed DPCP-p analysis coefficients for one (taskset, partition).

    Build once per partition outcome, then call :meth:`task_wcrt_ep` /
    :meth:`task_wcrt_en` per task after :meth:`sync_response_times` with
    the carried-in bounds, as :func:`.wcrt.analyze_taskset` does.  The
    task-static tables come from :func:`compile_taskset`, whose per-task-set
    memo shares them across Algorithm 1's retries.
    """

    def __init__(self, taskset: TaskSet, partition: PartitionedSystem) -> None:
        self.taskset = taskset
        self.partition = partition
        tables = compile_taskset(taskset)
        self.tables = tables
        self._tasks = tables.tasks
        self._index = tables.index
        self._periods_list = tables.periods_list
        self._prios = tables.prios
        self._prios_list = tables.prios_list
        # The carried-in η bounds live in the shared tables (synced in place,
        # so these references stay valid); reset them to the deadlines so a
        # freshly built kernel behaves like one built from scratch.
        tables.sync_response_times({})
        self._carried_list = tables.carried_list
        # The kernel.* counters go to the session active at construction
        # (one work unit's): a dict bump per task bound, no session lookup.
        tel = _active_telemetry()
        self._counters = tel.counters if tel is not None else None

        n = len(self._tasks)
        m = partition.platform.num_processors
        self._num_procs = m

        # Per-processor request-workload coefficients and beta values,
        # folded one resource column at a time.  Bit-identity with the
        # per-cell Python loop this replaces: within one resource every task
        # index appears once (no accumulation-order ambiguity inside the
        # fancy-indexed add), resources fold in assignment order as before,
        # and beta is a running maximum — order-independent by construction.
        assignment = partition.resource_assignment
        count = len(assignment)
        procs = np.empty(count, dtype=np.intp)
        work_rows = np.empty((count, n))
        beta_rows = np.empty((count, n))
        for row, (rid, proc) in enumerate(assignment.items()):
            work_row, beta_row = tables.fold_rows(rid)
            procs[row] = proc
            work_rows[row] = work_row
            beta_rows[row] = beta_row
        W_t = np.zeros((m, n))
        np.add.at(W_t, procs, work_rows)
        beta_t = np.zeros((m, n))
        np.maximum.at(beta_t, procs, beta_rows)
        W = np.ascontiguousarray(W_t.T)
        beta = beta_t.T
        self._W_list = W.tolist()
        self._beta_list = beta.tolist()
        self._active_proc_list = sorted(
            {proc for proc in partition.resource_assignment.values()}
        )
        self._lanes: Dict[int, _TaskLane] = {}
        self._ep_cache: Dict[int, _EpColumns] = tables.protocol_cache.setdefault(
            "dpcp_p.ep", {}
        )
        self._probe_rows: Dict[int, _Row] = tables.protocol_cache.setdefault(
            "dpcp_p.probe", {}
        )
        # NumPy coefficient views; the active-processor slice is cut lazily
        # by the batched path.
        self._W_np: np.ndarray = W
        self._W_active: Optional[np.ndarray] = None
        self._active_procs: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Carried-in response times (the only mutable analysis state)
    # ------------------------------------------------------------------ #
    def sync_response_times(self, response_times) -> None:
        """Refresh the carried-in :math:`R_j` bounds used inside η_j."""
        self.tables.sync_response_times(response_times)

    # ------------------------------------------------------------------ #
    # Per-task lanes
    # ------------------------------------------------------------------ #
    def _lane(self, task: DAGTask) -> _TaskLane:
        lane = self._lanes.get(task.task_id)
        if lane is not None:
            return lane
        static = self.tables.table(task)
        i = self._index[task.task_id]
        n = len(self._tasks)
        W = self._W_list
        prios = self._prios_list
        prio_i = prios[i]
        cluster_proc_list = self.partition.processors_of(task.task_id)
        w_cluster_list = [
            sum(W[j][k] for k in cluster_proc_list) for j in range(n)
        ]
        assignment = self.partition.resource_assignment
        g_proc_list = [assignment[r] for r in static.ugr]
        use_procs = sorted(set(g_proc_list))
        cluster_set = set(cluster_proc_list)
        beta_row = self._beta_list[i]
        hp_cols = {
            k: [(j, W[j][k]) for j in range(n) if prios[j] > prio_i and W[j][k] != 0.0]
            for k in use_procs
        }
        other_cols = {
            k: [(j, W[j][k]) for j in range(n) if j != i and W[j][k] != 0.0]
            for k in use_procs
        }
        wcl_col = [
            (j, w_cluster_list[j])
            for j in range(n)
            if j != i and w_cluster_list[j] != 0.0
        ]
        g_by_proc: Dict[int, List[Tuple[int, float, float]]] = {k: [] for k in use_procs}
        full_off = {k: 0.0 for k in use_procs}
        for g, (count, cs, k) in enumerate(zip(static.g_N, static.g_L, g_proc_list)):
            g_by_proc[k].append((g, count, cs))
            full_off[k] += count * cs
        lane = _TaskLane(
            index=i,
            static=static,
            m_i=float(len(cluster_proc_list)),
            cluster_proc_list=cluster_proc_list,
            w_cluster_list=w_cluster_list,
            g_proc_list=g_proc_list,
            beta_list=[beta_row[k] for k in g_proc_list],
            use_procs=use_procs,
            cluster_use_procs=[k for k in use_procs if k in cluster_set],
            full_off=full_off,
            hp_cols=hp_cols,
            other_cols=other_cols,
            wcl_col=wcl_col,
            g_by_proc=g_by_proc,
        )
        self._lanes[task.task_id] = lane
        return lane

    def _ensure_batched_arrays(self, lane: _TaskLane) -> None:
        """Materialize the NumPy views the batched path needs."""
        if self._W_active is None:
            self._active_procs = np.array(self._active_proc_list, dtype=np.intp)
            self._W_active = np.ascontiguousarray(self._W_np[:, self._active_procs])
        if lane.hp is None:
            n = len(self._tasks)
            lane.hp = (self._prios > self._prios[lane.index]).astype(float)
            lane.other = (np.arange(n) != lane.index).astype(float)
            lane.w_cluster = np.array(lane.w_cluster_list)
            lane.cluster_procs = np.array(lane.cluster_proc_list, dtype=np.intp)
            lane.g_proc = np.array(lane.g_proc_list, dtype=np.intp)
            lane.beta_arr = np.array(lane.beta_list)
        lane.static.ensure_arrays()

    # ------------------------------------------------------------------ #
    # Scalar path (small batches: EN, and tasks with few path signatures)
    # ------------------------------------------------------------------ #
    # Fixed points are delegated to engine.solver.solve_scalar; the closures
    # below only evaluate the recurrences over the sparse coefficient columns.

    def _window_scalar(
        self, lane: _TaskLane, const: float, proc: int, bound: float
    ) -> float:
        """Lemma 2's W = const + γ(W); returns γ at the solved window.

        Only γ(window) is needed downstream (Lemma 3's per-request view);
        ``inf`` signals a diverged window.
        """
        col = lane.hp_cols[proc]
        if not col:
            return 0.0 if const <= bound else _inf
        carried = self._carried_list
        periods = self._periods_list

        def recurrence(cur: float) -> float:
            gamma = 0.0
            for j, w in col:
                e = _ceil((cur + carried[j]) / periods[j] - ETA_GUARD)
                if e > 0:
                    gamma += e * w
            return const + gamma

        solved, status = solve_scalar(recurrence, const, bound)
        if solved is None:
            if status == NO_CONVERGENCE:
                warn_no_convergence(1, bound)
            return _inf
        # γ evaluated at the converged window (what Lemma 3 multiplies).
        total = 0.0
        for j, w in col:
            e = _ceil((solved + carried[j]) / periods[j] - ETA_GUARD)
            if e > 0:
                total += e * w
        return total

    def _theorem1_recurrence(
        self, lane: _TaskLane, eps: Dict[int, float], fixed: float
    ) -> Callable[[float], float]:
        """Theorem 1's scalar step ``fixed + Σ min(ε, ζ) + agents / m_i`` at ``cur``.

        ``fixed`` is the row's window-free term (:func:`_theorem1_terms`).
        The scalar solve iterates it and the critical-path probe evaluates
        it once, so both round identically.
        """
        m_i = lane.m_i
        # min(0, ζ) = 0: only processors with a positive ε can contribute.
        eps_cols = [
            (value, lane.other_cols[k]) for k, value in eps.items() if value > 0.0
        ]
        wcl = lane.wcl_col
        carried = self._carried_list
        periods = self._periods_list

        def recurrence(cur: float) -> float:
            etas: Dict[int, int] = {}
            blocking = 0.0
            for value, col in eps_cols:
                zeta = 0.0
                for j, w in col:
                    e = etas.get(j)
                    if e is None:
                        e = _ceil((cur + carried[j]) / periods[j] - ETA_GUARD)
                        if e < 0:
                            e = 0
                        etas[j] = e
                    zeta += e * w
                blocking += zeta if zeta < value else value
            agents = 0.0
            for j, w in wcl:
                e = etas.get(j)
                if e is None:
                    e = _ceil((cur + carried[j]) / periods[j] - ETA_GUARD)
                    if e < 0:
                        e = 0
                agents += e * w
            return fixed + blocking + agents / m_i

        return recurrence

    def _theorem1_scalar(
        self,
        lane: _TaskLane,
        eps: Dict[int, float],
        start: float,
        fixed: float,
        bound: float,
    ) -> float:
        """Theorem 1's fixed point for one profile via the coefficient tables.

        ``start`` and ``fixed`` are the profile's window-free terms
        (:func:`_theorem1_terms`).
        """
        recurrence = self._theorem1_recurrence(lane, eps, fixed)
        solved, status = solve_scalar(recurrence, start, bound)
        if solved is None:
            if status == NO_CONVERGENCE:
                warn_no_convergence(1, bound)
            return _inf
        return solved

    def _row_terms(self, lane: _TaskLane, row: _Row) -> _RowTerms:
        """A row's window-free parts: own off-path work per used processor,
        and Theorem 1's ``start`` and ``fixed`` terms."""
        length, n_g, local_block, intra_interf = row
        # Own off-path workload per used processor; Lemma 4 adds it to the
        # local blocking where σ holds (the row requests a resource there).
        off: Dict[int, float] = {}
        intra_block = local_block
        for k, entries in lane.g_by_proc.items():
            total = 0.0
            requested = False
            for g, count, cs in entries:
                on_path = n_g[g]
                if on_path > 0:
                    requested = True
                gap = count - on_path
                if gap > 0:
                    total += gap * cs
            off[k] = total
            if requested:
                intra_block += total
        own_off_cluster = sum(off[k] for k in lane.cluster_use_procs)
        start, fixed = _theorem1_terms(
            length, intra_block, intra_interf, own_off_cluster, lane.m_i
        )
        return off, start, fixed

    def _row_wcrt_scalar(
        self, lane: _TaskLane, row: _Row, terms: _RowTerms, bound: float
    ) -> float:
        """One signature row through the scalar fast path."""
        n_g = row[1]
        off, start, fixed = terms
        static = lane.static
        # Lemma 2 windows and Lemma 3's per-request view ε.
        eps: Dict[int, float] = {}
        for g, n_path in enumerate(n_g):
            if n_path <= 0:
                continue
            k = lane.g_proc_list[g]
            beta = lane.beta_list[g]
            gamma = self._window_scalar(lane, static.g_L[g] + off[k] + beta, k, bound)
            eps[k] = eps.get(k, 0.0) + n_path * (beta + gamma)
        return self._theorem1_scalar(lane, eps, start, fixed, bound)

    def _ep_bound_scalar(
        self, lane: _TaskLane, rows: List[_Row], bound: float
    ) -> float:
        """Eq. (1)'s maximum over a narrow enumeration, one row at a time."""
        terms = [self._row_terms(lane, row) for row in rows]
        for _off, start, fixed in terms:
            if _diverges_at_start(start, fixed, bound):
                _bump(self._counters, "kernel.early.ep_scalar")
                return _inf
        worst = 0.0
        # Row 0 is a longest signature, usually the first to diverge.
        for row, row_terms in zip(rows, terms):
            worst = max(worst, self._row_wcrt_scalar(lane, row, row_terms, bound))
            if math.isinf(worst):
                break
        return worst

    def _task_wcrt_en_scalar(self, lane: _TaskLane, bound: float) -> float:
        """EN-style bound through the scalar fast path."""
        static = lane.static
        intra_block = static.en_local_block + sum(
            lane.full_off[k] for k in lane.use_procs
        )
        intra_interf = max(0.0, static.wcet - static.crit_len)
        start, fixed = _theorem1_terms(
            static.crit_len, intra_block, intra_interf, 0.0, lane.m_i
        )
        if _diverges_at_start(start, fixed, bound):
            _bump(self._counters, "kernel.early.en")
            return _inf
        # Windows use an empty path (maximal off-path workload), the blocking
        # multiplier uses the full request counts — each term at its worst.
        eps: Dict[int, float] = {}
        for g, rid in enumerate(static.ugr):
            k = lane.g_proc_list[g]
            beta = lane.beta_list[g]
            gamma = self._window_scalar(
                lane, static.g_L[g] + lane.full_off[k] + beta, k, bound
            )
            eps[k] = eps.get(k, 0.0) + static.g_N[g] * (beta + gamma)
        return self._theorem1_scalar(lane, eps, start, fixed, bound)

    # ------------------------------------------------------------------ #
    # Batched NumPy path (large profile batches)
    # ------------------------------------------------------------------ #
    def _request_windows(
        self,
        lane: _TaskLane,
        off_w: np.ndarray,
        active: np.ndarray,
        bound: float,
    ) -> np.ndarray:
        """Solve W = L_{i,q} + offpath + β + γ(W) for active (row, resource) pairs.

        Returns γ evaluated at the solved windows, shaped like ``active``
        (``inf`` where the window diverged, 0 where inactive) — the quantity
        Lemma 3's per-request view multiplies.
        """
        P, G = active.shape
        gamma = np.zeros((P, G))
        flat = np.flatnonzero(active.ravel())
        if flat.size == 0:
            return gamma
        p_idx, g_idx = np.unravel_index(flat, (P, G))
        kcols = lane.g_proc[g_idx]
        static = lane.static
        const = static.g_L_arr[g_idx] + off_w[p_idx, kcols] + lane.beta_arr[g_idx]
        w_hp = self._W_np[:, kcols] * lane.hp[:, None]  # (n, K)
        full = const.shape[0]

        def step(cur: np.ndarray, idx: np.ndarray) -> np.ndarray:
            eta = self.tables.eta_matrix(cur)
            cols = w_hp if idx.size == full else w_hp[:, idx]
            return const[idx] + (eta * cols).sum(axis=0)

        solved = solve_batched(const, step, bound)
        finite = np.isfinite(solved)
        if finite.any():
            eta = self.tables.eta_matrix(solved[finite])
            gamma[p_idx[finite], g_idx[finite]] = (eta * w_hp[:, finite]).sum(axis=0)
        gamma[p_idx[~finite], g_idx[~finite]] = _inf
        return gamma

    def _epsilon(
        self, lane: _TaskLane, nlam_g: np.ndarray, gamma
    ) -> np.ndarray:
        """Lemma 3's per-request view ε per (profile, processor).

        ``gamma`` is the (profile, resource) array of solved windows, or
        ``0.0`` for ε's window-free floor :math:`N^\\lambda \\beta`.
        """
        P = nlam_g.shape[0]
        eps = np.zeros((P, self._num_procs))
        if lane.static.ugr:
            contrib = np.where(
                nlam_g > 0, nlam_g * (lane.beta_arr[None, :] + gamma), 0.0
            )
            for j, k in enumerate(lane.g_proc_list):
                eps[:, k] += contrib[:, j]
        return eps

    def _theorem1_parts(
        self, lane: _TaskLane, cur: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The η-dependent parts of one Theorem-1 step at ``cur``.

        ζ per (row, active processor) and the other tasks' agent workload on
        the task's cluster per row.
        """
        oth = self.tables.eta_matrix(cur) * lane.other[:, None]  # (n, K)
        return oth.T @ self._W_active, oth.T @ lane.w_cluster

    def _theorem1_batched(
        self,
        lane: _TaskLane,
        eps_active: np.ndarray,
        start: np.ndarray,
        fixed: np.ndarray,
        first: Tuple[np.ndarray, np.ndarray],
        bound: float,
    ) -> np.ndarray:
        """Theorem 1's fixed point, batched over path profiles.

        ``first`` holds :meth:`_theorem1_parts` at ``start``, the solve's
        first round; every row must start active (finite, within ``bound``),
        which :func:`_diverges_at_start` has checked.
        """
        m_i = lane.m_i
        pending = [first]

        def step(cur: np.ndarray, idx: np.ndarray) -> np.ndarray:
            zeta, agents = pending.pop() if pending else self._theorem1_parts(lane, cur)
            return _theorem1_step(fixed, eps_active, zeta, agents, m_i, idx)

        return solve_batched(start, step, bound)

    def _batched_terms(
        self, lane: _TaskLane, cols: _EpColumns
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every row's window-free parts: own off-path work per (row,
        processor), and Theorem 1's ``start`` and ``fixed`` terms."""
        P = len(cols.enumeration.lengths)
        num_procs = self._num_procs

        # Own off-path workload per (row, processor): Eq. (3)'s intra term,
        # and σ — whether the row requests a resource hosted there.
        off_w = np.zeros((P, num_procs))
        has_req = np.zeros((P, num_procs), dtype=bool)
        for j, k in enumerate(lane.g_proc_list):
            off_w[:, k] += cols.off_g[:, j]
            has_req[:, k] |= cols.req_g[:, j]

        # Lemma 4: intra-task blocking.
        intra_block = cols.local_block + (off_w * has_req).sum(axis=1)

        # Lemma 6's own-agent term on the task's cluster.
        if lane.cluster_procs.size:
            own_off_cluster = off_w[:, lane.cluster_procs].sum(axis=1)
        else:
            own_off_cluster = np.zeros(P)

        start, fixed = _theorem1_terms(
            cols.enumeration.lengths,
            intra_block,
            cols.intra_interf,
            own_off_cluster,
            lane.m_i,
        )
        return off_w, start, fixed

    def _step_floor(
        self,
        lane: _TaskLane,
        cols: _EpColumns,
        fixed: np.ndarray,
        first: Tuple[np.ndarray, np.ndarray],
    ) -> np.ndarray:
        """Test 2: every row's first Theorem-1 step with ε at its floor.

        The solve's own first step (same rows, same ζ and agent arrays
        ``first``, same summation) with every window at γ = 0; γ ≥ 0 only
        raises ε, so no row's real first step is lower.
        """
        eps_floor = self._epsilon(lane, cols.n_g, 0.0)[:, self._active_procs]
        return _theorem1_step(
            fixed, eps_floor, *first, lane.m_i, np.arange(len(fixed))
        )

    def _ep_bound_batched(
        self, lane: _TaskLane, cols: _EpColumns, bound: float
    ) -> float:
        """Eq. (1)'s maximum over the signature rows of a wide enumeration.

        ``inf`` is decided before any Lemma-2 window when some row's
        iteration must diverge: test 1 on the window-free terms, then test 2
        on the first step with ε at its floor (DESIGN.md, "A diverging bound
        is decided before its windows").
        """
        self._ensure_batched_arrays(lane)
        off_w, start, fixed = self._batched_terms(lane, cols)
        if _diverges_at_start(float(start.max()), float(fixed.max()), bound):
            _bump(self._counters, "kernel.early.ep_batched")
            return _inf
        # The first round's η-dependent parts serve test 2 and the solve.
        first = self._theorem1_parts(lane, start)
        if self._step_floor(lane, cols, fixed, first).max() > bound:
            _bump(self._counters, "kernel.early.ep_batched")
            return _inf

        # Lemma 2 windows and Lemma 3's per-request view.
        gamma = self._request_windows(lane, off_w, cols.req_g, bound)
        eps = self._epsilon(lane, cols.n_g, gamma)
        bounds = self._theorem1_batched(
            lane, eps[:, self._active_procs], start, fixed, first, bound
        )
        return float(bounds.max())

    # ------------------------------------------------------------------ #
    # Public per-task bounds
    # ------------------------------------------------------------------ #
    def ep_columns(
        self, task: DAGTask, enumeration: PathEnumerationResult
    ) -> _EpColumns:
        """The task's partition-independent EP columns (cached per enumeration)."""
        cols = self._ep_cache.get(task.task_id)
        if cols is None or cols.enumeration is not enumeration:
            cols = _build_ep_columns(self.tables.table(task), enumeration)
            self._ep_cache[task.task_id] = cols
        return cols

    def path_wcrt(
        self,
        task: DAGTask,
        profile: PathProfile,
        divergence_bound: Optional[float] = None,
    ) -> float:
        """WCRT bound of one concrete path (EP building block).

        ``profile`` must carry its vertices (see
        :func:`~repro.analysis.paths.require_vertices`).
        """
        require_vertices(profile)
        if divergence_bound is None:
            divergence_bound = task.deadline
        lane = self._lane(task)
        row = _path_row(lane.static, profile)
        return self._row_wcrt_scalar(
            lane, row, self._row_terms(lane, row), divergence_bound
        )

    def critical_path_diverges(
        self, task: DAGTask, divergence_bound: Optional[float] = None
    ) -> bool:
        """Does the task's critical path, as one path, provably pass the bound?

        Eq. (1) takes a maximum over paths, so ``True`` means the task's EP
        bound is ``inf`` whatever its enumeration holds: the enumeration's
        row of the critical path's request code dominates this probe row.
        Test 1 reads the row's window-free ``start`` and ``fixed``, test 2
        the first Theorem-1 step with ε at its floor :math:`N^\\lambda
        \\beta` and η at ``start``; both less the rounding margin
        :data:`PROBE_MARGIN` (DESIGN.md, "A failing EP bound is decided from
        its critical path").  A decision counts as one kernel bound.
        """
        if divergence_bound is None:
            divergence_bound = task.deadline
        if not math.isfinite(divergence_bound):
            return False
        lane = self._lane(task)
        row = self._probe_rows.get(task.task_id)
        if row is None:
            row = _path_row(lane.static, task.critical_path_profile())
            self._probe_rows[task.task_id] = row
        margin = PROBE_MARGIN * divergence_bound
        _off, start, fixed = self._row_terms(lane, row)
        start -= margin
        decided = _diverges_at_start(start, fixed - margin, divergence_bound)
        if not decided:
            floor: Dict[int, float] = {}
            for g, n_path in enumerate(row[1]):
                if n_path > 0:
                    k = lane.g_proc_list[g]
                    floor[k] = floor.get(k, 0.0) + n_path * lane.beta_list[g]
            step = self._theorem1_recurrence(lane, floor, fixed)(start)
            decided = step - margin > divergence_bound
        if decided:
            _bump(self._counters, "kernel.bounds")
            _bump(self._counters, "kernel.early.critical_path")
        return decided

    def task_wcrt_ep(
        self,
        task: DAGTask,
        enumeration: PathEnumerationResult,
        divergence_bound: Optional[float] = None,
    ) -> float:
        """Eq. (1): maximum over the enumerated signatures (EN fallback when truncated)."""
        if divergence_bound is None:
            divergence_bound = task.deadline
        _bump(self._counters, "kernel.bounds")
        lane = self._lane(task)
        cols = self.ep_columns(task, enumeration)
        if cols.rows is None:
            worst = self._ep_bound_batched(lane, cols, divergence_bound)
        else:
            worst = self._ep_bound_scalar(lane, cols.rows, divergence_bound)
        if math.isinf(worst):
            return _inf
        if not enumeration.exhaustive:
            tel = _active_telemetry()
            if tel is not None:
                tel.count("ep.en_fallback")
            worst = max(worst, self.task_wcrt_en(task, divergence_bound))
        return worst

    def task_wcrt_en(
        self, task: DAGTask, divergence_bound: Optional[float] = None
    ) -> float:
        """EN-style WCRT bound (path request counts as free variables)."""
        if divergence_bound is None:
            divergence_bound = task.deadline
        _bump(self._counters, "kernel.bounds")
        lane = self._lane(task)
        return self._task_wcrt_en_scalar(lane, divergence_bound)
