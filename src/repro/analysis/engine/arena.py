"""Cross-taskset arena batching: one NumPy iteration per utilization point.

The engine (PRs 2/3) vectorizes fixed points *within* one task set, but a
campaign point still analyzed its hundreds of independent task sets serially
— one kernel invocation per sample per protocol, each paying the full Python
orchestration cost per fixed point (~10µs against ~2 iterations of actual
recurrence arithmetic).  This module removes that per-sample wall:

* :class:`TasksetArena` packs the compiled coefficient tables of many task
  sets into one ragged arena — concatenated ``carried``/``period`` arrays
  plus per-slot offsets, built once per work unit — so a single elementwise
  :func:`~repro.analysis.engine.solver.solve_batched` sweep can retire fixed
  points across *all* task sets of a utilization point at once;
* :class:`ArenaRequest` is the canonical recurrence shape every protocol
  solve in this library reduces to (see below), referencing arena-global
  task columns;
* per-``(task set, protocol)`` *drivers* — plain Python generators — replay
  the exact orchestration of the serial analyses (Algorithm 1's WFD retry
  loop, the federated top-up loop, per-task priority order) and yield waves
  of :class:`ArenaRequest`; the :func:`run_arena` scheduler advances all
  drivers in lockstep rounds, solving the union of their waves in one
  batched call per round.

The canonical recurrence
------------------------

Every fixed point solved by the four protocol kernels (DPCP-p Lemma 2
windows and Theorem 1, SPIN's spin recurrence, LPP's request windows) is an
instance of::

    f(x) = ((inner + Σ_g min(cap_g, S_g(x))) + outer) + S_u(x) / div
    S(x) = Σ_t [η > 0] · η · w_t,   η = ⌈(x + carried[j_t]) / period[j_t] − guard⌉

with the capped groups accumulated in request order and ``S`` accumulated
term-by-term in column order.  The wave solver evaluates this shape
*position-major* — term position ``p`` of every group in one vectorized
step, group position ``q`` of every request in one step — which reproduces
the scalar kernels' left-to-right float summation order exactly.  Verdicts
are therefore identical-by-construction to the per-sample path, bit for bit,
not merely within tolerance; the equivalence suite pins this.

Retirement semantics are those of ``solve_batched``: entries that converge
or diverge retire from the active set each round; a request whose fixed
point diverges past its per-entry bound answers ``inf`` (the scalar
solver's reading of a ``None`` fixed point).

Fallback rules: only the compiled-kernel engines of the four protocols are
arena-capable (:func:`arena_capable`); reference-engine tests and foreign
protocols run through the unchanged per-sample path, counted by the
executor under the ``arena.fallbacks`` telemetry counter.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ...model.platform import (
    PartitionedSystem,
    Platform,
    minimal_federated_clusters,
)
from ...model.task import TaskSet
from ...obs.telemetry import active as _active_telemetry
from ..interfaces import SchedulabilityResult, SchedulabilityTest, TaskAnalysis
from ..lpp import LppKernel, LppTest
from ..paths import PathEnumerator
from ..spin import SpinKernel, SpinTest
from .solver import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    ENGINE_KERNEL,
    ETA_GUARD,
    solve_batched,
)
from .tables import CompiledTaskset, compile_taskset

_inf = math.inf

#: A wave of requests, as yielded by drivers to the scheduler.
Wave = List["ArenaRequest"]

#: Driver generators yield waves and receive the matching answer lists;
#: their ``StopIteration`` value is the finished verdict.
Driver = Generator[Wave, List[float], SchedulabilityResult]


class ArenaRequest:
    """One fixed point in the canonical arena recurrence shape.

    Parameters
    ----------
    start, bound:
        Iteration start value and per-request divergence bound (the scalar
        solver's ``start`` / ``divergence_bound``).
    inner, outer:
        The constant accumulated *before* the capped groups and the constant
        added after them (``f(x) = inner + Σ min(cap, S) ... + outer``); the
        split mirrors each scalar kernel's own summation order.
    groups:
        Capped supply groups ``(cap, j, w)`` in accumulation order, with
        ``j`` arena-global task indices (``np.intp``) and ``w`` the matching
        per-job workloads.  ``cap = inf`` expresses an uncapped sum.
    uncapped:
        Optional trailing ``(j, w, divisor)`` term added as ``S / divisor``
        after ``outer`` (Theorem 1's agent interference).
    gamma:
        When true the answer is *not* the fixed point but the sole group's
        supply ``S`` re-evaluated at it (Lemma 2 windows return γ(W), not W).
    """

    __slots__ = ("start", "bound", "inner", "outer", "groups", "uncapped",
                 "gamma", "answer")

    def __init__(
        self,
        start: float,
        bound: float,
        inner: float,
        outer: float,
        groups: Tuple[Tuple[float, np.ndarray, np.ndarray], ...] = (),
        uncapped: Optional[Tuple[np.ndarray, np.ndarray, float]] = None,
        gamma: bool = False,
    ) -> None:
        if gamma and len(groups) != 1:
            raise ValueError("gamma requests carry exactly one supply group")
        self.start = start
        self.bound = bound
        self.inner = inner
        self.outer = outer
        self.groups = groups
        self.uncapped = uncapped
        self.gamma = gamma
        #: Filled by :meth:`TasksetArena.solve_wave`.
        self.answer: float = _inf


class TasksetArena:
    """Ragged arena of many task sets' carried-in response-time state.

    Each *slot* is one (task set, driver) pair's view of its tasks: the
    concatenated ``period`` array is immutable, the concatenated ``carried``
    array is the only mutable analysis state and is refreshed per slot via
    :meth:`sync` (drivers of the same task set interleave, so they cannot
    share the :class:`CompiledTaskset`'s own carried buffer).  Requests
    reference tasks by arena-global index = slot offset + local index.
    """

    def __init__(
        self,
        tolerance: float = DEFAULT_TOLERANCE,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
    ) -> None:
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self._offsets: List[int] = []
        self._slot_tables: List[CompiledTaskset] = []
        self._size = 0
        self._periods: Optional[np.ndarray] = None
        self._carried: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #
    def add_slot(self, tables: CompiledTaskset) -> int:
        """Append one task set's tables; returns the new slot id."""
        if self._periods is not None:
            raise RuntimeError("arena is sealed; no further slots")
        slot = len(self._offsets)
        self._offsets.append(self._size)
        self._slot_tables.append(tables)
        self._size += len(tables.tasks)
        return slot

    def seal(self) -> None:
        """Freeze the layout and materialize the concatenated arrays."""
        if self._periods is not None:
            return
        if self._slot_tables:
            self._periods = np.concatenate(
                [t.periods for t in self._slot_tables]
            )
            self._carried = np.concatenate(
                [t.deadlines for t in self._slot_tables]
            ).astype(float)
        else:
            self._periods = np.empty(0)
            self._carried = np.empty(0)

    def offset(self, slot: int) -> int:
        """Arena-global index of the slot's first task."""
        return self._offsets[slot]

    def slot_carried(self, slot: int) -> np.ndarray:
        """The slot's carried-in response-time slice (local indices)."""
        base = self._offsets[slot]
        tables = self._slot_tables[slot]
        return self._carried[base:base + len(tables.tasks)]

    def sync(self, slot: int, response_times: Dict[int, float]) -> None:
        """Refresh one slot's carried-in bounds.

        Semantics match :meth:`CompiledTaskset.sync_response_times`: tasks
        without a known bound carry their deadline.
        """
        base = self._offsets[slot]
        carried = self._carried
        for j, task in enumerate(self._slot_tables[slot].tasks):
            carried[base + j] = response_times.get(task.task_id, task.deadline)

    def column(
        self, slot: int, col: Sequence[Tuple[int, float]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Lift a kernel's sparse ``[(j, w)]`` column to arena-global arrays."""
        base = self._offsets[slot]
        j = np.empty(len(col), dtype=np.intp)
        w = np.empty(len(col))
        for t, (jj, ww) in enumerate(col):
            j[t] = base + jj
            w[t] = ww
        return j, w

    # ------------------------------------------------------------------ #
    # The batched wave solver
    # ------------------------------------------------------------------ #
    def solve_wave(self, requests: Wave) -> None:
        """Solve one wave of requests in a single batched iteration.

        Fills each request's ``answer``.  The evaluation is position-major
        (see the module docstring), so per request the float summation order
        is exactly the scalar kernels' — answers are bit-identical to
        per-sample solves, not merely close.
        """
        n_requests = len(requests)
        if n_requests == 0:
            return
        tel = _active_telemetry()
        if tel is not None:
            tel.count("arena.batch_solves")
            tel.count("arena.requests", n_requests)
        periods = self._periods
        carried = self._carried
        start = np.empty(n_requests)
        bound = np.empty(n_requests)
        inner = np.empty(n_requests)
        outer = np.empty(n_requests)
        g_entry: List[int] = []
        g_j: List[np.ndarray] = []
        g_w: List[np.ndarray] = []
        q_e: List[int] = []
        q_gid: List[int] = []
        q_cap: List[float] = []
        u_entry: List[int] = []
        u_gid: List[int] = []
        u_div: List[float] = []
        gamma_entry: List[int] = []
        gamma_gid: List[int] = []
        for e, r in enumerate(requests):
            start[e] = r.start
            bound[e] = r.bound
            inner[e] = r.inner
            outer[e] = r.outer
            first_gid = len(g_j)
            for cap, j, w in r.groups:
                q_e.append(e)
                q_gid.append(len(g_j))
                g_entry.append(e)
                g_j.append(j)
                g_w.append(w)
                q_cap.append(cap)
            if r.gamma:
                gamma_entry.append(e)
                gamma_gid.append(first_gid)
            if r.uncapped is not None:
                j, w, div = r.uncapped
                u_entry.append(e)
                u_gid.append(len(g_j))
                u_div.append(div)
                g_entry.append(e)
                g_j.append(j)
                g_w.append(w)

        n_groups = len(g_j)
        if n_groups:
            width = max(a.size for a in g_j)
            # Rectangle-padded term tables: the pad (j = 0, w = 0) adds an
            # exact 0.0 per position, a no-op in the running supply sums.
            J = np.zeros((n_groups, width), dtype=np.intp)
            Wt = np.zeros((n_groups, width))
            for g in range(n_groups):
                a = g_j[g]
                if a.size:
                    J[g, :a.size] = a
                    Wt[g, :a.size] = g_w[g]
            ent_of_group = np.array(g_entry, dtype=np.intp)
            Jp = periods[J]
            Jc = carried[J]
            supply = np.zeros(n_groups)
        else:
            width = 0
            supply = None

        if q_e:
            # Flat capped-term tables, e-major and group-minor; np.add.at
            # applies repeated indices in array order, so per entry the
            # min(cap, S_g) terms accumulate in exactly the scalar kernels'
            # group order — the left fold is preserved bit-for-bit.
            qe = np.array(q_e, dtype=np.intp)
            qg = np.array(q_gid, dtype=np.intp)
            qc = np.array(q_cap)
        else:
            qe = None
        if u_entry:
            ue = np.array(u_entry, dtype=np.intp)
            ug = np.array(u_gid, dtype=np.intp)
            ud = np.array(u_div)
        else:
            ue = None

        x_full = start.copy()

        def step(cur: np.ndarray, idx: np.ndarray) -> np.ndarray:
            """One elementwise round of the canonical recurrence."""
            x_full[idx] = cur
            if n_groups:
                xg = x_full[ent_of_group]
                supply.fill(0.0)
                for p in range(width):
                    eta = np.ceil((xg + Jc[:, p]) / Jp[:, p] - ETA_GUARD)
                    np.add(supply, np.where(eta > 0.0, eta * Wt[:, p], 0.0),
                           out=supply)
            acc = inner.copy()
            if qe is not None:
                np.add.at(acc, qe, np.minimum(qc, supply[qg]))
            res = acc + outer
            if ue is not None:
                res[ue] += supply[ug] / ud
            return res[idx]

        solved = solve_batched(
            start, step, bound, self.tolerance, self.max_iterations
        )

        for r, value in zip(requests, solved.tolist()):
            r.answer = value

        if gamma_entry:
            # γ(W): re-evaluate the window's supply at the converged value.
            ge = np.array(gamma_entry, dtype=np.intp)
            gg = np.array(gamma_gid, dtype=np.intp)
            x = solved[ge]
            finite = np.isfinite(x)
            gvals = np.full(ge.size, _inf)
            if finite.any():
                rows = gg[finite]
                xv = x[finite]
                Jps = Jp[rows]
                Jcs = Jc[rows]
                Wts = Wt[rows]
                acc = np.zeros(rows.size)
                for p in range(Jps.shape[1]):
                    eta = np.ceil((xv + Jcs[:, p]) / Jps[:, p] - ETA_GUARD)
                    acc += np.where(eta > 0.0, eta * Wts[:, p], 0.0)
                gvals[finite] = acc
            for i, e in enumerate(gamma_entry):
                requests[e].answer = float(gvals[i])


def _ask(wave: Wave):
    """Yield a non-empty wave to the scheduler; return its answers."""
    if not wave:
        return []
    answers = yield wave
    return answers


# ---------------------------------------------------------------------- #
# SPIN / LPP drivers: the federated top-up loop in driver form
# ---------------------------------------------------------------------- #
def _federated_driver(
    taskset: TaskSet,
    platform: Platform,
    wcrt_step,
    protocol_name: str,
) -> Driver:
    """:func:`~repro.analysis.federated.federated_topup_analysis`, replayed
    statement-for-statement with ``wcrt_step`` (a sub-generator) in place of
    the direct ``wcrt_function`` call."""
    clusters = minimal_federated_clusters(taskset, platform)
    if clusters is None:
        return SchedulabilityResult(
            schedulable=False,
            protocol=protocol_name,
            reason="not enough processors for the minimal federated assignment",
        )
    order = taskset.by_priority(descending=True)
    assigned = {p for cluster in clusters.values() for p in cluster.processors}
    spares = [p for p in platform.processors if p not in assigned]
    analyses: Dict[int, TaskAnalysis] = {}
    response_times: Dict[int, float] = {}
    resume = 0
    while True:
        failing: Optional[int] = None
        failing_index = resume
        for index in range(resume, len(order)):
            task = order[index]
            cluster_size = clusters[task.task_id].size
            wcrt = yield from wcrt_step(task, cluster_size, response_times)
            analyses[task.task_id] = TaskAnalysis(
                task_id=task.task_id,
                wcrt=wcrt,
                deadline=task.deadline,
                processors=cluster_size,
            )
            response_times[task.task_id] = min(wcrt, task.deadline)
            if math.isinf(wcrt) or wcrt > task.deadline + 1e-9:
                failing = task.task_id
                failing_index = index
                break

        if failing is None:
            return SchedulabilityResult(
                schedulable=True,
                protocol=protocol_name,
                task_analyses=analyses,
                partition=PartitionedSystem(taskset, platform, clusters, {}),
            )

        if not spares:
            return SchedulabilityResult(
                schedulable=False,
                protocol=protocol_name,
                task_analyses=analyses,
                partition=PartitionedSystem(taskset, platform, clusters, {}),
                reason=(
                    f"task {failing} misses its deadline and no spare processor "
                    "is available"
                ),
            )
        clusters[failing].processors.append(spares.pop(0))
        resume = failing_index
        del response_times[failing]


def _spin_driver(
    taskset: TaskSet, platform: Platform, arena: TasksetArena, slot: int
) -> Driver:
    """Arena driver for :class:`~repro.analysis.spin.SpinTest` (kernel engine)."""
    kernel = SpinKernel.of(taskset)
    groups_cache: Dict[int, tuple] = {}

    def wcrt_step(task, cluster_size, response_times):
        """One SPIN WCRT bound as a single canonical request."""
        if cluster_size < 1:
            return _inf
        arena.sync(slot, response_times)
        lane = kernel._lane(task)
        base = lane.crit_len + (lane.wcet - lane.crit_len) / cluster_size
        spin_const = 0.0
        for count, cs in lane.intra_terms:
            spin_const += count * min(cluster_size - 1, count - 1) * cs
        groups = groups_cache.get(task.task_id)
        if groups is None:
            # Empty supply columns imply a zero demand cap (no other users
            # of the resource), an exact 0.0 in the scalar sum — dropped.
            groups = tuple(
                (demand,) + arena.column(slot, col)
                for demand, col in lane.capped
                if col
            )
            groups_cache[task.task_id] = groups
        answers = yield from _ask([ArenaRequest(
            start=base,
            bound=task.deadline,
            inner=spin_const,
            outer=base,
            groups=groups,
        )])
        return answers[0]

    return (yield from _federated_driver(taskset, platform, wcrt_step, "SPIN"))


def _lpp_driver(
    taskset: TaskSet, platform: Platform, arena: TasksetArena, slot: int
) -> Driver:
    """Arena driver for :class:`~repro.analysis.lpp.LppTest` (kernel engine)."""
    kernel = LppKernel.of(taskset)
    prep_cache: Dict[int, tuple] = {}
    blocking_cache: Dict[int, Tuple[Tuple[float, ...], float]] = {}

    def wcrt_step(task, cluster_size, response_times):
        """One LPP WCRT bound: a wave of request windows, then the combine."""
        if cluster_size < 1:
            return _inf
        arena.sync(slot, response_times)
        lane = kernel._lane(task)
        carr = arena.slot_carried(slot)
        key = tuple(float(carr[j]) for j in lane.hp_involved)
        cached = blocking_cache.get(task.task_id)
        if cached is not None and cached[0] == key:
            blocking = cached[1]
        else:
            prep = prep_cache.get(task.task_id)
            if prep is None:
                prep = tuple(
                    (
                        count,
                        own_cs,
                        constant,
                        arena.column(slot, col) if col else None,
                    )
                    for count, own_cs, constant, col in zip(
                        lane.counts, lane.lengths, lane.constants, lane.hpcols
                    )
                )
                prep_cache[task.task_id] = prep
            wave: Wave = []
            for count, own_cs, constant, grp in prep:
                if grp is not None:
                    wave.append(ArenaRequest(
                        start=constant,
                        bound=task.deadline,
                        inner=0.0,
                        outer=constant,
                        groups=((_inf,) + grp,),
                    ))
            answers = yield from _ask(wave)
            blocking = 0.0
            nxt = 0
            for count, own_cs, constant, grp in prep:
                if grp is None:
                    # No higher-priority contender: the window is its
                    # constant part (provided it fits the deadline at all).
                    window: Optional[float] = (
                        constant if constant <= task.deadline else None
                    )
                else:
                    solved = answers[nxt]
                    nxt += 1
                    window = None if math.isinf(solved) else solved
                if window is None:
                    blocking = _inf
                    break
                blocking += count * max(0.0, window - own_cs)
            blocking_cache[task.task_id] = (key, blocking)
        if math.isinf(blocking):
            return _inf
        base = lane.crit_len + (lane.wcet - lane.crit_len) / cluster_size
        return base + blocking

    return (yield from _federated_driver(taskset, platform, wcrt_step, "LPP"))


# ---------------------------------------------------------------------- #
# DPCP-p driver: Algorithm 1 in driver form
# ---------------------------------------------------------------------- #
class _DpcpColumns:
    """Per-partition cache of a DPCP-p lane's arena-global columns."""

    __slots__ = ("_arena", "_slot", "_cache")

    def __init__(self, arena: TasksetArena, slot: int) -> None:
        self._arena = arena
        self._slot = slot
        self._cache: Dict[tuple, object] = {}

    def hp(self, lane, proc: int):
        """Lane's higher-priority column on ``proc``; ``None`` when empty."""
        key = (lane.index, 0, proc)
        got = self._cache.get(key, self)
        if got is self:
            col = lane.hp_cols[proc]
            got = self._arena.column(self._slot, col) if col else None
            self._cache[key] = got
        return got

    def other(self, lane, proc: int):
        """Lane's other-tasks column on ``proc`` (possibly empty arrays)."""
        key = (lane.index, 1, proc)
        got = self._cache.get(key)
        if got is None:
            got = self._arena.column(self._slot, lane.other_cols[proc])
            self._cache[key] = got
        return got

    def wcl(self, lane):
        """Lane's within-cluster workload column (possibly empty arrays)."""
        key = (lane.index, 2)
        got = self._cache.get(key)
        if got is None:
            got = self._arena.column(self._slot, lane.wcl_col)
            self._cache[key] = got
        return got


def _theorem1_request(
    cols: _DpcpColumns,
    lane,
    length: float,
    eps: Dict[int, float],
    intra_block: float,
    intra_interf: float,
    own_off_cluster: float,
    bound: float,
) -> ArenaRequest:
    """Theorem 1's fixed point as one canonical request (kernel semantics)."""
    m_i = lane.m_i
    fixed = length + intra_block + (intra_interf + own_off_cluster) / m_i
    start = length + intra_block + intra_interf / m_i
    # min(0, ζ) = 0: only processors with a positive ε can contribute.
    groups = tuple(
        (value,) + cols.other(lane, k)
        for k, value in eps.items()
        if value > 0.0
    )
    wcl_j, wcl_w = cols.wcl(lane)
    return ArenaRequest(
        start=start,
        bound=bound,
        inner=0.0,
        outer=fixed,
        groups=groups,
        uncapped=(wcl_j, wcl_w, m_i),
    )


def _window_request(grp, const: float, bound: float) -> ArenaRequest:
    """Lemma 2's window W = const + γ(W), answering γ at the solved window."""
    return ArenaRequest(
        start=const,
        bound=bound,
        inner=0.0,
        outer=const,
        groups=((_inf,) + grp,),
        gamma=True,
    )


def _dpcp_en_step(kernel, arena, slot, cols, lane, bound, response_times):
    """EN-style bound for one task: a window wave, then Theorem 1."""
    arena.sync(slot, response_times)
    static = lane.static
    wave: Wave = []
    plan: List[Tuple[str, float]] = []
    for g, rid in enumerate(static.ugr):
        k = lane.g_proc_list[g]
        beta = lane.beta_list[g]
        const = static.g_L[g] + lane.full_off[k] + beta
        grp = cols.hp(lane, k)
        if grp is None:
            plan.append(("val", 0.0 if const <= bound else _inf))
        else:
            plan.append(("req", float(len(wave))))
            wave.append(_window_request(grp, const, bound))
    answers = yield from _ask(wave)
    eps: Dict[int, float] = {}
    for g, rid in enumerate(static.ugr):
        k = lane.g_proc_list[g]
        beta = lane.beta_list[g]
        kind, value = plan[g]
        gamma = answers[int(value)] if kind == "req" else value
        eps[k] = eps.get(k, 0.0) + static.g_N[g] * (beta + gamma)
    intra_block = static.en_local_block + sum(
        lane.full_off[k] for k in lane.use_procs
    )
    intra_interf = max(0.0, static.wcet - static.crit_len)
    answers = yield from _ask([_theorem1_request(
        cols, lane, static.crit_len, eps, intra_block, intra_interf, 0.0, bound
    )])
    return answers[0]


def _dpcp_ep_step(
    kernel, arena, slot, cols, task, enumerator, bound, response_times
):
    """EP bound for one task: window wave, Theorem 1 wave, EN fallback."""
    from ..dpcp_p.kernel import _row_intra_block, _row_offpath

    enumeration = enumerator.enumerate(task)
    arena.sync(slot, response_times)
    lane = kernel._lane(task)
    columns = kernel.ep_columns(task, enumeration)
    worst = 0.0
    if columns.rows is None:
        # Wide enumerations already run through the kernel's within-taskset
        # batched path; reuse it inline (it reads the shared tables'
        # carried state, valid for the duration of this driver step).
        kernel.sync_response_times(response_times)
        bounds = kernel.ep_bounds_batched(lane, columns, bound)
        if bounds.size:
            worst = float(bounds.max())
    else:
        static = lane.static

        def row_chunk(chunk):
            """Windows then Theorem 1 for ``chunk``; returns the bounds."""
            per_row = []
            wave: Wave = []
            for _length, n_g, _local_block, _intra_interf in chunk:
                off, sigma = _row_offpath(lane, n_g)
                plan: List[Tuple[int, float, int, str, float]] = []
                for g, n_path in enumerate(n_g):
                    if n_path <= 0:
                        continue
                    k = lane.g_proc_list[g]
                    beta = lane.beta_list[g]
                    const = static.g_L[g] + off[k] + beta
                    grp = cols.hp(lane, k)
                    if grp is None:
                        plan.append(
                            (k, beta, n_path, "val", 0.0 if const <= bound else _inf)
                        )
                    else:
                        plan.append((k, beta, n_path, "req", float(len(wave))))
                        wave.append(_window_request(grp, const, bound))
                per_row.append((off, sigma, plan))
            answers = yield from _ask(wave)

            wave2: Wave = []
            for (length, _n_g, local_block, intra_interf), (off, sigma, plan) in zip(
                chunk, per_row
            ):
                eps: Dict[int, float] = {}
                for k, beta, n_path, kind, value in plan:
                    gamma = answers[int(value)] if kind == "req" else value
                    eps[k] = eps.get(k, 0.0) + n_path * (beta + gamma)
                own_off_cluster = sum(off[k] for k in lane.cluster_use_procs)
                wave2.append(_theorem1_request(
                    cols, lane, length, eps,
                    _row_intra_block(lane, local_block, off, sigma),
                    intra_interf, own_off_cluster, bound,
                ))
            answers2 = yield from _ask(wave2)
            return answers2

        # The serial loop breaks at the first infinite row bound, and on
        # this workload most infeasible tasks are infeasible already on the
        # critical path, which the enumerator emits as row 0.  Probe it
        # alone, then batch the remaining rows only when it stays finite; a
        # straggler turning infinite mid-batch is computed wastefully, but
        # max() lands on the same value the serial break would have returned.
        rows = columns.rows
        if rows:
            first = yield from row_chunk(rows[:1])
            worst = max(worst, first[0])
            if not math.isinf(worst) and len(rows) > 1:
                for value in (yield from row_chunk(rows[1:])):
                    worst = max(worst, value)
    if math.isinf(worst):
        return _inf
    if not enumeration.exhaustive:
        tel = _active_telemetry()
        if tel is not None:
            tel.count("ep.en_fallback")
        en = yield from _dpcp_en_step(
            kernel, arena, slot, cols, lane, bound, response_times
        )
        worst = max(worst, en)
    return worst


def _dpcp_driver(
    test, taskset: TaskSet, platform: Platform, arena: TasksetArena, slot: int
) -> Driver:
    """Arena driver for :class:`~repro.analysis.dpcp_p.protocol.DpcpPTest`.

    Replays :func:`~repro.analysis.dpcp_p.partition.partition_and_analyze`
    plus :func:`~repro.analysis.dpcp_p.wcrt.analyze_taskset` — same WFD
    retry loop, same telemetry bumps, same reason strings — routing every
    fixed point through the arena.
    """
    from ..dpcp_p.kernel import DpcpPKernel, KernelStaticCache
    from ..dpcp_p.partition import _first_failing_task, wfd_assign_resources
    from ..dpcp_p.wcrt import MODE_EP

    name = f"DPCP-p-{test.mode}"
    clusters = minimal_federated_clusters(taskset, platform)
    if clusters is None:
        return SchedulabilityResult(
            schedulable=False,
            protocol=name,
            reason="not enough processors for the minimal federated assignment",
        )
    # A fresh enumerator per invocation, shared across the WFD retries —
    # exactly DpcpPTest.test's behaviour.
    enumerator = (
        PathEnumerator(
            max_signatures=test._enumerator.max_signatures,
            max_paths=test._enumerator.max_paths,
        )
        if test._enumerator
        else None
    )
    static_cache = KernelStaticCache()
    ep_mode = test.mode == MODE_EP
    while True:
        tel = _active_telemetry()
        if tel is not None:
            counters = tel.counters
            counters["partition.wfd_passes"] = (
                counters.get("partition.wfd_passes", 0) + 1
            )
            perf_counter = time.perf_counter
            started = perf_counter()
            wfd = wfd_assign_resources(taskset, clusters)
            tel.observe("phase.partition", perf_counter() - started)
        else:
            wfd = wfd_assign_resources(taskset, clusters)
        if not wfd.feasible:
            return SchedulabilityResult(
                schedulable=False,
                protocol=name,
                reason=f"WFD resource assignment infeasible: {wfd.reason}",
            )
        partition = PartitionedSystem(taskset, platform, clusters, wfd.assignment)
        kernel = DpcpPKernel(taskset, partition, static_cache)
        cols = _DpcpColumns(arena, slot)
        analyses: Dict[int, TaskAnalysis] = {}
        response_times: Dict[int, float] = {}
        for task in taskset.by_priority(descending=True):
            bound = task.deadline * 1.0
            if ep_mode:
                wcrt = yield from _dpcp_ep_step(
                    kernel, arena, slot, cols, task, enumerator, bound,
                    response_times,
                )
            else:
                arena.sync(slot, response_times)
                lane = kernel._lane(task)
                wcrt = yield from _dpcp_en_step(
                    kernel, arena, slot, cols, lane, bound, response_times
                )
            analyses[task.task_id] = TaskAnalysis(
                task_id=task.task_id,
                wcrt=wcrt,
                deadline=task.deadline,
                processors=partition.num_processors_of(task.task_id),
            )
            response_times[task.task_id] = min(wcrt, task.deadline)

        failing = _first_failing_task(taskset, analyses)
        if failing is None:
            return SchedulabilityResult(
                schedulable=True,
                protocol=name,
                task_analyses=analyses,
                partition=partition,
            )
        unassigned = partition.unassigned_processors()
        if not unassigned:
            return SchedulabilityResult(
                schedulable=False,
                protocol=name,
                task_analyses=analyses,
                partition=partition,
                reason=(
                    f"task {failing} misses its deadline and no spare processor "
                    "is available"
                ),
            )
        clusters[failing].processors.append(unassigned[0])


# ---------------------------------------------------------------------- #
# Capability probe + scheduler
# ---------------------------------------------------------------------- #
def arena_capable(test: SchedulabilityTest) -> bool:
    """Whether ``test`` has an identical-by-construction arena driver.

    Exact types only: a subclass may override ``test()``, and the arena's
    bit-identity contract is with these four kernels' orchestration, nothing
    looser.  Reference-engine instances fall back to the per-sample path.
    """
    from ..dpcp_p.protocol import DpcpPEnTest, DpcpPEpTest, DpcpPTest

    if type(test) in (SpinTest, LppTest):
        return test.engine == ENGINE_KERNEL
    if type(test) in (DpcpPTest, DpcpPEpTest, DpcpPEnTest):
        return test.engine == ENGINE_KERNEL
    return False


def _make_driver(
    test, taskset: TaskSet, platform: Platform, arena: TasksetArena, slot: int
) -> Driver:
    """Instantiate the matching driver generator for an arena-capable test."""
    from ..dpcp_p.protocol import DpcpPTest

    if isinstance(test, DpcpPTest):
        return _dpcp_driver(test, taskset, platform, arena, slot)
    if isinstance(test, SpinTest):
        return _spin_driver(taskset, platform, arena, slot)
    if isinstance(test, LppTest):
        return _lpp_driver(taskset, platform, arena, slot)
    raise ValueError(f"no arena driver for {test!r}")


def run_arena(
    tasksets: Sequence[TaskSet],
    platform: Platform,
    tests: Sequence[SchedulabilityTest],
) -> Dict[str, List[SchedulabilityResult]]:
    """Analyze every (task set, test) pair through one shared arena.

    Drivers advance in lockstep rounds: each round collects one wave per
    still-running driver, solves the union in a single batched call, and
    feeds the answers back.  Returns ``{test.name: [verdict per task set]}``
    with verdicts identical to calling ``test.test(taskset, platform)``
    serially.  All ``tests`` must be :func:`arena_capable`.
    """
    tel = _active_telemetry()
    arena = TasksetArena()
    results: Dict[str, List[Optional[SchedulabilityResult]]] = {
        test.name: [None] * len(tasksets) for test in tests
    }
    pending: List[Tuple[str, int, Driver]] = []
    for test in tests:
        for si, taskset in enumerate(tasksets):
            slot = arena.add_slot(compile_taskset(taskset))
            pending.append(
                (test.name, si, _make_driver(test, taskset, platform, arena, slot))
            )
    arena.seal()
    if tel is not None:
        tel.count("arena.tasksets", len(tasksets))

    live: List[Tuple[str, int, Driver, Wave]] = []
    for name, si, gen in pending:
        try:
            wave = next(gen)
        except StopIteration as stop:
            results[name][si] = stop.value
        else:
            live.append((name, si, gen, wave))
    while live:
        union: Wave = []
        for _, _, _, wave in live:
            union.extend(wave)
        arena.solve_wave(union)
        advanced: List[Tuple[str, int, Driver, Wave]] = []
        for name, si, gen, wave in live:
            answers = [r.answer for r in wave]
            try:
                nxt = gen.send(answers)
            except StopIteration as stop:
                results[name][si] = stop.value
            else:
                advanced.append((name, si, gen, nxt))
        live = advanced
    return results
