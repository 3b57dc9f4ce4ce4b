"""Compiled task-static coefficient tables of one task set (DPCP-p kernel).

The DPCP-p kernel keeps re-reading the same task-static data on each
fixed-point iteration: per-``(task, resource)`` request counts
:math:`N_{j,q}` and critical-section lengths :math:`L_{j,q}`, the η
parameters (periods and carried-in response-time bounds), priorities, and
the global/local resource classification.  :class:`CompiledTaskset` compiles
all of it **once per task set** into plain lists, NumPy arrays, and dense
per-resource fold rows, and is shared

* across the DPCP-p tests analysing the same task set (a campaign work unit
  runs DPCP-p-EP and -EN over one generated task set — both read the same
  tables through :func:`compile_taskset`),
* across the partition retries of Algorithm 1 (only the partition changes
  there, never the task-static data), and
* across the kernel's per-task EP columns built on top, which cache
  themselves in :attr:`CompiledTaskset.protocol_cache`.

The only mutable entry is the carried-in response-time vector used inside
η_j, refreshed via :meth:`CompiledTaskset.sync_response_times` before each
per-task solve (analyses run sequentially, so sharing it is safe).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ...model.task import DAGTask, TaskSet
from ...obs.telemetry import active as _active_telemetry
from .solver import ETA_GUARD


@dataclass
class CompiledTask:
    """Per-task static tables (independent of partitions)."""

    ugr: List[int]                      # global resources the task uses (sorted)
    g_N: List[float]                    # request counts N_{i,q} over ``ugr``
    g_L: List[float]                    # critical-section lengths L_{i,q}
    lres: List[int]                     # local resources the task uses
    l_N: List[float]
    l_L: List[float]
    en_local_block: float               # EN-style local intra-task blocking
    crit_len: float                     # L*_i
    wcet: float                         # C_i
    noncrit: List[float]                # per-vertex C'_{i,x}
    total_noncrit: float
    g_N_arr: Optional[np.ndarray] = field(repr=False, default=None)
    g_L_arr: Optional[np.ndarray] = field(repr=False, default=None)
    l_N_arr: Optional[np.ndarray] = field(repr=False, default=None)
    l_L_arr: Optional[np.ndarray] = field(repr=False, default=None)

    def ensure_arrays(self) -> None:
        """Materialize the NumPy views (batched solver paths only)."""
        if self.g_N_arr is None:
            self.g_N_arr = np.array(self.g_N)
            self.g_L_arr = np.array(self.g_L)
            self.l_N_arr = np.array(self.l_N)
            self.l_L_arr = np.array(self.l_L)


class CompiledTaskset:
    """All task-static coefficient tables of one task set.

    Build via :func:`compile_taskset` (which memoizes one instance per task
    set) rather than directly, so every analysis of the same task set shares
    the same tables.
    """

    def __init__(self, taskset: TaskSet) -> None:
        # Deliberately no reference to the task set itself: instances are
        # memoized in a WeakKeyDictionary keyed by it, and a strong
        # back-reference would make every entry immortal.  Everything the
        # tables need is copied out here (the DAGTask objects do not
        # reference their TaskSet, so holding them is safe).
        tasks = list(taskset)
        self.tasks: List[DAGTask] = tasks
        self.index: Dict[int, int] = {t.task_id: i for i, t in enumerate(tasks)}
        self.periods = np.array([t.period for t in tasks])
        self.deadlines = np.array([t.deadline for t in tasks])
        self.prios = np.array([t.priority for t in tasks])
        self.periods_list: List[float] = [t.period for t in tasks]
        self.prios_list: List[int] = [t.priority for t in tasks]
        self._global = frozenset(taskset.global_resources())
        #: Per task: ``rid -> (N_{j,q}, L_{j,q})`` for every declared usage.
        self.usages: List[Dict[int, Tuple[float, float]]] = [
            {
                rid: (float(u.max_requests), u.cs_length)
                for rid, u in t.resource_usages.items()
            }
            for t in tasks
        ]
        #: Carried-in response-time bounds R_j used inside η_j — the only
        #: mutable analysis state; refresh via :meth:`sync_response_times`.
        self.carried = self.deadlines.copy()
        self.carried_list: List[float] = self.carried.tolist()
        self._task_tables: Dict[int, CompiledTask] = {}
        self._fold_rows: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        #: Kernel column caches (the DPCP-p kernel's EP columns), so the
        #: per-task columns are compiled once per task set no matter how
        #: many tests run over it.
        self.protocol_cache: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # Carried-in response times
    # ------------------------------------------------------------------ #
    def sync_response_times(self, response_times: Mapping[int, float]) -> None:
        """Refresh the carried-in :math:`R_j` bounds used inside η_j.

        Tasks without a known bound carry their deadline (consistent
        whenever the final verdict is "schedulable").
        """
        carried = self.carried
        carried_list = self.carried_list
        for j, task in enumerate(self.tasks):
            value = response_times.get(task.task_id, task.deadline)
            carried[j] = value
            carried_list[j] = value

    def eta_matrix(self, intervals: np.ndarray) -> np.ndarray:
        """η_j(L) for every task (rows) over every interval (columns)."""
        x = np.maximum(intervals, 0.0)[None, :] + self.carried[:, None]
        x /= self.periods[:, None]
        x -= ETA_GUARD
        np.ceil(x, out=x)
        return np.maximum(x, 0.0, out=x)

    # ------------------------------------------------------------------ #
    # Per-task tables
    # ------------------------------------------------------------------ #
    def table(self, task: DAGTask) -> CompiledTask:
        """The :class:`CompiledTask` tables of ``task`` (compiled lazily)."""
        tables = self._task_tables.get(task.task_id)
        if tables is not None:
            return tables
        is_global = self._global
        usage = self.usages[self.index[task.task_id]]
        used = sorted(rid for rid, (count, _cs) in usage.items() if count > 0)
        ugr = [r for r in used if r in is_global]
        lres = [r for r in used if r not in is_global]
        l_N = [usage[r][0] for r in lres]
        l_L = [usage[r][1] for r in lres]
        noncrit = task.vertex_non_critical_wcets()
        tables = CompiledTask(
            ugr=ugr,
            g_N=[usage[r][0] for r in ugr],
            g_L=[usage[r][1] for r in ugr],
            lres=lres,
            l_N=l_N,
            l_L=l_L,
            en_local_block=sum((c - 1.0) * cs for c, cs in zip(l_N, l_L)),
            crit_len=task.critical_path_length,
            wcet=task.wcet,
            noncrit=noncrit,
            total_noncrit=float(sum(noncrit)),
        )
        self._task_tables[task.task_id] = tables
        return tables

    # ------------------------------------------------------------------ #
    # Dense per-resource fold rows
    # ------------------------------------------------------------------ #
    def fold_rows(self, resource_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """Dense per-task fold rows of one resource: ``(work, beta)`` (cached).

        ``work[j]`` is task :math:`\\tau_j`'s request workload
        :math:`N_{j,q} L_{j,q}` on the resource; ``beta[i]`` is the longest
        critical section a lower-priority user can hold against
        :math:`\\tau_i` under the resource's priority ceiling (the highest
        base priority of its users).  Both depend only on task-static data,
        so the kernel folds a whole resource assignment with one
        ``np.add.at`` / ``np.maximum.at`` pair over these cached rows.
        """
        rows = self._fold_rows.get(resource_id)
        if rows is None:
            users = [
                (j, usage[resource_id])
                for j, usage in enumerate(self.usages)
                if resource_id in usage and usage[resource_id][0] > 0
            ]
            n = len(self.tasks)
            work_row = np.zeros(n)
            beta_row = np.zeros(n)
            if users:
                idx = np.array([j for j, _pair in users], dtype=np.intp)
                work_row[idx] = [count * cs for _j, (count, cs) in users]
                cs = np.array([cs for _j, (_count, cs) in users])
                user_prios = self.prios[idx]
                blocked = (user_prios[:, None] < self.prios[None, :]) & (
                    self.prios[None, :] <= user_prios.max()
                )
                np.max(
                    np.where(blocked, cs[:, None], 0.0), axis=0, out=beta_row
                )
            rows = (work_row, beta_row)
            self._fold_rows[resource_id] = rows
        return rows


#: One compiled-tables instance per live task set; weak keys let the tables
#: die with the task set (campaign workers generate thousands of them).
_COMPILED: "weakref.WeakKeyDictionary[TaskSet, CompiledTaskset]" = (
    weakref.WeakKeyDictionary()
)


def compile_taskset(taskset: TaskSet) -> CompiledTaskset:
    """The shared :class:`CompiledTaskset` of ``taskset`` (compiled once).

    The DPCP-p kernel calls this, so a campaign work unit that runs DPCP-p-EP
    and -EN over one generated task set compiles the static tables a single
    time; repeated tests of the same task set (benchmarks, Algorithm 1
    retries) reuse them as well.
    """
    tables = _COMPILED.get(taskset)
    tel = _active_telemetry()
    if tables is None:
        if tel is not None:
            tel.count("tables.compile.misses")
        tables = CompiledTaskset(taskset)
        _COMPILED[taskset] = tables
    elif tel is not None:
        # Inline bump: the hit path runs once per (test, taskset) on the
        # kernel hot paths, so skip the Telemetry.count method call.
        counters = tel.counters
        counters["tables.compile.hits"] = counters.get("tables.compile.hits", 0) + 1
    return tables
