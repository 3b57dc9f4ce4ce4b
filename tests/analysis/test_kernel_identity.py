"""The DPCP-p kernel returns exactly the bounds of its full-solve version.

The kernel decides a diverging bound before it solves any Lemma-2 window
(DESIGN.md, "A diverging bound is decided before its windows"): test 1
reads Theorem 1's window-free ``start`` and ``fixed`` terms, test 2 the
batched first step with ε at its floor.  Before a task is first
enumerated, the critical-path probe runs the same two tests on the
critical path alone (DESIGN.md, "A failing EP bound is decided from its
critical path").  This file keeps the kernel's bound paths as they were
before those tests, copied verbatim below (the ``_head_*`` functions,
``self`` made explicit, and no probe), and requires every EP and EN bound
of Algorithm 1 to match them bit for bit (``float.hex``) over paper-scale
Fig. 2 draws and a slice of the scenario grid; a probe decision counts as
an ``inf`` EP bound.  It also pins the two other parts of the same change
that must not move a result: the path DP's merge into the largest map,
and the WFD order computed once per task set.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import paths as paths_module
from repro.analysis.dpcp_p import kernel as kernel_module
from repro.analysis.dpcp_p.context import DpcpPContext
from repro.analysis.dpcp_p.kernel import DpcpPKernel, _diverges_at_start
from repro.analysis.dpcp_p.partition import (
    partition_and_analyze,
    wfd_assign_resources,
    wfd_order,
)
from repro.analysis.dpcp_p.wcrt import task_wcrt_ep as reference_task_wcrt_ep
from repro.analysis.engine.solver import (
    ETA_GUARD,
    NO_CONVERGENCE,
    solve_batched,
    solve_scalar,
    warn_no_convergence,
)
from repro.analysis.paths import PathEnumerator
from repro.campaign.planner import grid_scenarios
from repro.experiments.scenarios import full_grid
from repro.generation import (
    DagGenerationConfig,
    ResourceGenerationConfig,
    TaskSetGenerationConfig,
    generate_taskset,
)
from repro.generation.randfixedsum import GenerationError
from repro.model import Platform
from repro.model.dag import DAG
from repro.model.platform import Cluster, PartitionedSystem, minimal_federated_clusters
from repro.model.task import DAGTask, TaskSet, Vertex
from repro.obs.profile import ComputeProfile, render_profile
from repro.obs.telemetry import session

_ceil = math.ceil
_inf = math.inf


# --------------------------------------------------------------------------- #
# The kernel's bound paths before the early tests (verbatim, ``self`` explicit)
# --------------------------------------------------------------------------- #
def _head_window_scalar(self, lane, const, proc, bound):
    col = lane.hp_cols[proc]
    if not col:
        return 0.0 if const <= bound else _inf
    carried = self._carried_list
    periods = self._periods_list

    def recurrence(cur):
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
    total = 0.0
    for j, w in col:
        e = _ceil((solved + carried[j]) / periods[j] - ETA_GUARD)
        if e > 0:
            total += e * w
    return total


def _head_theorem1_scalar(
    self, lane, length, eps, intra_block, intra_interf, own_off_cluster, bound
):
    m_i = lane.m_i
    fixed = length + intra_block + (intra_interf + own_off_cluster) / m_i
    start = length + intra_block + intra_interf / m_i
    eps_cols = [
        (value, lane.other_cols[k]) for k, value in eps.items() if value > 0.0
    ]
    wcl = lane.wcl_col
    carried = self._carried_list
    periods = self._periods_list

    def recurrence(cur):
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

    solved, status = solve_scalar(recurrence, start, bound)
    if solved is None:
        if status == NO_CONVERGENCE:
            warn_no_convergence(1, bound)
        return _inf
    return solved


def _head_row_wcrt_scalar(self, lane, row, bound):
    length, n_g, local_block, intra_interf = row
    static = lane.static
    off: Dict[int, float] = {}
    sigma: Dict[int, bool] = {}
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
        sigma[k] = requested
    eps: Dict[int, float] = {}
    for g, n_path in enumerate(n_g):
        if n_path <= 0:
            continue
        k = lane.g_proc_list[g]
        beta = lane.beta_list[g]
        gamma = _head_window_scalar(self, lane, static.g_L[g] + off[k] + beta, k, bound)
        eps[k] = eps.get(k, 0.0) + n_path * (beta + gamma)
    intra_block = local_block
    for k in lane.use_procs:
        if sigma[k]:
            intra_block += off[k]
    own_off_cluster = sum(off[k] for k in lane.cluster_use_procs)
    return _head_theorem1_scalar(
        self, lane, length, eps, intra_block, intra_interf, own_off_cluster, bound
    )


def _head_task_wcrt_en_scalar(self, lane, bound):
    static = lane.static
    eps: Dict[int, float] = {}
    for g, rid in enumerate(static.ugr):
        k = lane.g_proc_list[g]
        beta = lane.beta_list[g]
        gamma = _head_window_scalar(
            self, lane, static.g_L[g] + lane.full_off[k] + beta, k, bound
        )
        eps[k] = eps.get(k, 0.0) + static.g_N[g] * (beta + gamma)
    intra_block = static.en_local_block + sum(
        lane.full_off[k] for k in lane.use_procs
    )
    intra_interf = max(0.0, static.wcet - static.crit_len)
    return _head_theorem1_scalar(
        self, lane, static.crit_len, eps, intra_block, intra_interf, 0.0, bound
    )


def _head_request_windows(self, lane, off_w, active, bound):
    P, G = active.shape
    gamma = np.zeros((P, G))
    flat = np.flatnonzero(active.ravel())
    if flat.size == 0:
        return gamma
    p_idx, g_idx = np.unravel_index(flat, (P, G))
    kcols = lane.g_proc[g_idx]
    static = lane.static
    const = static.g_L_arr[g_idx] + off_w[p_idx, kcols] + lane.beta_arr[g_idx]
    w_hp = self._W_np[:, kcols] * lane.hp[:, None]
    full = const.shape[0]

    def step(cur, idx):
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


def _head_epsilon(self, lane, nlam_g, gamma):
    P = nlam_g.shape[0]
    eps = np.zeros((P, self._num_procs))
    if lane.static.ugr:
        contrib = np.where(
            nlam_g > 0, nlam_g * (lane.beta_arr[None, :] + gamma), 0.0
        )
        for j, k in enumerate(lane.g_proc_list):
            eps[:, k] += contrib[:, j]
    return eps


def _head_theorem1_batched(
    self, lane, lengths, eps, intra_block, intra_interf, own_off_cluster, bound
):
    eps_active = eps[:, self._active_procs]
    m_i = lane.m_i
    fixed = lengths + intra_block + (intra_interf + own_off_cluster) / m_i
    start = lengths + intra_block + intra_interf / m_i

    def step(cur, idx):
        eta = self.tables.eta_matrix(cur)
        oth = eta * lane.other[:, None]
        zeta = oth.T @ self._W_active
        blocking = np.minimum(eps_active[idx], zeta).sum(axis=1)
        agents = oth.T @ lane.w_cluster
        return fixed[idx] + blocking + agents / m_i

    return solve_batched(start, step, bound)


def _head_ep_bounds_batched(self, lane, cols, bound):
    self._ensure_batched_arrays(lane)
    lengths = cols.enumeration.lengths
    P = len(lengths)
    num_procs = self._num_procs
    off_w = np.zeros((P, num_procs))
    has_req = np.zeros((P, num_procs), dtype=bool)
    for j, k in enumerate(lane.g_proc_list):
        off_w[:, k] += cols.off_g[:, j]
        has_req[:, k] |= cols.req_g[:, j]
    intra_block = cols.local_block + (off_w * has_req).sum(axis=1)
    if lane.cluster_procs.size:
        own_off_cluster = off_w[:, lane.cluster_procs].sum(axis=1)
    else:
        own_off_cluster = np.zeros(P)
    gamma = _head_request_windows(self, lane, off_w, cols.req_g, bound)
    eps = _head_epsilon(self, lane, cols.n_g, gamma)
    return _head_theorem1_batched(
        self, lane, lengths, eps, intra_block, cols.intra_interf,
        own_off_cluster, bound,
    )


def _head_task_wcrt_ep(self, task, enumeration, divergence_bound=None):
    if divergence_bound is None:
        divergence_bound = task.deadline
    lane = self._lane(task)
    cols = self.ep_columns(task, enumeration)
    worst = 0.0
    if cols.rows is None:
        bounds = _head_ep_bounds_batched(self, lane, cols, divergence_bound)
        if bounds.size:
            worst = float(bounds.max())
    else:
        for row in cols.rows:
            worst = max(worst, _head_row_wcrt_scalar(self, lane, row, divergence_bound))
            if math.isinf(worst):
                break
    if math.isinf(worst):
        return _inf
    if not enumeration.exhaustive:
        worst = max(worst, self.task_wcrt_en(task, divergence_bound))
    return worst


def _head_task_wcrt_en(self, task, divergence_bound=None):
    if divergence_bound is None:
        divergence_bound = task.deadline
    return _head_task_wcrt_en_scalar(self, self._lane(task), divergence_bound)


def _head_merge_max(maps):
    if len(maps) == 1:
        return maps[0]
    merged = dict(maps[0])
    for other in maps[1:]:
        for code, (length, cs) in other.items():
            old = merged.get(code)
            if old is None:
                merged[code] = (length, cs)
            elif length > old[0] or cs > old[1]:
                merged[code] = (max(length, old[0]), max(cs, old[1]))
    return merged


def _head_wfd_assign_resources(taskset, clusters):
    utilizations = {
        rid: taskset.resource_utilization(rid) for rid in taskset.global_resources()
    }
    resources = sorted(utilizations, key=lambda rid: utilizations[rid], reverse=True)
    capacity = {tid: float(c.size) for tid, c in clusters.items()}
    usage = {tid: taskset.task(tid).utilization for tid in clusters}
    processor_load = {
        proc: 0.0 for cluster in clusters.values() for proc in cluster.processors
    }
    assignment = {}
    for rid in resources:
        utilization = utilizations[rid]
        best_cluster = max(
            clusters, key=lambda tid: (capacity[tid] - usage[tid], -tid)
        )
        if usage[best_cluster] + utilization > capacity[best_cluster] + 1e-9:
            return False, {}, (
                f"resource {rid} (u={utilization:.3f}) does not fit in any "
                "cluster's utilization slack"
            )
        target = min(
            clusters[best_cluster].processors, key=lambda p: (processor_load[p], p)
        )
        assignment[rid] = target
        usage[best_cluster] += utilization
        processor_load[target] += utilization
    return True, assignment, ""


def _head_critical_path_diverges(self, task, divergence_bound=None):
    """No probe: every task a pass reaches is enumerated."""
    return False


# --------------------------------------------------------------------------- #
# Algorithm 1, every bound recorded
# --------------------------------------------------------------------------- #
def _recorded(ep, en, probe, log):
    def task_wcrt_ep(self, task, enumeration, divergence_bound=None):
        bound = ep(self, task, enumeration, divergence_bound)
        log.append(("EP", task.task_id, float(bound).hex()))
        return bound

    def task_wcrt_en(self, task, divergence_bound=None):
        bound = en(self, task, divergence_bound)
        log.append(("EN", task.task_id, float(bound).hex()))
        return bound

    def critical_path_diverges(self, task, divergence_bound=None):
        decided = probe(self, task, divergence_bound)
        if decided:  # the task's EP bound is ``inf``
            log.append(("EP", task.task_id, _inf.hex()))
        return decided

    return task_wcrt_ep, task_wcrt_en, critical_path_diverges


def _algorithm1_bounds(taskset, platform, ep, en, probe, monkeypatch) -> List[tuple]:
    """Every kernel bound of DPCP-p-EP and -EN's Algorithm 1, in call order."""
    log: List[tuple] = []
    with monkeypatch.context() as patch:
        recorded_ep, recorded_en, recorded_probe = _recorded(ep, en, probe, log)
        patch.setattr(DpcpPKernel, "task_wcrt_ep", recorded_ep)
        patch.setattr(DpcpPKernel, "task_wcrt_en", recorded_en)
        patch.setattr(DpcpPKernel, "critical_path_diverges", recorded_probe)
        for mode in ("EP", "EN"):
            result = partition_and_analyze(
                taskset, platform, mode=mode, enumerator=PathEnumerator()
            )
            log.append((mode, result.schedulable, result.reason))
    return log


def _draw(config, utilization, seed):
    try:
        return generate_taskset(utilization, config, rng=seed)
    except GenerationError:
        return None


def _cases(scenarios, step):
    return [
        (scenario.generation_config(), scenario.platform_size, utilization)
        for scenario in scenarios
        for utilization in scenario.utilization_points(step)
    ]


#: The four Fig. 2 panels at paper scale (v=10..100).
FIG2_CASES = _cases(grid_scenarios("fig2"), 0.25)
#: Every 9th scenario of the 216-scenario grid at v=10..30.
GRID_CASES = _cases(full_grid(num_vertices_range=(10, 30))[::9], 0.25)

#: Early-decision counters, one per kernel path.
EARLY = (
    "kernel.early.critical_path",
    "kernel.early.ep_batched",
    "kernel.early.ep_scalar",
    "kernel.early.en",
)


def _assert_identical(cases, seed, monkeypatch) -> Dict[str, int]:
    """Compare every bound; return the change's kernel counters."""
    with session() as tel:
        for config, processors, utilization in cases:
            taskset = _draw(config, utilization, seed)
            if taskset is None:
                continue
            platform = Platform(processors)
            new = _algorithm1_bounds(
                taskset,
                platform,
                DpcpPKernel.task_wcrt_ep,
                DpcpPKernel.task_wcrt_en,
                DpcpPKernel.critical_path_diverges,
                monkeypatch,
            )
            head = _algorithm1_bounds(
                taskset,
                platform,
                _head_task_wcrt_ep,
                _head_task_wcrt_en,
                _head_critical_path_diverges,
                monkeypatch,
            )
            assert new == head, (utilization, processors, seed)
    return tel.counters


@pytest.mark.filterwarnings("ignore::repro.analysis.engine.solver.FixedPointNoConvergence")
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fig2_bounds_match_the_full_solve(seed, monkeypatch):
    counters = _assert_identical(FIG2_CASES, seed, monkeypatch)
    decided = sum(counters.get(name, 0) for name in EARLY)
    # The sample reaches both outcomes: bounds decided early, and bounds
    # whose tests stayed silent and went through the windows.
    assert decided > 0
    assert counters["kernel.bounds"] > decided


@pytest.mark.filterwarnings("ignore::repro.analysis.engine.solver.FixedPointNoConvergence")
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_grid_bounds_match_the_full_solve(seed, monkeypatch):
    counters = _assert_identical(GRID_CASES, seed, monkeypatch)
    decided = sum(counters.get(name, 0) for name in EARLY)
    assert decided > 0
    assert counters["kernel.bounds"] > decided


def _explicit_enumeration_bounds(cases, seed) -> Dict[str, int]:
    """Every task's EP bound on its first WFD partition, enumerated up front.

    Inside Algorithm 1 the critical-path probe decides most failing tasks
    before they are enumerated, so it pre-empts the row tests; a caller
    that hands ``task_wcrt_ep`` an enumeration still reaches them.  Every
    bound must match the full solve.  Returns the kernel counters.
    """
    with session() as tel:
        for config, processors, utilization in cases:
            built = _kernel_for(config, seed, utilization, processors)
            if built is None:
                continue
            taskset, kernel = built
            enumerator = PathEnumerator()
            for task in taskset.by_priority(descending=True):
                enumeration = enumerator.enumerate(task)
                new = kernel.task_wcrt_ep(task, enumeration)
                head = _head_task_wcrt_ep(kernel, task, enumeration)
                assert new.hex() == head.hex(), (utilization, processors, seed)
    return tel.counters


@pytest.mark.filterwarnings("ignore::repro.analysis.engine.solver.FixedPointNoConvergence")
def test_every_early_path_fires_on_paper_scale_draws(monkeypatch):
    counters: Dict[str, int] = {}
    for seed in (1, 2, 3):
        for name, value in [
            *_assert_identical(FIG2_CASES[::2], seed, monkeypatch).items(),
            *_explicit_enumeration_bounds(FIG2_CASES[::2], seed).items(),
        ]:
            counters[name] = counters.get(name, 0) + value
    for name in EARLY:
        assert counters.get(name, 0) > 0, name


# --------------------------------------------------------------------------- #
# Row level: an early decision is always a diverging full solve
# --------------------------------------------------------------------------- #
SMALL_CONFIG = TaskSetGenerationConfig(
    average_utilization=1.5,
    dag=DagGenerationConfig(num_vertices_range=(6, 18), edge_probability=0.15),
    resources=ResourceGenerationConfig(
        num_resources_range=(3, 6),
        access_probability=0.6,
        request_count_range=(1, 10),
        cs_length_range=(15.0, 50.0),
    ),
)

#: Wide, sparse DAGs with enough request codes for the batched path.
WIDE_CONFIG = TaskSetGenerationConfig(
    average_utilization=1.5,
    dag=DagGenerationConfig(num_vertices_range=(35, 55), edge_probability=0.08),
    resources=ResourceGenerationConfig(
        num_resources_range=(6, 10),
        access_probability=0.7,
        request_count_range=(1, 20),
        cs_length_range=(15.0, 50.0),
    ),
)


def _kernel_for(config, seed, utilization, processors):
    taskset = _draw(config, utilization, seed)
    if taskset is None:
        return None
    platform = Platform(processors)
    clusters = minimal_federated_clusters(taskset, platform)
    if clusters is None:
        return None
    outcome = wfd_assign_resources(taskset, clusters)
    if not outcome.feasible:
        return None
    partition = PartitionedSystem(taskset, platform, clusters, outcome.assignment)
    return taskset, DpcpPKernel(taskset, partition)


@pytest.mark.filterwarnings("ignore::repro.analysis.engine.solver.FixedPointNoConvergence")
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    wide=st.booleans(),
    utilization=st.sampled_from([3.0, 5.5, 8.0]),
    scale=st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5]),
)
@settings(max_examples=40, deadline=None)
def test_property_early_decisions_are_diverging_solves(seed, wide, utilization, scale):
    built = _kernel_for(WIDE_CONFIG if wide else SMALL_CONFIG, seed, utilization, 16)
    if built is None:
        return
    taskset, kernel = built
    enumerator = PathEnumerator()
    for task in taskset.by_priority(descending=True):
        bound = task.deadline * scale
        lane = kernel._lane(task)
        # EN: test 1 on the task's one row.
        static = lane.static
        intra_block = static.en_local_block + sum(
            lane.full_off[k] for k in lane.use_procs
        )
        start, fixed = kernel_module._theorem1_terms(
            static.crit_len,
            intra_block,
            max(0.0, static.wcet - static.crit_len),
            0.0,
            lane.m_i,
        )
        if _diverges_at_start(start, fixed, bound):
            assert _head_task_wcrt_en_scalar(kernel, lane, bound) == _inf
        # EP: every row the tests decide must diverge in the full solve.
        cols = kernel.ep_columns(task, enumerator.enumerate(task))
        if cols.rows is not None:
            for row in cols.rows:
                _off, start, fixed = kernel._row_terms(lane, row)
                if _diverges_at_start(start, fixed, bound):
                    assert _head_row_wcrt_scalar(kernel, lane, row, bound) == _inf
        else:
            kernel._ensure_batched_arrays(lane)
            _off_w, start, fixed = kernel._batched_terms(lane, cols)
            decided = ~np.isfinite(start) | (start > bound) | (fixed > bound)
            if not decided.any():
                first = kernel._theorem1_parts(lane, start)
                decided = kernel._step_floor(lane, cols, fixed, first) > bound
            full = _head_ep_bounds_batched(kernel, lane, cols, bound)
            assert np.isinf(full[decided]).all()


@pytest.mark.filterwarnings("ignore::repro.analysis.engine.solver.FixedPointNoConvergence")
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    wide=st.booleans(),
    utilization=st.sampled_from([3.0, 5.5, 8.0]),
    scale=st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5]),
)
@settings(max_examples=30, deadline=None)
def test_property_probe_decisions_diverge_in_the_reference_engine(
    seed, wide, utilization, scale
):
    built = _kernel_for(WIDE_CONFIG if wide else SMALL_CONFIG, seed, utilization, 16)
    if built is None:
        return
    taskset, kernel = built
    ctx = DpcpPContext(taskset, kernel.partition)
    enumerator = PathEnumerator()
    for task in taskset.by_priority(descending=True):
        bound = task.deadline * scale
        if kernel.critical_path_diverges(task, bound):
            # The walk over raw paths, every path's bound from its vertices.
            assert reference_task_wcrt_ep(ctx, task, enumerator, bound) == _inf


# --------------------------------------------------------------------------- #
# The boundary: ``fixed == bound`` is a finite bound
# --------------------------------------------------------------------------- #
def _lonely_task_kernel():
    """One task without resources or neighbours: blocking and agents are 0.

    Critical path v0→v2 (7), WCET 10, two processors: Theorem 1's start and
    fixed terms are both 7 + 3 / 2 = 8.5, exactly.
    """
    task = DAGTask(
        task_id=0,
        vertices=[Vertex(0, 4.0), Vertex(1, 3.0), Vertex(2, 3.0)],
        dag=DAG(3, [(0, 2), (1, 2)]),
        period=100.0,
        priority=1,
    )
    taskset = TaskSet([task])
    partition = PartitionedSystem(
        taskset, Platform(2), {0: Cluster(0, [0, 1])}, {}
    )
    return task, DpcpPKernel(taskset, partition)


@pytest.mark.parametrize("path", ["EN", "EP-scalar", "EP-batched"])
def test_fixed_equal_to_the_bound_stays_finite(path, monkeypatch):
    if path == "EP-batched":
        monkeypatch.setattr(kernel_module, "BATCH_CUTOFF", 1)
    task, kernel = _lonely_task_kernel()
    enumeration = PathEnumerator().enumerate(task)

    def bound_of(divergence_bound):
        if path == "EN":
            return kernel.task_wcrt_en(task, divergence_bound)
        return kernel.task_wcrt_ep(task, enumeration, divergence_bound)

    assert (kernel.ep_columns(task, enumeration).rows is None) == (path == "EP-batched")
    assert bound_of(8.5) == 8.5
    assert bound_of(math.nextafter(8.5, 0.0)) == _inf


def test_probe_decides_only_beyond_its_margin():
    task, kernel = _lonely_task_kernel()
    enumeration = PathEnumerator().enumerate(task)
    # Just inside the margin: the probe stays silent, the row tests decide.
    inside = 8.5 / (1.0 + kernel_module.PROBE_MARGIN / 2)
    assert not kernel.critical_path_diverges(task, inside)
    assert kernel.task_wcrt_ep(task, enumeration, inside) == _inf
    outside = 8.5 / (1.0 + 2 * kernel_module.PROBE_MARGIN)
    assert kernel.critical_path_diverges(task, outside)
    assert kernel.task_wcrt_ep(task, enumeration, outside) == _inf
    assert not kernel.critical_path_diverges(task, 8.5)
    assert not kernel.critical_path_diverges(task, _inf)


# --------------------------------------------------------------------------- #
# Path maps merged into the largest, WFD order once per task set
# --------------------------------------------------------------------------- #
def _rows(result) -> List[Tuple]:
    return sorted(
        zip(
            map(tuple, result.counts.tolist()),
            result.lengths.tolist(),
            result.onpath_noncrit.tolist(),
        )
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_dp_rows_match_the_first_map_merge(seed, monkeypatch):
    for config, _processors, utilization in FIG2_CASES[::3]:
        taskset = _draw(config, utilization, seed)
        if taskset is None:
            continue
        for task in taskset:
            new = PathEnumerator().enumerate(task)
            with monkeypatch.context() as patch:
                patch.setattr(paths_module, "_merge_max", _head_merge_max)
                head = PathEnumerator().enumerate(task)
            assert new.exhaustive == head.exhaustive
            assert new.resource_ids == head.resource_ids
            assert _rows(new) == _rows(head)
            if len(new.lengths):
                assert new.lengths[0] == new.lengths.max()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_wfd_assignment_matches_the_per_pass_order(seed):
    for config, processors, utilization in FIG2_CASES + GRID_CASES[::4]:
        taskset = _draw(config, utilization, seed)
        if taskset is None:
            continue
        clusters = minimal_federated_clusters(taskset, Platform(processors))
        if clusters is None:
            continue
        order = wfd_order(taskset)
        # Widen clusters one processor at a time, as Algorithm 1's passes do.
        spare = [
            p for p in range(processors)
            if all(p not in c.processors for c in clusters.values())
        ]
        for tid in list(clusters)[: len(spare)]:
            outcome = wfd_assign_resources(taskset, clusters, order)
            head = _head_wfd_assign_resources(taskset, clusters)
            assert (outcome.feasible, outcome.assignment, outcome.reason) == head
            clusters[tid].processors.append(spare.pop())


# --------------------------------------------------------------------------- #
# Telemetry: decided bounds are counted per path and shown by the profile
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("path", ["EN", "EP-scalar", "EP-batched", "critical-path"])
def test_early_decisions_are_counted_and_profiled(path, monkeypatch):
    if path == "EP-batched":
        monkeypatch.setattr(kernel_module, "BATCH_CUTOFF", 1)
    with session() as tel:
        task, kernel = _lonely_task_kernel()
        enumeration = PathEnumerator().enumerate(task)
        for bound in (8.5, 8.0):  # solved, then decided (fixed 8.5 > 8.0)
            if path == "EN":
                kernel.task_wcrt_en(task, bound)
            elif path != "critical-path" or not kernel.critical_path_diverges(
                task, bound
            ):
                kernel.task_wcrt_ep(task, enumeration, bound)
    counter = {
        "EN": "kernel.early.en",
        "EP-scalar": "kernel.early.ep_scalar",
        "EP-batched": "kernel.early.ep_batched",
        "critical-path": "kernel.early.critical_path",
    }[path]
    assert tel.counters["kernel.bounds"] == 2
    assert tel.counters[counter] == 1
    assert sum(tel.counters.get(name, 0) for name in EARLY) == 1

    profile = ComputeProfile(store_directory="store")
    profile.telemetry = tel
    assert profile.early_decisions()["decided"] == 1
    text = render_profile(profile)
    assert "1 of 2 kernel bounds decided before their windows" in text
    label = {
        "EN": "1 EN",
        "EP-scalar": "1 EP scalar",
        "EP-batched": "1 EP batched",
        "critical-path": "(1 critical path,",
    }[path]
    assert label in text
