"""The task-set generator draws exactly what its former two-pass version drew.

Generation shapes vertex WCETs along the current longest path until
``L* < D/2`` (Sec. VII-A).  The production code does this with one fused
longest-path pass per step, a ``bincount`` request split and a one-shot
edge build.  This file keeps the generator as it was before those changes,
copied verbatim below (the ``_head_*`` functions), and requires both to
produce the same task sets bit for bit: every field, every adjacency order,
the same ``GenerationError`` messages, and the same next draw of the random
stream.  Stores and benchmark verdicts stay unchanged only while this holds.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.planner import grid_scenarios
from repro.experiments.scenarios import full_grid
from repro.generation import taskset_gen
from repro.generation.dag_gen import DagGenerationConfig, erdos_renyi_dag
from repro.generation.periods import log_uniform_period
from repro.generation.randfixedsum import GenerationError
from repro.generation.resources_gen import (
    ResourceGenerationConfig,
    draw_task_demands,
    scale_demands_to_budget,
)
from repro.generation.taskset_gen import (
    TaskSetGenerationConfig,
    _initial_weights,
    generate_taskset,
)
from repro.model.dag import DAG, DAGError
from repro.model.resources import ResourceUsage
from repro.model.task import DAGTask, Vertex
from repro.utils.rng import ensure_rng


# --------------------------------------------------------------------------- #
# The generator before the fused pass (verbatim, ``self`` made explicit)
# --------------------------------------------------------------------------- #
def _head_check_weights(dag: DAG, weights: Sequence[float]) -> None:
    if len(weights) != dag.num_vertices:
        raise DAGError(
            f"expected {dag.num_vertices} vertex weights, got {len(weights)}"
        )
    for w in weights:
        if w < 0:
            raise DAGError("vertex weights must be non-negative")


def _head_longest_path_length(dag: DAG, weights: Sequence[float]) -> float:
    _head_check_weights(dag, weights)
    best = [0.0] * dag.num_vertices
    for v in dag.topological_order():
        incoming = [best[u] for u in dag.predecessor_lists()[v]]
        best[v] = (max(incoming) if incoming else 0.0) + float(weights[v])
    return max(best) if best else 0.0


def _head_longest_path(dag: DAG, weights: Sequence[float]) -> List[int]:
    _head_check_weights(dag, weights)
    best = [0.0] * dag.num_vertices
    parent = [-1] * dag.num_vertices
    for v in dag.topological_order():
        incoming = [(best[u], u) for u in dag.predecessor_lists()[v]]
        if incoming:
            b, u = max(incoming)
            best[v] = b + float(weights[v])
            parent[v] = u
        else:
            best[v] = float(weights[v])
    end = max(range(dag.num_vertices), key=lambda v: best[v])
    path = [end]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _head_rebalance_critical_path(
    dag: DAG,
    weights: np.ndarray,
    floors: np.ndarray,
    limit: float,
    max_iterations: int = 200,
) -> Tuple[np.ndarray, DAG, bool]:
    weights = weights.astype(float).copy()
    for _ in range(max_iterations):
        lstar = _head_longest_path_length(dag, weights)
        if lstar < limit:
            return weights, dag, True
        path = _head_longest_path(dag, weights)
        on_path = np.zeros(len(weights), dtype=bool)
        on_path[list(path)] = True
        movable = (weights - floors) * on_path
        movable_total = float(movable.sum())
        receivers = ~on_path
        excess = lstar - limit
        if movable_total > 1e-12 and receivers.any():
            # Move just enough (plus a small margin) off the path.
            take = min(movable_total, excess * 1.05 + 1e-9)
            scale = take / movable_total
            taken = movable * scale
            weights = weights - taken
            weights[receivers] += taken.sum() / receivers.sum()
            continue
        # Cannot shift weight: break the longest path structurally.
        edge_to_remove = None
        for src, dst in zip(path, path[1:]):
            edge_to_remove = (src, dst)
            break
        if edge_to_remove is None:
            return weights, dag, bool(_head_longest_path_length(dag, weights) < limit)
        remaining = [e for e in dag.edges if e != edge_to_remove]
        dag = DAG(dag.num_vertices, remaining)
    return weights, dag, bool(_head_longest_path_length(dag, weights) < limit)


def _head_distribute_requests_over_vertices(
    total_requests: int, num_vertices: int, rng=None
) -> Dict[int, int]:
    if total_requests < 0:
        raise GenerationError("total_requests must be non-negative")
    if num_vertices < 1:
        raise GenerationError("num_vertices must be >= 1")
    if total_requests == 0:
        return {}
    generator = ensure_rng(rng)
    choices = generator.integers(0, num_vertices, size=total_requests)
    counts: Dict[int, int] = {}
    for vertex in choices:
        counts[int(vertex)] = counts.get(int(vertex), 0) + 1
    return counts


def _head_erdos_renyi_dag(num_vertices: int, edge_probability: float, rng=None) -> DAG:
    if num_vertices < 1:
        raise GenerationError("num_vertices must be >= 1")
    if not 0.0 <= edge_probability <= 1.0:
        raise GenerationError("edge probability must be in [0, 1]")
    generator = ensure_rng(rng)
    dag = DAG(num_vertices)
    if num_vertices == 1 or edge_probability == 0.0:
        return dag
    draws = generator.uniform(size=(num_vertices, num_vertices))
    sources, targets = np.nonzero(np.triu(draws < edge_probability, 1))
    # The former ``DAG.add_forward_edges``: one set probe and append per edge.
    for src, dst in zip(sources.tolist(), targets.tolist()):
        if not 0 <= src < dst < num_vertices:
            raise DAGError(f"edge ({src}, {dst}) is not a forward edge of this DAG")
        dag.add_edge(src, dst)
    return dag


def _head_random_dag(config: DagGenerationConfig, rng=None) -> DAG:
    generator = ensure_rng(rng)
    lo, hi = config.num_vertices_range
    num_vertices = int(generator.integers(lo, hi + 1))
    return _head_erdos_renyi_dag(num_vertices, config.edge_probability, generator)


def _head_generate_task_once(
    task_id: int,
    utilization: float,
    num_resources: int,
    config: TaskSetGenerationConfig,
    rng: np.random.Generator,
    attempt: int,
) -> DAGTask:
    dag = _head_random_dag(config.dag, rng)
    num_vertices = dag.num_vertices
    period = log_uniform_period(config.period_range[0], config.period_range[1], rng)
    deadline = period
    wcet = utilization * period

    budget_fraction = config.cs_budget_fraction / (1 + attempt)
    demands = draw_task_demands(num_resources, config.resources, rng)
    demands = scale_demands_to_budget(demands, budget_fraction * wcet)

    per_vertex_requests: Dict[int, Dict[int, int]] = {}
    floors = np.zeros(num_vertices)
    for demand in demands:
        split = _head_distribute_requests_over_vertices(
            demand.max_requests, num_vertices, rng
        )
        for vertex, count in split.items():
            per_vertex_requests.setdefault(vertex, {})[demand.resource_id] = count
            floors[vertex] += count * demand.cs_length

    weights = _initial_weights(floors, wcet, rng)
    limit = config.critical_path_fraction * deadline
    weights, dag, ok = _head_rebalance_critical_path(dag, weights, floors, limit)
    if not ok:
        raise GenerationError(
            f"could not shape task {task_id} to satisfy L* < {limit:.1f}"
        )

    vertices = [
        Vertex(index=v, wcet=float(weights[v]), requests=dict(per_vertex_requests.get(v, {})))
        for v in range(num_vertices)
    ]
    usages = [
        ResourceUsage(
            resource_id=demand.resource_id,
            max_requests=demand.max_requests,
            cs_length=demand.cs_length,
        )
        for demand in demands
    ]
    return DAGTask(
        task_id=task_id,
        vertices=vertices,
        dag=dag,
        period=period,
        deadline=deadline,
        resource_usages=usages,
        name=f"tau{task_id}",
    )


# --------------------------------------------------------------------------- #
# Comparison
# --------------------------------------------------------------------------- #
def _task_fields(task: DAGTask) -> tuple:
    usages = [
        (rid, u.max_requests, u.cs_length, list(u.per_vertex_requests.items()))
        for rid, u in task.resource_usages.items()
    ]
    return (
        task.task_id,
        task.name,
        task.period,
        task.deadline,
        task.priority,
        [(v.index, v.wcet, list(v.requests.items())) for v in task.vertices],
        # A list, not the set: the edge-removal fallback rebuilds in this order.
        list(task.dag.edges),
        task.dag.successor_lists(),
        task.dag.predecessor_lists(),
        usages,
    )


def _generate(utilization: float, config: TaskSetGenerationConfig, seed: int):
    """One draw: the task set (or error message) and the next stream value."""
    rng = np.random.default_rng(seed)
    try:
        result = generate_taskset(utilization, config, rng)
    except GenerationError as exc:
        result = str(exc)
    return result, rng.uniform()


def _outcome(result) -> tuple:
    if isinstance(result, str):
        return ("error", result)
    return ("ok", [_task_fields(task) for task in result], sorted(result.resources))


def _draw(utilization: float, config: TaskSetGenerationConfig, seed: int):
    """One draw: its task fields (or error message) and the next stream value."""
    result, next_value = _generate(utilization, config, seed)
    return _outcome(result), next_value


def _assert_identical(utilization, config, seed, monkeypatch):
    new = _draw(utilization, config, seed)
    with monkeypatch.context() as patch:
        patch.setattr(taskset_gen, "_generate_task_once", _head_generate_task_once)
        head = _draw(utilization, config, seed)
    assert new == head, (utilization, seed)
    return new[0][0]


def _cases(scenarios, step):
    return [
        (scenario.generation_config(), utilization)
        for scenario in scenarios
        for utilization in scenario.utilization_points(step)
    ]


#: The four Fig. 2 panels at paper scale (v=10..100).
FIG2_CASES = _cases(grid_scenarios("fig2"), 0.25)
#: Every 9th scenario of the 216-scenario grid at v=10..30.
GRID_CASES = _cases(full_grid(num_vertices_range=(10, 30))[::9], 0.25)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fig2_draws_match_the_two_pass_generator(seed, monkeypatch):
    for config, utilization in FIG2_CASES:
        _assert_identical(utilization, config, seed, monkeypatch)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_grid_draws_match_the_two_pass_generator(seed, monkeypatch):
    for config, utilization in GRID_CASES:
        _assert_identical(utilization, config, seed, monkeypatch)


def _small_config(edge_probability, critical_path_fraction, attempts=8):
    return TaskSetGenerationConfig(
        dag=DagGenerationConfig(
            num_vertices_range=(4, 12), edge_probability=edge_probability
        ),
        resources=ResourceGenerationConfig(num_resources_range=(2, 4)),
        critical_path_fraction=critical_path_fraction,
        max_attempts_per_task=attempts,
    )


@pytest.mark.parametrize("edge_probability", [0.3, 0.6, 0.9, 1.0])
def test_edge_build_matches_the_pairwise_build(edge_probability):
    # The edge set must also iterate in the same order: the fallback rebuilds
    # a DAG from ``dag.edges`` in set order.  A set filled in one ``update``
    # is sized differently from one grown edge by edge, and iterates in
    # another order once there are more than a handful of edges.
    for n in range(1, 41):
        new_rng = np.random.default_rng(n)
        head_rng = np.random.default_rng(n)
        new = erdos_renyi_dag(n, edge_probability, new_rng)
        head = _head_erdos_renyi_dag(n, edge_probability, head_rng)
        assert list(new.edges) == list(head.edges), n
        assert new.successor_lists() == head.successor_lists(), n
        assert new.predecessor_lists() == head.predecessor_lists(), n
        assert new.topological_order() == head.topological_order(), n
        assert new_rng.uniform() == head_rng.uniform(), n


def test_edge_removal_fallback_matches_the_two_pass_generator(monkeypatch):
    # Dense DAGs and a tight critical-path limit: the longest path often
    # covers every vertex, so no weight can move and an edge is removed.
    # At low utilization whole draws then succeed with a rebuilt DAG, whose
    # adjacency comes from iterating the old DAG's edge set.
    rebuilt: List[DAG] = []

    def recording_dag(*args):
        dag = DAG(*args)
        rebuilt.append(dag)
        return dag

    succeeded_after_rebuild = 0
    for utilization, edge_probability in [(0.5, 0.9), (0.5, 1.0), (2.0, 0.9)]:
        config = _small_config(edge_probability, critical_path_fraction=0.3)
        for seed in range(6):
            rebuilt.clear()
            with monkeypatch.context() as patch:
                patch.setattr(taskset_gen, "DAG", recording_dag)
                result, next_value = _generate(utilization, config, seed)
            new = _outcome(result), next_value
            with monkeypatch.context() as patch:
                patch.setattr(taskset_gen, "_generate_task_once", _head_generate_task_once)
                head = _draw(utilization, config, seed)
            assert new == head, (utilization, edge_probability, seed)
            if not isinstance(result, str):
                ids = {id(dag) for dag in rebuilt}
                succeeded_after_rebuild += any(
                    id(task.dag) in ids and task.dag.num_edges > 4 for task in result
                )
    assert succeeded_after_rebuild, "no draw succeeded after removing an edge"


def test_rebalance_with_edge_removal_matches_the_two_pass_version():
    # The rebalance step alone on dense DAGs, down to the rebuilt adjacency.
    # Each arm builds its own DAG, so the edge-set order feeds the rebuild.
    rebuilt_and_met = 0
    for seed in range(40):
        arms = []
        for build in (erdos_renyi_dag, _head_erdos_renyi_dag):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 14))
            dag = build(n, 0.9, rng)
            floors = rng.uniform(0.0, 5.0, n)
            weights = floors + rng.uniform(0.0, 2.0, n)
            limit = float(weights.sum()) * rng.uniform(0.3, 0.9)
            arms.append((dag, weights, floors, limit))
        (new_in, *new_args), (head_in, *head_args) = arms
        new_weights, new_dag, new_ok = taskset_gen._rebalance_critical_path(
            new_in, *new_args
        )
        head_weights, head_dag, head_ok = _head_rebalance_critical_path(
            head_in, *head_args
        )
        assert new_weights.tobytes() == head_weights.tobytes(), seed
        assert new_ok == head_ok, seed
        assert list(new_dag.edges) == list(head_dag.edges), seed
        assert new_dag.successor_lists() == head_dag.successor_lists(), seed
        assert new_dag.predecessor_lists() == head_dag.predecessor_lists(), seed
        rebuilt_and_met += new_ok and new_dag is not new_in
    assert rebuilt_and_met, "no rebalance met its limit after removing an edge"


def test_failed_draws_match_the_two_pass_generator(monkeypatch):
    # A limit this tight defeats every attempt for some tasks.
    config = _small_config(
        edge_probability=0.5, critical_path_fraction=0.05, attempts=2
    )
    outcomes = [
        _assert_identical(3.0, config, seed, monkeypatch) for seed in range(6)
    ]
    assert "error" in outcomes


# --------------------------------------------------------------------------- #
# The fused longest-path pass against the two former passes
# --------------------------------------------------------------------------- #
@st.composite
def shuffled_dags(draw):
    """DAGs whose edges are added in a random order, with a weight vector.

    Weights are small integers, so equal-length predecessors and equal-length
    path ends are common; adjacency lists are unsorted, so the tie-break
    itself is exercised, not the insertion order.
    """
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(s, d) for s in range(n) for d in range(s + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return DAG(n, edges), weights


@given(shuffled_dags())
@settings(max_examples=300, deadline=None)
def test_property_fused_pass_matches_the_two_passes(case):
    dag, weights = case
    lstar, path = dag.critical_path(weights)
    assert lstar == _head_longest_path_length(dag, weights)
    assert path == _head_longest_path(dag, weights)
    assert dag.longest_path_length(weights) == lstar
    assert dag.longest_path(weights) == path
