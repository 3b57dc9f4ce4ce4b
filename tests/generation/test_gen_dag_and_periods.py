"""Tests for the DAG generator and the period generator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generation.dag_gen import DagGenerationConfig, erdos_renyi_dag, random_dag
from repro.generation.periods import DEFAULT_PERIOD_RANGE_US, log_uniform_period
from repro.generation.randfixedsum import GenerationError
from repro.model.dag import DAG


# --------------------------------------------------------------------------- #
# DAG generation
# --------------------------------------------------------------------------- #
def test_erdos_renyi_respects_vertex_count():
    dag = erdos_renyi_dag(15, 0.2, rng=0)
    assert dag.num_vertices == 15
    # Acyclic by construction — topological sort succeeds.
    assert len(dag.topological_order()) == 15


def test_erdos_renyi_edge_probability_extremes():
    empty = erdos_renyi_dag(10, 0.0, rng=1)
    assert empty.num_edges == 0
    full = erdos_renyi_dag(10, 1.0, rng=1)
    assert full.num_edges == 10 * 9 // 2


def test_erdos_renyi_edges_follow_vertex_order():
    dag = erdos_renyi_dag(20, 0.3, rng=2)
    for src, dst in dag.edges:
        assert src < dst


def test_erdos_renyi_invalid_inputs():
    with pytest.raises(GenerationError):
        erdos_renyi_dag(0, 0.1)
    with pytest.raises(GenerationError):
        erdos_renyi_dag(5, 1.5)


def test_erdos_renyi_deterministic_with_seed():
    a = erdos_renyi_dag(12, 0.25, rng=99)
    b = erdos_renyi_dag(12, 0.25, rng=99)
    assert a.edges == b.edges


def _pairwise_loop_dag(num_vertices, edge_probability, generator):
    """The generator's former body: one ``add_edge`` per upper-triangle pair."""
    dag = DAG(num_vertices)
    if num_vertices == 1 or edge_probability == 0.0:
        return dag
    draws = generator.uniform(size=(num_vertices, num_vertices))
    for src in range(num_vertices):
        for dst in range(src + 1, num_vertices):
            if draws[src, dst] < edge_probability:
                dag.add_edge(src, dst)
    return dag


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2020])
@pytest.mark.parametrize("n", [1, 2, 10, 100])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
def test_bulk_edges_match_the_pairwise_loop(seed, n, p):
    bulk_rng = np.random.default_rng(seed)
    loop_rng = np.random.default_rng(seed)
    bulk = erdos_renyi_dag(n, p, rng=bulk_rng)
    loop = _pairwise_loop_dag(n, p, loop_rng)
    assert bulk.edges == loop.edges
    assert bulk.successor_lists() == loop.successor_lists()
    assert bulk.predecessor_lists() == loop.predecessor_lists()
    assert all(type(v) is int for edge in bulk.edges for v in edge)
    # Same draws consumed: the stream continues identically.
    assert bulk_rng.uniform() == loop_rng.uniform()


def test_random_dag_respects_config_range():
    config = DagGenerationConfig(num_vertices_range=(5, 9), edge_probability=0.2)
    for seed in range(10):
        dag = random_dag(config, rng=seed)
        assert 5 <= dag.num_vertices <= 9


def test_dag_config_validation():
    with pytest.raises(GenerationError):
        DagGenerationConfig(num_vertices_range=(5, 3))
    with pytest.raises(GenerationError):
        DagGenerationConfig(edge_probability=2.0)


@given(
    n=st.integers(min_value=1, max_value=40),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_property_generated_graphs_are_dags(n, p, seed):
    dag = erdos_renyi_dag(n, p, rng=seed)
    order = dag.topological_order()
    assert sorted(order) == list(range(n))
    assert dag.num_edges <= n * (n - 1) // 2


# --------------------------------------------------------------------------- #
# Periods
# --------------------------------------------------------------------------- #
def test_period_within_default_range():
    for seed in range(20):
        period = log_uniform_period(rng=seed)
        assert DEFAULT_PERIOD_RANGE_US[0] <= period <= DEFAULT_PERIOD_RANGE_US[1]


def test_periods_vector_shape_and_range():
    generator = np.random.default_rng(5)
    periods = np.array([log_uniform_period(1e3, 1e5, rng=generator) for _ in range(100)])
    assert periods.shape == (100,)
    assert (periods >= 1e3).all()
    assert (periods <= 1e5).all()


def test_periods_log_uniform_spread():
    generator = np.random.default_rng(11)
    periods = np.array([log_uniform_period(1e4, 1e6, rng=generator) for _ in range(4000)])
    # Under a log-uniform law, about half the mass lies below the geometric
    # mean of the bounds (1e5).
    below = float(np.mean(periods < 1e5))
    assert 0.4 < below < 0.6


def test_period_invalid_ranges():
    with pytest.raises(GenerationError):
        log_uniform_period(0.0, 10.0)
    with pytest.raises(GenerationError):
        log_uniform_period(100.0, 10.0)
