"""Tests for the DAG structure (repro.model.dag)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.dag import DAG, DAGError, Edge, PathProfile


# --------------------------------------------------------------------------- #
# Construction and validation
# --------------------------------------------------------------------------- #
def test_single_vertex_dag():
    dag = DAG(1)
    assert dag.num_vertices == 1
    assert dag.num_edges == 0
    assert dag.sources() == [0]
    assert dag.sinks() == [0]


def test_requires_at_least_one_vertex():
    with pytest.raises(DAGError):
        DAG(0)


def test_rejects_self_loop():
    with pytest.raises(DAGError):
        DAG(2, [(0, 0)])
    with pytest.raises(DAGError):
        Edge(1, 1)


def test_rejects_out_of_range_edges():
    with pytest.raises(DAGError):
        DAG(2, [(0, 2)])
    with pytest.raises(DAGError):
        DAG(2, [(-1, 0)])


def test_rejects_cycles():
    with pytest.raises(DAGError):
        DAG(3, [(0, 1), (1, 2), (2, 0)])


def test_duplicate_edges_are_idempotent():
    dag = DAG(2, [(0, 1), (0, 1)])
    assert dag.num_edges == 1


def test_add_forward_edges_matches_add_edge():
    bulk = DAG(5)
    bulk.add_forward_edges([0, 0, 1, 0, 3], [2, 1, 4, 2, 4])
    single = DAG(5)
    for src, dst in [(0, 2), (0, 1), (1, 4), (3, 4)]:
        single.add_edge(src, dst)
    assert bulk.edges == single.edges
    assert bulk.successor_lists() == single.successor_lists()
    assert bulk.predecessor_lists() == single.predecessor_lists()
    assert bulk.topological_order() == single.topological_order()


@pytest.mark.parametrize("edge", [(1, 1), (2, 1), (-1, 2), (0, 5)])
def test_add_forward_edges_rejects_backward_or_unknown(edge):
    dag = DAG(5)
    with pytest.raises(DAGError):
        dag.add_forward_edges([edge[0]], [edge[1]])


def test_add_forward_edges_skips_edges_already_present():
    dag = DAG(4, [(1, 2)])
    dag.add_forward_edges([0, 1, 2, 0], [1, 2, 3, 1])
    assert dag.successor_lists() == [[1], [2], [3], []]
    assert dag.predecessor_lists() == [[], [0], [1], [2]]


def test_add_forward_edges_rejects_the_whole_batch():
    dag = DAG(3)
    with pytest.raises(DAGError):
        dag.add_forward_edges([0, 2], [1, 1])
    assert dag.num_edges == 0


def test_accepts_edge_objects():
    dag = DAG(3, [Edge(0, 1), Edge(1, 2)])
    assert dag.edges == {(0, 1), (1, 2)}


# --------------------------------------------------------------------------- #
# Structure queries
# --------------------------------------------------------------------------- #
def diamond() -> DAG:
    """0 -> {1, 2} -> 3."""
    return DAG(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def test_successors_predecessors():
    dag = diamond()
    assert sorted(dag.successors(0)) == [1, 2]
    assert sorted(dag.predecessors(3)) == [1, 2]
    assert dag.predecessors(0) == []
    assert dag.successors(3) == []


def test_sources_and_sinks():
    dag = diamond()
    assert dag.sources() == [0]
    assert dag.sinks() == [3]


def test_topological_order_respects_edges():
    dag = diamond()
    order = dag.topological_order()
    positions = {v: i for i, v in enumerate(order)}
    for src, dst in dag.edges:
        assert positions[src] < positions[dst]


# --------------------------------------------------------------------------- #
# Longest path
# --------------------------------------------------------------------------- #
def test_longest_path_length_diamond():
    dag = diamond()
    weights = [1.0, 5.0, 2.0, 1.0]
    assert dag.longest_path_length(weights) == pytest.approx(7.0)
    assert dag.longest_path(weights) == [0, 1, 3]


def test_longest_path_with_isolated_vertices():
    dag = DAG(3)  # no edges: every vertex is its own complete path
    weights = [1.0, 7.0, 3.0]
    assert dag.longest_path_length(weights) == pytest.approx(7.0)
    assert dag.longest_path(weights) == [1]


def test_longest_path_rejects_bad_weights():
    dag = diamond()
    with pytest.raises(DAGError):
        dag.longest_path_length([1.0, 2.0])
    with pytest.raises(DAGError):
        dag.longest_path_length([1.0, -2.0, 1.0, 1.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_longest_path_rejects_non_finite_weights(bad):
    # NaN compares false with everything, so it used to pass the
    # non-negativity check and yield an arbitrary "longest" path.
    dag = diamond()
    for position in range(4):
        weights = [1.0, 2.0, 3.0, 4.0]
        weights[position] = bad
        with pytest.raises(DAGError):
            dag.critical_path(weights)
        with pytest.raises(DAGError):
            dag.longest_path(weights)


# --------------------------------------------------------------------------- #
# Complete paths
# --------------------------------------------------------------------------- #
def test_complete_paths_diamond():
    dag = diamond()
    paths = set(dag.iter_complete_paths())
    assert paths == {(0, 1, 3), (0, 2, 3)}
    assert dag.count_complete_paths() == 2


def test_complete_paths_with_limit():
    dag = diamond()
    paths = list(dag.iter_complete_paths(limit=1))
    assert len(paths) == 1


def test_count_complete_paths_with_limit():
    dag = diamond()
    assert dag.count_complete_paths(limit=1) == 1
    assert dag.count_complete_paths(limit=10) == 2


def test_complete_paths_isolated_vertices():
    dag = DAG(3)
    assert set(dag.iter_complete_paths()) == {(0,), (1,), (2,)}
    assert dag.count_complete_paths() == 3


def test_paths_follow_edges():
    dag = DAG(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
    for path in dag.iter_complete_paths():
        for a, b in zip(path, path[1:]):
            assert b in dag.successors(a)


# --------------------------------------------------------------------------- #
# PathProfile
# --------------------------------------------------------------------------- #
def test_path_profile_signature_and_request_count():
    profile = PathProfile(vertices=(0, 1), length=3.5, requests={2: 4})
    assert profile.request_count(2) == 4
    assert profile.request_count(9) == 0
    other = PathProfile(vertices=(5, 6), length=3.5, requests={2: 4})
    assert profile.signature() == other.signature()
    different = PathProfile(vertices=(5, 6), length=3.5, requests={2: 5})
    assert profile.signature() != different.signature()


# --------------------------------------------------------------------------- #
# Property-based tests
# --------------------------------------------------------------------------- #
@st.composite
def random_dags(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    edges = []
    for src in range(n):
        for dst in range(src + 1, n):
            if draw(st.booleans()):
                edges.append((src, dst))
    return DAG(n, edges)


@given(random_dags())
@settings(max_examples=60, deadline=None)
def test_property_topological_order_is_permutation(dag):
    order = dag.topological_order()
    assert sorted(order) == list(range(dag.num_vertices))


@given(random_dags(), st.lists(st.floats(min_value=0, max_value=100), min_size=12, max_size=12))
@settings(max_examples=60, deadline=None)
def test_property_longest_path_consistency(dag, raw_weights):
    weights = raw_weights[: dag.num_vertices]
    length = dag.longest_path_length(weights)
    path = dag.longest_path(weights)
    assert sum(weights[v] for v in path) == pytest.approx(length)
    # The longest path never exceeds the total weight and is at least the
    # heaviest single vertex.
    assert length <= sum(weights) + 1e-9
    assert length >= max(weights) - 1e-9


@given(random_dags())
@settings(max_examples=40, deadline=None)
def test_property_complete_paths_cover_sources_and_sinks(dag):
    count = 0
    for path in dag.iter_complete_paths(limit=500):
        count += 1
        assert path[0] in dag.sources()
        assert path[-1] in dag.sinks()
    assert count == dag.count_complete_paths(limit=500)
