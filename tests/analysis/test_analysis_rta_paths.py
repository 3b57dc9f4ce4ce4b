"""Tests for the fixed-point helpers and the path enumerator."""

from __future__ import annotations

import gc
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.engine.solver import solve_scalar
from repro.analysis.paths import PathEnumerator
from repro.analysis.rta import (
    CONVERGED,
    DIVERGED,
    NO_CONVERGENCE,
    FixedPointNoConvergence,
    ceil_div_jobs,
    least_fixed_point,
)
from repro.model.dag import DAG
from repro.model.resources import ResourceUsage
from repro.model.task import DAGTask, Vertex


# --------------------------------------------------------------------------- #
# least_fixed_point
# --------------------------------------------------------------------------- #
def test_fixed_point_constant_recurrence():
    assert least_fixed_point(lambda x: 5.0, 5.0, 100.0) == pytest.approx(5.0)


def test_fixed_point_affine_recurrence():
    # x = 2 + 0.5 x  ->  x = 4
    solution = least_fixed_point(lambda x: 2.0 + 0.5 * x, 2.0, 100.0)
    assert solution == pytest.approx(4.0, abs=1e-4)


def test_fixed_point_step_recurrence():
    # Classic RTA shape: x = 1 + ceil(x / 4) * 2 -> least fixed point is 3.
    solution = least_fixed_point(lambda x: 1.0 + math.ceil(x / 4.0) * 2.0, 1.0, 100.0)
    assert solution == pytest.approx(3.0)


def test_fixed_point_divergence_returns_none():
    assert least_fixed_point(lambda x: x + 1.0, 0.0, 50.0) is None


def test_fixed_point_start_beyond_bound_returns_none():
    assert least_fixed_point(lambda x: x, 10.0, 5.0) is None


def test_fixed_point_rejects_nan_and_inf():
    assert least_fixed_point(lambda x: float("nan"), 1.0, 10.0) is None
    assert least_fixed_point(lambda x: x, float("inf"), 10.0) is None


def test_fixed_point_status_distinguishes_outcomes():
    value, status = solve_scalar(lambda x: 5.0, 5.0, 100.0)
    assert status == CONVERGED and value == pytest.approx(5.0)
    # Diverged: the iterate crosses the bound.
    value, status = solve_scalar(lambda x: x + 1.0, 0.0, 50.0)
    assert (value, status) == (None, DIVERGED)
    # Diverged: the start already exceeds the bound, or the recurrence is NaN.
    assert solve_scalar(lambda x: x, 10.0, 5.0)[1] == DIVERGED
    assert solve_scalar(lambda x: float("nan"), 1.0, 10.0)[1] == DIVERGED
    # No convergence: creeps upward by more than the tolerance per step but
    # cannot reach the bound within the iteration cap.
    value, status = solve_scalar(lambda x: x + 3e-6, 0.0, 1.0)
    assert (value, status) == (None, NO_CONVERGENCE)


def test_fixed_point_warns_on_no_convergence():
    with pytest.warns(FixedPointNoConvergence):
        assert least_fixed_point(lambda x: x + 3e-6, 0.0, 1.0) is None


@given(
    constant=st.floats(min_value=0.1, max_value=10.0),
    slope=st.floats(min_value=0.0, max_value=0.9),
)
@settings(max_examples=50, deadline=None)
def test_property_affine_fixed_point(constant, slope):
    expected = constant / (1.0 - slope)
    bound = expected * 2 + 10
    solution = least_fixed_point(lambda x: constant + slope * x, constant, bound)
    assert solution is not None
    assert solution == pytest.approx(expected, rel=1e-3, abs=1e-3)


# --------------------------------------------------------------------------- #
# ceil_div_jobs (eta)
# --------------------------------------------------------------------------- #
def test_ceil_div_jobs_basic():
    # eta(L) = ceil((L + R) / T)
    assert ceil_div_jobs(10.0, 10.0, 10.0) == 2
    assert ceil_div_jobs(0.0, 10.0, 10.0) == 1
    assert ceil_div_jobs(25.0, 10.0, 5.0) == 3
    assert ceil_div_jobs(-5.0, 10.0, 5.0) == 1


def test_ceil_div_jobs_requires_positive_period():
    with pytest.raises(ValueError):
        ceil_div_jobs(1.0, 0.0, 1.0)


@given(
    interval=st.floats(min_value=0, max_value=1e6),
    period=st.floats(min_value=1.0, max_value=1e6),
    response=st.floats(min_value=0, max_value=1e6),
)
@settings(max_examples=50, deadline=None)
def test_property_eta_monotone(interval, period, response):
    eta = ceil_div_jobs(interval, period, response)
    assert eta >= 0
    assert ceil_div_jobs(interval + period, period, response) >= eta
    assert ceil_div_jobs(interval, period, response + period) >= eta


# --------------------------------------------------------------------------- #
# Path enumeration
# --------------------------------------------------------------------------- #
def build_task_with_paths():
    """A diamond task where the two branches differ in resource usage."""
    dag = DAG(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    vertices = [
        Vertex(0, 2.0),
        Vertex(1, 5.0, requests={9: 1}),
        Vertex(2, 5.0),
        Vertex(3, 1.0),
    ]
    usages = [ResourceUsage(9, 1, 1.0)]
    return DAGTask(0, vertices, dag, period=100.0, resource_usages=usages)


def test_enumerator_distinguishes_paths_by_requests():
    task = build_task_with_paths()
    result = PathEnumerator().enumerate(task)
    assert result.exhaustive
    # Both paths have length 8 but different request vectors -> 2 signatures.
    assert len(result.profiles) == 2
    requests = sorted(p.request_count(9) for p in result.profiles)
    assert requests == [0, 1]


def test_enumerator_deduplicates_equivalent_paths():
    dag = DAG(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    vertices = [Vertex(0, 1.0), Vertex(1, 2.0), Vertex(2, 2.0), Vertex(3, 1.0)]
    task = DAGTask(0, vertices, dag, period=50.0)
    result = PathEnumerator().enumerate(task)
    assert result.exhaustive
    assert result.total_paths_seen == 2
    assert len(result.profiles) == 1  # identical signatures collapse


def test_enumerator_caches_results():
    task = build_task_with_paths()
    enumerator = PathEnumerator()
    first = enumerator.enumerate(task)
    second = enumerator.enumerate(task)
    assert first is second
    enumerator.clear()
    assert enumerator.enumerate(task) is not first


def test_enumerator_cap_falls_back_to_critical_path():
    # A wide parallel DAG with an exponential number of paths.
    layers = 10
    edges = []
    n = 2 * layers
    for layer in range(layers - 1):
        for a in (2 * layer, 2 * layer + 1):
            for b in (2 * layer + 2, 2 * layer + 3):
                edges.append((a, b))
    dag = DAG(n, edges)
    vertices = [Vertex(i, 1.0) for i in range(n)]
    task = DAGTask(0, vertices, dag, period=1000.0)
    enumerator = PathEnumerator(max_signatures=4, max_paths=16)
    result = enumerator.enumerate(task)
    assert not result.exhaustive
    assert len(result.profiles) >= 1
    assert result.profiles[0].length == pytest.approx(task.critical_path_length)


def test_enumerator_rejects_bad_caps():
    with pytest.raises(ValueError):
        PathEnumerator(max_signatures=0)
    with pytest.raises(ValueError):
        PathEnumerator(max_paths=0)


def test_enumerated_profiles_match_task_quantities(small_taskset):
    enumerator = PathEnumerator()
    for task in small_taskset:
        result = enumerator.enumerate(task)
        lstar = task.critical_path_length
        assert result.profiles, "every task has at least one complete path"
        longest = max(p.length for p in result.profiles)
        if result.exhaustive:
            assert longest == pytest.approx(lstar)
        for profile in result.profiles:
            assert profile.length <= lstar + 1e-6
            for rid, count in profile.requests.items():
                assert count <= task.request_count(rid)


# --------------------------------------------------------------------------- #
# Signature-DP vs reference walk
# --------------------------------------------------------------------------- #
def build_layered_task(layers=6, width=2, distinct_weights=True):
    """A layered DAG with width**layers paths (distinct lengths if requested)."""
    n = width * layers
    edges = []
    for layer in range(layers - 1):
        for a in range(width):
            for b in range(width):
                edges.append((layer * width + a, (layer + 1) * width + b))
    dag = DAG(n, edges)
    vertices = [
        Vertex(i, 1.0 + (0.01 * i if distinct_weights else 0.0)) for i in range(n)
    ]
    return DAGTask(0, vertices, dag, period=10_000.0)


def test_dp_scales_past_walk_path_cap():
    """The DP stays exhaustive where the walk would drown in raw paths.

    2**20 raw paths exceed any reasonable walk budget, but all paths share
    one signature per layer choice pattern — the DP visits each vertex once.
    """
    task = build_layered_task(layers=20, width=2, distinct_weights=False)
    dp = PathEnumerator(max_paths=2_000_000).enumerate(task)
    assert dp.exhaustive
    assert dp.total_paths_seen == 2**20
    assert len(dp.profiles) == 1  # all paths are analysis-equivalent


def test_dp_keys_on_request_code_alone():
    """Paths with one request vector are one row, however their lengths differ.

    256 raw paths of request-free diamonds with distinct branch lengths: one
    code, so one row carrying the longest path — exhaustive even at a cap of
    one, where the former ``(rounded length, code)`` keys tripped.
    """
    diamonds = 8
    n = 3 * diamonds + 1
    edges = []
    for d in range(diamonds):
        base = 3 * d
        edges += [(base, base + 1), (base, base + 2), (base + 1, base + 3), (base + 2, base + 3)]
    dag = DAG(n, edges)
    # The second branch of diamond d is 0.001 * 2**d longer: 256 lengths.
    vertices = [
        Vertex(i, 0.3 + (0.001 * 2 ** (i // 3) if i % 3 == 2 else 0.0))
        for i in range(n)
    ]
    task = DAGTask(0, vertices, dag, period=10_000.0)
    enumerator = PathEnumerator(max_signatures=1)
    dp, walk = enumerator.enumerate(task), enumerator.walk(task)
    assert dp.exhaustive and dp.total_paths_seen == 256
    assert len(dp.profiles) == 1
    assert dp.lengths[0] == pytest.approx(task.critical_path_length)
    assert dp.onpath_noncrit[0] == dp.lengths[0]  # no critical sections
    # The walk ignores the signature cap: every raw path, one per length.
    assert walk.exhaustive and len(walk.profiles) == 256


def test_dp_dedups_at_signature_rounding_granularity():
    """Lengths differing below 1e-9 are one signature for DP and walk alike.

    Regression: keying the DP's per-vertex sets on exact float lengths let
    sub-tolerance length differences inflate them past the cap, flagging a
    task non-exhaustive (→ pessimistic EN fallback) where the walk stayed
    exhaustive with a single rounded signature.  Code keys ignore lengths
    altogether (see ``test_dp_keys_on_request_code_alone``).
    """
    diamonds = 8
    n = 3 * diamonds + 1
    edges = []
    for d in range(diamonds):
        base = 3 * d
        edges += [(base, base + 1), (base, base + 2), (base + 1, base + 3), (base + 2, base + 3)]
    dag = DAG(n, edges)
    vertices = []
    for i in range(n):
        branch = i % 3 == 2 and i < n - 1  # second branch of each diamond
        vertices.append(Vertex(i, 0.3 + (1e-11 if branch else 0.0)))
    task = DAGTask(0, vertices, dag, period=10_000.0)  # 2**8 = 256 raw paths
    enumerator = PathEnumerator(max_signatures=8)
    dp, walk = enumerator.enumerate(task), enumerator.walk(task)
    assert walk.exhaustive and len(walk.profiles) == 1
    assert dp.exhaustive and len(dp.profiles) == 1
    assert dp.profiles[0].signature() == walk.profiles[0].signature()


def test_dp_signature_cap_falls_back_non_exhaustive():
    # 128 paths; each layer's two vertices request different resources, so
    # the DP sees 8 distinct complete codes and trips a cap of 4 mid-DP.
    task = build_layered_task(layers=7, width=2)
    vertices = [
        Vertex(v.index, v.wcet, requests={v.index % 2: 1}) for v in task.vertices
    ]
    usages = [ResourceUsage(0, 7, 0.1), ResourceUsage(1, 7, 0.1)]
    task = DAGTask(0, vertices, task.dag, period=10_000.0, resource_usages=usages)
    assert PathEnumerator(max_signatures=8).enumerate(task).exhaustive
    result = PathEnumerator(max_signatures=4, max_paths=40_000).enumerate(task)
    assert not result.exhaustive
    assert result.profiles[0].length == pytest.approx(task.critical_path_length)


# --------------------------------------------------------------------------- #
# Cache lifetime (weak keys instead of recyclable id() keys)
# --------------------------------------------------------------------------- #
def test_cache_entries_die_with_their_task():
    enumerator = PathEnumerator()
    task = build_task_with_paths()
    first = enumerator.enumerate(task)
    assert enumerator.enumerate(task) is first
    del task
    gc.collect()
    assert len(enumerator._cache) == 0
    # A new task object (potentially reusing the old id()) gets a fresh walk.
    other = build_task_with_paths()
    assert enumerator.enumerate(other) is not first


def test_cache_invalidated_by_dag_mutation():
    """add_edge (the supported DAG mutation) must not serve stale profiles."""
    enumerator = PathEnumerator()
    task = build_task_with_paths()  # diamond: 0→{1,2}→3
    first = enumerator.enumerate(task)
    assert len(first.profiles) == 2
    task.dag.add_edge(1, 2)  # new path 0→1→2→3 joins the two originals
    second = enumerator.enumerate(task)
    assert second is not first
    assert second.total_paths_seen == 3
    assert max(p.length for p in second.profiles) == pytest.approx(
        task.critical_path_length
    )


def test_enumerator_pickles_without_cache():
    """Campaign workers receive protocols (and enumerators) via pickle."""
    import pickle

    enumerator = PathEnumerator(max_signatures=7, max_paths=99)
    task = build_task_with_paths()
    enumerator.enumerate(task)
    enumerator.walk(task)
    clone = pickle.loads(pickle.dumps(enumerator))
    assert (clone.max_signatures, clone.max_paths) == (7, 99)
    assert len(clone._cache) == 0 and len(clone._walk_cache) == 0
    assert clone.enumerate(task).exhaustive
    assert clone.walk(task).exhaustive
