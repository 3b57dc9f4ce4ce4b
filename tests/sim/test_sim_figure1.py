"""The simulator reproduces the protocol behaviours of the paper's Fig. 1."""

from __future__ import annotations

import pytest

from repro.sim import RuntimeSimulator, build_figure1_system
from repro.sim.paper_example import RESOURCE_GLOBAL, RESOURCE_LOCAL


@pytest.fixture
def figure1_trace(figure1_system):
    partition, behaviors = figure1_system
    simulator = RuntimeSimulator(partition, behaviors)
    simulator.release_job(0, 0.0)  # tau_i
    simulator.release_job(1, 0.0)  # tau_j
    return simulator.run()


def test_tasks_and_resources_are_set_up_as_in_the_paper(figure1_system):
    partition, _ = figure1_system
    taskset = partition.taskset
    task_i, task_j = taskset.task(0), taskset.task(1)
    assert task_i.critical_path_length == pytest.approx(10.0)  # (v1, v5, v7, v8)
    assert task_j.critical_path_length == pytest.approx(6.0)
    assert taskset.is_global(RESOURCE_GLOBAL)
    assert not taskset.is_global(RESOURCE_LOCAL)
    assert partition.processor_of_resource(RESOURCE_GLOBAL) == 1
    assert partition.num_processors_of(0) == 2
    assert partition.num_processors_of(1) == 2


def test_global_requests_follow_the_narrative(figure1_trace):
    """R_j,1 holds l1 over [1, 4]; R_i,1 is issued at 2, granted at 4, done at 7."""
    requests = {r.task_id: r for r in figure1_trace.requests}
    request_j = requests[1]
    request_i = requests[0]
    assert request_j.issue_time == pytest.approx(1.0)
    assert request_j.grant_time == pytest.approx(1.0)
    assert request_j.finish_time == pytest.approx(4.0)
    assert request_i.issue_time == pytest.approx(2.0)
    assert request_i.grant_time == pytest.approx(4.0)  # waits in SQ^G_2
    assert request_i.finish_time == pytest.approx(7.0)


def test_agents_execute_on_the_resource_home_processor(figure1_trace):
    agent_intervals = [i for i in figure1_trace.intervals if i.is_agent]
    assert agent_intervals, "global requests must be executed by agents"
    assert all(i.processor == 1 for i in agent_intervals)
    assert all(i.resource == RESOURCE_GLOBAL for i in agent_intervals)


def test_local_resource_serialises_vi3_and_vi4(figure1_trace):
    local = sorted(
        (i for i in figure1_trace.intervals if i.resource == RESOURCE_LOCAL),
        key=lambda i: i.start,
    )
    assert len(local) == 2
    first, second = local
    # v_i,3 holds l2 during [2, 4]; v_i,4 only afterwards.
    assert first.start == pytest.approx(2.0)
    assert first.end == pytest.approx(4.0)
    assert second.start == pytest.approx(4.0)
    assert second.end == pytest.approx(6.0)
    # Local requests execute inside tau_i's own cluster.
    assert {first.processor, second.processor} <= {2, 3}


def test_schedule_is_valid_and_meets_deadlines(figure1_trace):
    assert figure1_trace.check_all() == []
    assert figure1_trace.deadline_misses() == []
    response_i = figure1_trace.worst_response_time(0)
    response_j = figure1_trace.worst_response_time(1)
    assert response_i == pytest.approx(11.0)
    assert response_j == pytest.approx(12.0)


def test_gantt_rendering_mentions_agents(figure1_trace):
    art = figure1_trace.render_gantt(time_step=1.0)
    assert "A" in art
    assert "P1" in art
