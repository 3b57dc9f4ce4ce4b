"""Tests for priority assignment (repro.model.priorities)."""

from __future__ import annotations

import pytest

from repro.model.dag import DAG
from repro.model.priorities import (
    apply_priorities,
    assign_rate_monotonic,
    rate_monotonic,
)
from repro.model.task import DAGTask, Vertex


def simple_task(task_id, period):
    return DAGTask(task_id=task_id, vertices=[Vertex(0, 1.0)], dag=DAG(1), period=period)


def test_rate_monotonic_orders_by_period():
    tasks = [simple_task(0, 100.0), simple_task(1, 10.0), simple_task(2, 50.0)]
    priorities = rate_monotonic(tasks)
    # Shorter period -> higher priority value.
    assert priorities[1] > priorities[2] > priorities[0]
    assert sorted(priorities.values()) == [1, 2, 3]


def test_ties_broken_by_task_id_deterministically():
    tasks = [simple_task(0, 10.0), simple_task(1, 10.0)]
    priorities = rate_monotonic(tasks)
    assert priorities[0] > priorities[1]
    # Re-running yields the same assignment.
    assert rate_monotonic(tasks) == priorities


def test_apply_priorities_in_place():
    tasks = [simple_task(0, 100.0), simple_task(1, 10.0)]
    assign_rate_monotonic(tasks)
    assert tasks[1].priority > tasks[0].priority
    apply_priorities(tasks, {0: 2, 1: 1})
    assert tasks[0].priority > tasks[1].priority


def test_apply_priorities_requires_every_task():
    tasks = [simple_task(0, 100.0), simple_task(1, 10.0)]
    with pytest.raises(KeyError):
        apply_priorities(tasks, {0: 1})


def test_priorities_are_unique(small_taskset):
    priorities = [t.priority for t in small_taskset]
    assert len(set(priorities)) == len(priorities)
