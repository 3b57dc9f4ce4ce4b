"""Base-priority assignment policies.

The paper assigns base priorities with the Rate Monotonic (RM) heuristic
(Sec. VII-A).  We use the convention that *larger numbers mean higher
priority*, i.e. ``pi_i < pi_h`` means :math:`\\tau_i` has lower priority than
:math:`\\tau_h`, matching the paper's notation.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from .task import DAGTask


def _assign(tasks: Sequence[DAGTask], key: Callable[[DAGTask], float]) -> Dict[int, int]:
    """Assign distinct priorities ``1..n`` (n = highest) by ascending ``key``.

    Ties are broken by task id so that the assignment is deterministic.
    """
    ordered = sorted(tasks, key=lambda t: (key(t), t.task_id))
    priorities: Dict[int, int] = {}
    for rank, task in enumerate(ordered):
        priorities[task.task_id] = len(ordered) - rank
    return priorities


def rate_monotonic(tasks: Sequence[DAGTask]) -> Dict[int, int]:
    """Rate Monotonic: shorter period → higher priority."""
    return _assign(tasks, key=lambda t: t.period)


def apply_priorities(tasks: Sequence[DAGTask], priorities: Dict[int, int]) -> None:
    """Write a priority mapping back onto the task objects (in place)."""
    for task in tasks:
        if task.task_id not in priorities:
            raise KeyError(f"no priority assigned for task {task.task_id}")
        task.priority = priorities[task.task_id]


def assign_rate_monotonic(tasks: Sequence[DAGTask]) -> None:
    """Convenience: compute and apply Rate Monotonic priorities in place."""
    apply_priorities(tasks, rate_monotonic(tasks))
