"""Shared-resource model.

Every shared resource :math:`\\ell_q` is protected by a binary semaphore.  A
vertex :math:`v_{i,x}` issues at most :math:`N_{i,x,q}` requests to
:math:`\\ell_q`, each of length at most :math:`L_{i,q}` (the per-task maximum
critical-section length).  Resources shared by a single task are *local*;
resources shared by two or more tasks are *global* and, under DPCP-p, are
assigned to a designated processor on which all their requests execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping


class ResourceError(ValueError):
    """Raised for invalid resource declarations or usage descriptions."""


@dataclass(frozen=True)
class Resource:
    """A shared resource :math:`\\ell_q` identified by a non-negative id."""

    resource_id: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.resource_id < 0:
            raise ResourceError("resource_id must be non-negative")
        if not self.name:
            object.__setattr__(self, "name", f"l{self.resource_id}")


@dataclass
class ResourceUsage:
    """How one task uses one resource.

    Attributes
    ----------
    resource_id:
        The resource :math:`\\ell_q`.
    max_requests:
        :math:`N_{i,q}` — maximum number of requests issued by one job.
    cs_length:
        :math:`L_{i,q}` — maximum length of a single critical section (µs).
    per_vertex_requests:
        ``vertex index -> N_{i,x,q}``; must sum to ``max_requests``.
    """

    resource_id: int
    max_requests: int
    cs_length: float
    per_vertex_requests: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_requests < 0:
            raise ResourceError("max_requests must be non-negative")
        if self.cs_length < 0:
            raise ResourceError("cs_length must be non-negative")
        if self.per_vertex_requests:
            total = sum(self.per_vertex_requests.values())
            if total != self.max_requests:
                raise ResourceError(
                    "per-vertex request counts must sum to max_requests "
                    f"({total} != {self.max_requests})"
                )
            if any(n < 0 for n in self.per_vertex_requests.values()):
                raise ResourceError("per-vertex request counts must be >= 0")


def classify_resources(
    usages_by_task: Mapping[int, Iterable[ResourceUsage]],
) -> Dict[int, bool]:
    """Classify each resource as global (True) or local (False).

    Parameters
    ----------
    usages_by_task:
        ``task id -> iterable of ResourceUsage``.  A resource is *global* when
        it is used (with at least one request) by two or more distinct tasks.

    Returns
    -------
    dict
        ``resource id -> is_global``.
    """
    users: Dict[int, set] = {}
    for task_id, usages in usages_by_task.items():
        for usage in usages:
            if usage.max_requests <= 0:
                continue
            users.setdefault(usage.resource_id, set()).add(task_id)
    return {rid: len(tasks) > 1 for rid, tasks in users.items()}
