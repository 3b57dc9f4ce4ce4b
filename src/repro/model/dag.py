"""Directed acyclic graph structure for parallel (DAG) tasks.

The paper models each parallel task :math:`\\tau_i` as a DAG
:math:`G_i = (V_i, E_i)` whose vertices carry worst-case execution times and
whose edges encode precedence constraints.  This module provides the plain
graph structure together with the graph-level operations the analysis needs:

* validation (acyclicity, dangling edges),
* topological ordering,
* longest-path computation (:math:`L^*_i`),
* complete-path enumeration (every head-to-tail path), and
* per-path aggregation helpers used by the response-time analysis.

The DAG is intentionally decoupled from the task parameters (period, deadline,
resource usage); those live in :mod:`repro.model.task`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple


class DAGError(ValueError):
    """Raised when a DAG is structurally invalid (cycle, bad edge, ...)."""


@dataclass(frozen=True)
class Edge:
    """A precedence edge ``src -> dst`` between two vertex indices."""

    src: int
    dst: int

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise DAGError(f"self-loop on vertex {self.src} is not allowed")


class DAG:
    """A directed acyclic graph over vertices ``0 .. num_vertices - 1``.

    Parameters
    ----------
    num_vertices:
        Number of vertices.  Vertices are identified by their integer index.
    edges:
        Iterable of ``(src, dst)`` pairs or :class:`Edge` instances.

    Raises
    ------
    DAGError
        If an edge references a vertex outside ``[0, num_vertices)`` or if the
        resulting graph contains a cycle.
    """

    def __init__(self, num_vertices: int, edges: Iterable = ()) -> None:
        if num_vertices <= 0:
            raise DAGError("a DAG needs at least one vertex")
        self._n = int(num_vertices)
        self._succ: List[List[int]] = [[] for _ in range(self._n)]
        self._pred: List[List[int]] = [[] for _ in range(self._n)]
        self._edges: Set[Tuple[int, int]] = set()
        for edge in edges:
            if isinstance(edge, Edge):
                src, dst = edge.src, edge.dst
            else:
                src, dst = edge
            self.add_edge(src, dst)
        self._topo_cache: Tuple[int, ...] = ()
        self._validate()

    # ------------------------------------------------------------------ #
    # Construction / mutation
    # ------------------------------------------------------------------ #
    def add_edge(self, src: int, dst: int) -> None:
        """Add the precedence edge ``src -> dst`` (idempotent)."""
        if not (0 <= src < self._n and 0 <= dst < self._n):
            raise DAGError(f"edge ({src}, {dst}) references unknown vertices")
        if src == dst:
            raise DAGError(f"self-loop on vertex {src} is not allowed")
        if (src, dst) in self._edges:
            return
        self._edges.add((src, dst))
        self._succ[src].append(dst)
        self._pred[dst].append(src)
        self._topo_cache = ()

    def add_forward_edges(self, sources: Iterable[int], targets: Iterable[int]) -> None:
        """Add the edges ``sources[k] -> targets[k]`` in order, in bulk.

        Every edge must point forward in vertex order (``src < dst``), which
        keeps the graph acyclic by construction; duplicates are ignored as
        in :meth:`add_edge`.  The adjacency lists grow in the given order.
        """
        n, edges, succ, pred = self._n, self._edges, self._succ, self._pred
        for src, dst in zip(sources, targets):
            if not 0 <= src < dst < n:
                raise DAGError(f"edge ({src}, {dst}) is not a forward edge of this DAG")
            if (src, dst) in edges:
                continue
            edges.add((src, dst))
            succ[src].append(dst)
            pred[dst].append(src)
        self._topo_cache = ()

    def _validate(self) -> None:
        # A topological sort succeeds iff the graph is acyclic.
        self.topological_order()

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices in the graph."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of precedence edges in the graph."""
        return len(self._edges)

    @property
    def edges(self) -> Set[Tuple[int, int]]:
        """The set of ``(src, dst)`` edges."""
        return set(self._edges)

    def successors(self, v: int) -> List[int]:
        """Direct successors of vertex ``v``."""
        return list(self._succ[v])

    def predecessors(self, v: int) -> List[int]:
        """Direct predecessors of vertex ``v``."""
        return list(self._pred[v])

    def successor_lists(self) -> List[List[int]]:
        """The internal successor adjacency (one list per vertex).

        Returned without copying for traversal-heavy callers; treat as
        read-only.
        """
        return self._succ

    def predecessor_lists(self) -> List[List[int]]:
        """The internal predecessor adjacency (one list per vertex).

        Returned without copying for traversal-heavy callers; treat as
        read-only.
        """
        return self._pred

    def has_edge(self, src: int, dst: int) -> bool:
        """Whether the edge ``src -> dst`` exists."""
        return (src, dst) in self._edges

    def sources(self) -> List[int]:
        """Head vertices: vertices without predecessors."""
        return [v for v in range(self._n) if not self._pred[v]]

    def sinks(self) -> List[int]:
        """Tail vertices: vertices without successors."""
        return [v for v in range(self._n) if not self._succ[v]]

    # ------------------------------------------------------------------ #
    # Orderings and paths
    # ------------------------------------------------------------------ #
    def topological_order(self) -> Tuple[int, ...]:
        """Return a topological ordering of the vertices.

        Raises :class:`DAGError` if the graph contains a cycle.
        """
        if self._topo_cache:
            return self._topo_cache
        indegree = [len(self._pred[v]) for v in range(self._n)]
        ready = [v for v in range(self._n) if indegree[v] == 0]
        order: List[int] = []
        while ready:
            v = ready.pop()
            order.append(v)
            for w in self._succ[v]:
                indegree[w] -= 1
                if indegree[w] == 0:
                    ready.append(w)
        if len(order) != self._n:
            raise DAGError("graph contains a cycle")
        self._topo_cache = tuple(order)
        return self._topo_cache

    def longest_path_length(self, weights: Sequence[float]) -> float:
        """Length of the longest (critical) path under vertex ``weights``.

        The length of a path is the sum of the weights of the vertices on it
        (edges carry no weight), matching the paper's definition of
        :math:`L(\\lambda_i)`.
        """
        self._check_weights(weights)
        best = [0.0] * self._n
        for v in self.topological_order():
            incoming = [best[u] for u in self._pred[v]]
            best[v] = (max(incoming) if incoming else 0.0) + float(weights[v])
        return max(best) if best else 0.0

    def longest_path(self, weights: Sequence[float]) -> List[int]:
        """Return the vertices of one longest path (ties broken arbitrarily)."""
        self._check_weights(weights)
        best = [0.0] * self._n
        parent = [-1] * self._n
        for v in self.topological_order():
            incoming = [(best[u], u) for u in self._pred[v]]
            if incoming:
                b, u = max(incoming)
                best[v] = b + float(weights[v])
                parent[v] = u
            else:
                best[v] = float(weights[v])
        end = max(range(self._n), key=lambda v: best[v])
        path = [end]
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def iter_complete_paths(self, limit: int = 0) -> Iterator[Tuple[int, ...]]:
        """Yield every complete (head-to-tail) path as a tuple of vertices.

        Parameters
        ----------
        limit:
            If positive, stop after yielding ``limit`` paths.  The caller is
            responsible for falling back to a sound over-approximation when
            the limit is hit (see :class:`repro.analysis.paths.PathEnumerator`).
        """
        count = 0
        stack: List[Tuple[int, Tuple[int, ...]]] = [
            (v, (v,)) for v in sorted(self.sources(), reverse=True)
        ]
        while stack:
            v, path = stack.pop()
            succs = self._succ[v]
            if not succs:
                yield path
                count += 1
                if limit and count >= limit:
                    return
                continue
            for w in sorted(succs, reverse=True):
                stack.append((w, path + (w,)))

    def count_complete_paths(self, limit: int = 0) -> int:
        """Count complete paths via dynamic programming (no enumeration).

        If ``limit`` is positive, counting stops (and ``limit`` is returned)
        as soon as the count is known to reach it, avoiding overflow work for
        graphs with astronomically many paths.
        """
        counts = [0] * self._n
        for v in reversed(self.topological_order()):
            if not self._succ[v]:
                counts[v] = 1
            else:
                counts[v] = sum(counts[w] for w in self._succ[v])
            if limit and counts[v] >= limit:
                counts[v] = limit
        total = sum(counts[v] for v in self.sources())
        if limit:
            return min(total, limit)
        return total

    def ancestors(self, v: int) -> Set[int]:
        """All vertices from which ``v`` is reachable (excluding ``v``)."""
        seen: Set[int] = set()
        frontier = list(self._pred[v])
        while frontier:
            u = frontier.pop()
            if u in seen:
                continue
            seen.add(u)
            frontier.extend(self._pred[u])
        return seen

    def descendants(self, v: int) -> Set[int]:
        """All vertices reachable from ``v`` (excluding ``v``)."""
        seen: Set[int] = set()
        frontier = list(self._succ[v])
        while frontier:
            u = frontier.pop()
            if u in seen:
                continue
            seen.add(u)
            frontier.extend(self._succ[u])
        return seen

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _check_weights(self, weights: Sequence[float]) -> None:
        if len(weights) != self._n:
            raise DAGError(
                f"expected {self._n} vertex weights, got {len(weights)}"
            )
        for w in weights:
            if w < 0:
                raise DAGError("vertex weights must be non-negative")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DAG(num_vertices={self._n}, num_edges={self.num_edges})"


@dataclass
class PathProfile:
    """Aggregate view of one complete path used by the WCRT analysis.

    Attributes
    ----------
    vertices:
        The vertices on the path, in precedence order.
    length:
        :math:`L(\\lambda)` — total WCET of the vertices on the path.
    requests:
        Mapping ``resource id -> N^λ_{i,q}`` — the number of requests issued
        by vertices on the path, per resource.
    """

    vertices: Tuple[int, ...]
    length: float
    requests: Dict[int, int] = field(default_factory=dict)

    def request_count(self, resource_id: int) -> int:
        """Number of requests to ``resource_id`` issued on this path."""
        return self.requests.get(resource_id, 0)

    def signature(self) -> Tuple:
        """Hashable signature used to deduplicate analysis-equivalent paths."""
        return (round(self.length, 9), tuple(sorted(self.requests.items())))
