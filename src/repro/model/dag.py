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

import numpy as np


_INF = float("inf")


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
        if self._edges:  # without edges the graph is trivially acyclic
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

    def add_forward_edges(self, sources: Sequence[int], targets: Sequence[int]) -> None:
        """Add the edges ``sources[k] -> targets[k]`` in order, in one shot.

        Every edge must point forward in vertex order (``src < dst``), which
        keeps the graph acyclic by construction; duplicates are ignored as
        in :meth:`add_edge`.  Both checks run over the whole batch before
        any edge is added.  The adjacency lists grow in the given order.
        """
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(targets, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise DAGError("sources and targets must be equal-length sequences")
        forward = (0 <= src) & (src < dst) & (dst < self._n)
        if not forward.all():
            k = int(np.argmin(forward))
            raise DAGError(
                f"edge ({src[k]}, {dst[k]}) is not a forward edge of this DAG"
            )
        # An ordered dict drops repeats within the batch and keeps the first.
        pairs = dict.fromkeys(zip(src.tolist(), dst.tolist()))
        edges, succ, pred = self._edges, self._succ, self._pred
        if edges:
            for pair in edges.intersection(pairs):
                del pairs[pair]
        # One ``add`` per edge, not one ``update``: the set then grows and
        # resizes as it did edge by edge, so it iterates in the same order
        # (the edge-removal fallback rebuilds a DAG in that order).
        for pair in pairs:
            edges.add(pair)
            succ[pair[0]].append(pair[1])
            pred[pair[1]].append(pair[0])
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

    def critical_path(self, weights: Sequence[float]) -> Tuple[float, List[int]]:
        """Return ``(L*, path)``: the longest path's length and its vertices.

        The length of a path is the sum of the weights of the vertices on it
        (edges carry no weight), matching the paper's definition of
        :math:`L(\\lambda_i)`.  One pass computes both.  Ties are broken
        deterministically: among predecessors of equal length the larger
        vertex index wins, and the path ends at the lowest-index vertex of
        maximal length.  Task generation relies on this rule to reproduce
        its draws (DESIGN.md, "Generation is bit-identical").
        """
        w = self._checked_weights(weights)
        best = list(w)
        parent = [-1] * self._n
        pred = self._pred
        for v in self.topological_order():
            preds = pred[v]
            if not preds:
                continue
            u = preds[0]
            b = best[u]
            for x in preds[1:]:
                bx = best[x]
                if bx > b or (bx == b and x > u):
                    b, u = bx, x
            best[v] = b + w[v]
            parent[v] = u
        lstar = max(best)
        v = best.index(lstar)
        path = [v]
        while parent[v] != -1:
            v = parent[v]
            path.append(v)
        path.reverse()
        return lstar, path

    def longest_path_length(self, weights: Sequence[float]) -> float:
        """:math:`L^*` under vertex ``weights`` (see :meth:`critical_path`)."""
        return self.critical_path(weights)[0]

    def longest_path(self, weights: Sequence[float]) -> List[int]:
        """The vertices of the longest path :meth:`critical_path` picks."""
        return self.critical_path(weights)[1]

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

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _checked_weights(self, weights: Sequence[float]) -> List[float]:
        """``weights`` as a list of floats, validated: one per vertex, finite, >= 0.

        NaN must be rejected explicitly: every comparison with it is false,
        so it would pass a plain ``w < 0`` test and make the longest path
        arbitrary.
        """
        if len(weights) != self._n:
            raise DAGError(
                f"expected {self._n} vertex weights, got {len(weights)}"
            )
        values = np.asarray(weights, dtype=float).tolist()
        for w in values:
            if not 0.0 <= w < _INF:
                raise DAGError("vertex weights must be finite and non-negative")
        return values

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
