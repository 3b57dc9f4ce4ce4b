"""Random DAG structure generation (Erdős–Rényi style, Cordeiro et al. [5]).

The paper generates the structure of each task with the layer-free
Erdős–Rényi method for scheduling simulations: the vertices are put in an
arbitrary (topological) order and every ordered pair ``(u, v)`` with ``u < v``
receives an edge with a fixed probability ``p``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..model.dag import DAG
from ..utils.rng import RngLike, ensure_rng
from .randfixedsum import GenerationError


@dataclass(frozen=True)
class DagGenerationConfig:
    """Parameters of the Erdős–Rényi DAG generator.

    Attributes
    ----------
    num_vertices_range:
        Inclusive range from which the vertex count is drawn uniformly
        (``[10, 100]`` in the paper).
    edge_probability:
        Probability of an edge between any ordered pair of vertices
        (0.1 in the paper).
    """

    num_vertices_range: Tuple[int, int] = (10, 100)
    edge_probability: float = 0.1

    def __post_init__(self) -> None:
        lo, hi = self.num_vertices_range
        if lo < 1 or hi < lo:
            raise GenerationError("invalid vertex-count range")
        if not 0.0 <= self.edge_probability <= 1.0:
            raise GenerationError("edge probability must be in [0, 1]")


def erdos_renyi_dag(num_vertices: int, edge_probability: float, rng: RngLike = None) -> DAG:
    """Generate a random DAG over ``num_vertices`` ordered vertices.

    Every pair ``(u, v)`` with ``u < v`` independently receives an edge with
    probability ``edge_probability``; the vertex order doubles as a
    topological order, so the result is acyclic by construction.
    """
    if num_vertices < 1:
        raise GenerationError("num_vertices must be >= 1")
    if not 0.0 <= edge_probability <= 1.0:
        raise GenerationError("edge probability must be in [0, 1]")
    generator = ensure_rng(rng)
    dag = DAG(num_vertices)
    if num_vertices == 1 or edge_probability == 0.0:
        return dag
    draws = generator.uniform(size=(num_vertices, num_vertices))
    # Only the strict upper triangle is read, in row-major order (np.nonzero's
    # order), so the edges and adjacency lists match a pairwise loop.
    sources, targets = np.nonzero(np.triu(draws < edge_probability, 1))
    dag.add_forward_edges(sources, targets)
    return dag


def random_dag(config: DagGenerationConfig, rng: RngLike = None) -> DAG:
    """Draw a DAG according to ``config`` (vertex count uniform in the range)."""
    generator = ensure_rng(rng)
    lo, hi = config.num_vertices_range
    num_vertices = int(generator.integers(lo, hi + 1))
    return erdos_renyi_dag(num_vertices, config.edge_probability, generator)
