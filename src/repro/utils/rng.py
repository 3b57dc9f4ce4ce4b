"""Random-number-generator helpers.

All stochastic code in the library accepts either a seed (int), an existing
:class:`numpy.random.Generator`, or ``None`` (fresh entropy), and normalises
it through :func:`ensure_rng` so that experiments are reproducible end to end.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Normalise ``rng`` into a :class:`numpy.random.Generator`.

    ``None`` yields a generator seeded from OS entropy, an ``int`` yields a
    deterministically seeded generator, and an existing generator is returned
    unchanged.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def spawn_seeds(rng: RngLike, count: int) -> List[int]:
    """Derive ``count`` independent child seeds from ``rng``.

    The seeds are plain integers, so they can be serialised (e.g. into a
    campaign manifest) and later turned back into the exact generators that
    :func:`spawn_rngs` would have produced in place.
    """
    base = ensure_rng(rng)
    seeds = base.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [int(s) for s in seeds]


def spawn_rngs(rng: RngLike, count: int) -> List[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    Useful to give every task-set of a sweep its own stream so that runs can
    be parallelised or re-executed individually without changing results.
    """
    return [np.random.default_rng(s) for s in spawn_seeds(rng, count)]
