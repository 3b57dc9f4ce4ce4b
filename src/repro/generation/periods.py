"""Period generation.

The paper draws task periods from a log-uniform distribution over
``[10 ms, 1000 ms]``.  All times in this library are expressed in
microseconds, so the default range is ``[1e4, 1e6]`` µs.
"""

from __future__ import annotations

import numpy as np

from ..utils.rng import RngLike, ensure_rng
from .randfixedsum import GenerationError

#: Default period range in microseconds (10 ms .. 1000 ms).
DEFAULT_PERIOD_RANGE_US = (1.0e4, 1.0e6)


def log_uniform_period(
    low: float = DEFAULT_PERIOD_RANGE_US[0],
    high: float = DEFAULT_PERIOD_RANGE_US[1],
    rng: RngLike = None,
) -> float:
    """Draw one period from a log-uniform distribution over ``[low, high]``."""
    if low <= 0 or high < low:
        raise GenerationError("period range must satisfy 0 < low <= high")
    generator = ensure_rng(rng)
    return float(np.exp(generator.uniform(np.log(low), np.log(high))))
