"""Host speed, sampled during a run with a fixed pure-Python loop.

The benchmark runs on shared hosts whose speed drifts by 1.5-2.5x from one
minute to the next (load of neighbouring machines; none of it shows as CPU
steal, so CPU time drifts as much as wall time).  Such drift moves every
timing of a run by about the same factor.  :class:`HostSpeed` times a fixed
loop that belongs to the benchmark, not to the program, so no change to
the program can move it, and :meth:`HostSpeed.scale` maps seconds measured
during the run to seconds on a host where the loop takes
:data:`REFERENCE_S`.  Running one grid-smalldag campaign eight times on
such a host, its timed seconds varied by 13 % (coefficient of variation)
and the scaled seconds by 5.6 %.

The campaign workloads sample the loop after every unit, in the process
and on the core that runs the units.  ``service-queries`` does not scale:
its work runs in the daemon process, and samples taken in the benchmark
process tracked the daemon's speed worse than no scaling at all (five
seeds: quartile spread 0.19 scaled, 0.08 unscaled).
"""

import statistics
import time

#: Iterations of the reference loop (about 2 ms on a 2-vCPU VM).
LOOP = 30_000
#: Reference loop time: scaled seconds are seconds on a host this fast.
REFERENCE_S = 0.002


def _reference_loop() -> float:
    """Seconds the fixed loop takes now."""
    started = time.perf_counter()
    total = 0
    for value in range(LOOP):
        total += value * value
    return time.perf_counter() - started


class HostSpeed:
    """Samples of the reference loop taken between units of work."""

    def __init__(self) -> None:
        self.samples = []

    def sample(self, *_ignored) -> None:
        """Time the loop once (usable as the executor's progress callback)."""
        self.samples.append(_reference_loop())

    @property
    def spent(self) -> float:
        """Seconds the samples themselves took."""
        return sum(self.samples)

    def scale(self) -> float:
        """Factor from seconds measured in this run to reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)
