"""Campaign-grade validation runs: budgets, horizons, online invariants.

This module packages the simulator for use inside campaign work units
(``python -m repro.campaign run --mode simulate``):

* :class:`SimulationConfig` — a frozen, pickleable description of one
  validation run (horizon policy and budgets), safe to ship to
  ``ProcessPoolExecutor`` workers and to serialise into a campaign
  manifest;
* :func:`validation_horizon` — the bounded release horizon: a configurable
  number of *hyperperiods*, where the hyperperiod itself is capped (random
  log-uniform periods make the true LCM astronomically large);
* :class:`InvariantMonitor` — O(1)-memory online checks of the protocol
  invariants (mutual exclusion per resource, per-processor exclusivity)
  so the fast no-trace path still counts violations;
* :func:`validate_partition` — run one analysis-accepted partition through
  the simulator and return a :class:`ValidationOutcome` with observed
  response times, deadline misses, invariant counters, and the truncation
  status.

See ``docs/validation.md`` for what the simulator does and does not model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..model.platform import PartitionedSystem
from ..model.task import TaskSet
from ..obs.telemetry import active as _active_telemetry
from .protocols import behavior_for
from .simulator import (
    RuntimeSimulator,
    SimulationError,
    SimulationTruncated,
    _EPS,
)
from .trace import ExecutionInterval

#: Outcome status values of one validation run.
STATUS_COMPLETED = "completed"
STATUS_TRUNCATED = "truncated"
STATUS_RULE_ERROR = "rule_error"


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of one validation simulation (pickleable, hashable).

    Attributes
    ----------
    hyperperiods:
        How many (capped) hyperperiods of jobs to release; the run itself
        continues past the release horizon until the event queue drains, so
        every released busy interval completes (unless a budget cuts it).
    hyperperiod_cap_factor:
        Cap on the hyperperiod expressed as a multiple of the largest task
        period.  Random log-uniform periods have astronomically large exact
        LCMs, so the horizon uses ``min(lcm, cap_factor * max_period)``.
    max_events:
        Event budget per simulation run (``None`` disables).  Exhaustion
        yields a ``truncated`` outcome, never a hang.
    wall_clock_seconds:
        Wall-clock budget per simulation run (``None`` disables).  Note a
        wall-clock cut is *not* deterministic across machines — campaigns
        that must stay byte-reproducible should rely on ``max_events``.
    retain_trace:
        Keep the full interval/request trace.  Off by default: the trace is
        the memory hog, and the invariant counters are maintained online.
    """

    hyperperiods: int = 2
    hyperperiod_cap_factor: float = 16.0
    max_events: Optional[int] = 1_000_000
    wall_clock_seconds: Optional[float] = None
    retain_trace: bool = False

    def __post_init__(self) -> None:
        if self.hyperperiods < 1:
            raise ValueError(f"hyperperiods must be >= 1, got {self.hyperperiods}")
        if self.hyperperiod_cap_factor < 1:
            raise ValueError(
                f"hyperperiod_cap_factor must be >= 1, got "
                f"{self.hyperperiod_cap_factor}"
            )
        if self.max_events is not None and self.max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {self.max_events}")
        if self.wall_clock_seconds is not None and self.wall_clock_seconds <= 0:
            raise ValueError(
                f"wall_clock_seconds must be positive, got {self.wall_clock_seconds}"
            )

    def to_dict(self) -> dict:
        """JSON-serialisable description (manifest / config-hash input)."""
        return {
            "hyperperiods": self.hyperperiods,
            "hyperperiod_cap_factor": self.hyperperiod_cap_factor,
            "max_events": self.max_events,
            "wall_clock_seconds": self.wall_clock_seconds,
            "retain_trace": self.retain_trace,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SimulationConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        return cls(
            hyperperiods=int(data["hyperperiods"]),
            hyperperiod_cap_factor=float(data["hyperperiod_cap_factor"]),
            max_events=None if data["max_events"] is None else int(data["max_events"]),
            wall_clock_seconds=(
                None
                if data["wall_clock_seconds"] is None
                else float(data["wall_clock_seconds"])
            ),
            retain_trace=bool(data["retain_trace"]),
        )


def capped_hyperperiod(taskset: TaskSet, cap_factor: float = 16.0) -> float:
    """Hyperperiod of ``taskset`` capped at ``cap_factor * max_period``.

    Periods are floats (µs); they are rounded to integer microseconds for
    the LCM.  The incremental LCM computation early-exits as soon as it
    exceeds the cap, so pathological period combinations cost nothing.
    """
    periods = [max(1, int(round(task.period))) for task in taskset]
    cap = cap_factor * max(task.period for task in taskset)
    lcm = 1
    for period in periods:
        lcm = lcm * period // math.gcd(lcm, period)
        if lcm >= cap:
            return float(cap)
    return float(lcm)


def validation_horizon(taskset: TaskSet, config: SimulationConfig) -> float:
    """Release horizon of one validation run: ``hyperperiods`` capped LCMs."""
    return config.hyperperiods * capped_hyperperiod(
        taskset, config.hyperperiod_cap_factor
    )


class InvariantMonitor:
    """Online protocol-invariant counters over a stream of intervals.

    The simulator records intervals in non-decreasing *end*-time order
    (each is emitted when its chunk completes or is preempted, and the
    simulation clock never goes backwards).  Under that ordering, two
    intervals of one resource (or one processor) overlap iff the
    later-ending one starts before the maximum end time seen so far — so a
    single ``max end`` per key detects every overlap in O(1) memory.
    """

    def __init__(self) -> None:
        self.mutual_exclusion_violations = 0
        self.processor_overlaps = 0
        self.spin_exclusivity_violations = 0
        self.intervals_observed = 0
        self._resource_max_end: Dict[int, float] = {}
        self._processor_max_end: Dict[int, float] = {}
        self._processor_spin_max_end: Dict[int, float] = {}

    def __call__(self, interval: ExecutionInterval) -> None:
        """Observe one recorded interval (the simulator's observer hook)."""
        self.intervals_observed += 1
        last = self._processor_max_end.get(interval.processor)
        if last is not None and interval.start < last - _EPS:
            self.processor_overlaps += 1
        # SPIN-specific invariant: a busy-waiting vertex occupies its
        # processor — nothing may overlap a spin interval there (and a spin
        # interval may not overlap any earlier execution).  Same O(1)
        # max-end argument as above, restricted to spin intervals.
        last_spin = self._processor_spin_max_end.get(interval.processor)
        if last_spin is not None and interval.start < last_spin - _EPS:
            self.spin_exclusivity_violations += 1
        elif interval.is_spin and last is not None and interval.start < last - _EPS:
            self.spin_exclusivity_violations += 1
        if last is None or interval.end > last:
            self._processor_max_end[interval.processor] = interval.end
        if interval.is_spin and (last_spin is None or interval.end > last_spin):
            self._processor_spin_max_end[interval.processor] = interval.end
        if interval.resource is not None:
            last = self._resource_max_end.get(interval.resource)
            if last is not None and interval.start < last - _EPS:
                self.mutual_exclusion_violations += 1
            if last is None or interval.end > last:
                self._resource_max_end[interval.resource] = interval.end

    @property
    def violations(self) -> int:
        """Total invariant violations observed so far."""
        return (
            self.mutual_exclusion_violations
            + self.processor_overlaps
            + self.spin_exclusivity_violations
        )


@dataclass
class ValidationOutcome:
    """Everything one validation run produces.

    ``observed_response_times`` maps each task to the largest response time
    among its *finished* jobs (tasks whose every job was cut by a budget are
    absent).  On a ``truncated`` run the values are sound lower bounds of a
    full run's observations; on a ``rule_error`` run the simulator hit an
    internal protocol-rule assertion (``SimulationError``) and the partial
    observations should be treated as diagnostic only.
    """

    status: str
    horizon: float
    events: int
    jobs_released: int
    jobs_finished: int
    deadline_misses: int
    mutual_exclusion_violations: int
    processor_overlaps: int
    spin_exclusivity_violations: int = 0
    observed_response_times: Dict[int, float] = field(default_factory=dict)
    truncation_reason: Optional[str] = None
    rule_error: Optional[str] = None

    @property
    def completed(self) -> bool:
        """Whether the run drained its event queue within budget."""
        return self.status == STATUS_COMPLETED


def validate_partition(
    partition: PartitionedSystem,
    config: Optional[SimulationConfig] = None,
    protocol: str = "DPCP-p",
) -> ValidationOutcome:
    """Simulate one partitioned system and collect validation evidence.

    ``protocol`` selects the runtime locking rules — any analysis-protocol
    name with a runtime behavior (``DPCP-p``/``DPCP-p-EP``/``DPCP-p-EN``,
    ``SPIN``, ``LPP``; see :func:`repro.sim.protocols.behavior_for`).
    Releases strictly periodic jobs of every task over the configured
    horizon (see :func:`validation_horizon`), runs the simulator with the
    configured budgets, and returns the observed per-task maximum response
    times plus invariant/deadline counters.  Never raises on truncation or
    protocol-rule assertions — both become outcome statuses, so campaign
    work units cannot be killed by one pathological sample.
    """
    config = config or SimulationConfig()
    monitor = InvariantMonitor()
    simulator = RuntimeSimulator(
        partition,
        protocol=behavior_for(protocol),
        record_trace=config.retain_trace,
        interval_observer=monitor,
    )
    horizon = validation_horizon(partition.taskset, config)
    simulator.release_periodic_jobs(horizon)
    status, truncation_reason, rule_error = STATUS_COMPLETED, None, None
    try:
        simulator.run(
            max_events=config.max_events,
            wall_clock_seconds=config.wall_clock_seconds,
        )
    except SimulationTruncated as cut:
        status, truncation_reason = STATUS_TRUNCATED, cut.reason
    except SimulationError as error:
        status, rule_error = STATUS_RULE_ERROR, str(error)

    trace = simulator.trace
    observed: Dict[int, float] = {}
    finished = 0
    misses = 0
    for record in trace.jobs.values():
        response = record.response_time
        if response is None:
            continue
        finished += 1
        if record.deadline_met is False:
            misses += 1
        previous = observed.get(record.task_id)
        if previous is None or response > previous:
            observed[record.task_id] = response
    tel = _active_telemetry()
    if tel is not None:
        tel.count("sim.runs")
        tel.count("sim.events", simulator.events_processed)
        tel.count("sim.jobs_released", len(trace.jobs))
        tel.count("sim.jobs_finished", finished)
        if status == STATUS_TRUNCATED:
            tel.count("sim.truncated")
        elif status == STATUS_RULE_ERROR:
            tel.count("sim.rule_errors")
    return ValidationOutcome(
        status=status,
        horizon=horizon,
        events=simulator.events_processed,
        jobs_released=len(trace.jobs),
        jobs_finished=finished,
        deadline_misses=misses,
        mutual_exclusion_violations=monitor.mutual_exclusion_violations,
        processor_overlaps=monitor.processor_overlaps,
        spin_exclusivity_violations=monitor.spin_exclusivity_violations,
        observed_response_times=observed,
        truncation_reason=truncation_reason,
        rule_error=rule_error,
    )
