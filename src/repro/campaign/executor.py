"""Parallel executor: run work units in-process or across a process pool.

Work units are independent by construction (each carries its own seed), so
the executor is free to dispatch them in chunks to a
:class:`concurrent.futures.ProcessPoolExecutor` and collect them in
completion order; results are re-ordered to plan order before curves are
assembled, and every unit of a chunk is checkpointed into the store the
moment the chunk arrives (the auto chunk size is kept small so an
interrupted run forfeits little finished-but-unreported compute).  With
``workers <= 1`` the executor degrades gracefully
to plain in-process execution (no pool, no pickling) — the code path used by
:func:`repro.experiments.runner.run_sweep`.

:func:`execute_campaign` drives a campaign store: ``campaign run``/``resume``
and the service's campaign jobs all call it, so the manifest's shard slice,
the store's own ``events.jsonl`` and the 0/3 exit code are decided once.

The fault model is *contain, retry, quarantine* (see ``docs/robustness.md``):

* An exception inside one unit becomes a typed error
  :class:`UnitResult` instead of poisoning its chunk; the unit is retried
  up to :attr:`RetryPolicy.max_attempts` times and then **quarantined** —
  its error record appended to the store's ``quarantine.jsonl`` sibling
  file, never to ``results.jsonl``.
* A killed worker (OOM, segfault, injected ``os._exit``) breaks the whole
  pool; the executor respawns it with capped exponential backoff, requeues
  the in-flight chunks (bisecting multi-unit chunks so a repeatedly fatal
  chunk narrows toward its poison unit), and — once crashes repeat — falls
  back to one-unit-at-a-time isolation where blame is definite and the
  poison unit can be quarantined.
* An optional per-unit wall-clock deadline converts a hung unit into an
  ordinary timeout error (POSIX ``SIGALRM``; a no-op where unavailable).

Every recovery action is emitted as a typed :mod:`repro.obs` event
(``pool_crashed`` / ``unit_retried`` / ``unit_quarantined``), strictly
out-of-band as always.
"""

from __future__ import annotations

import contextlib
import functools
import math
import signal
import threading
import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence

from ..analysis.dpcp_p import DEFAULT_MAX_PATH_SIGNATURES
# Unused here; perfbench/tracer.py requires this binding to exist.
from ..analysis.engine import compile_taskset  # noqa: F401
from ..analysis.interfaces import SchedulabilityTest
from ..experiments.metrics import ValidationRollup
from ..generation.randfixedsum import GenerationError
from ..generation.taskset_gen import generate_taskset
from ..model.platform import Platform
from ..obs.events import (
    CampaignFinished,
    CampaignStarted,
    Event,
    PoolCrashed,
    UnitFinished,
    UnitQuarantined,
    UnitRetried,
    UnitStarted,
    UnitTelemetry,
)
from ..obs.log import get_logger
from ..obs.sink import EventSink
from ..obs.telemetry import active as _active_telemetry
from ..obs.telemetry import session as _telemetry_session
from ..sim.validation import (
    STATUS_RULE_ERROR,
    STATUS_TRUNCATED,
    SimulationConfig,
    validate_partition,
)
from ..utils.rng import ensure_rng, spawn_rngs
from . import faultinject
from .planner import (
    MODE_SIMULATE,
    PROTOCOL_FACTORIES,
    CampaignPlan,
    WorkUnit,
)
from .store import CampaignStore, StoreView, unresolved_quarantine

#: Unit outcomes: a unit either produced its acceptance counts (``ok``) or
#: failed with a typed error (``error`` — quarantined, never checkpointed
#: into ``results.jsonl``).
OUTCOME_OK = "ok"
OUTCOME_ERROR = "error"

#: Well-known ``error_kind`` values the executor assigns itself (any other
#: kind is the raising exception's class name, e.g. ``FaultInjected``).
ERROR_KIND_TIMEOUT = "timeout"
ERROR_KIND_WORKER_CRASH = "worker_crash"

#: Cap on stored traceback text per error record (the tail is kept — the
#: raise site is what matters for triage).
_TRACEBACK_LIMIT = 4000


@dataclass
class UnitResult:
    """Outcome of one executed work unit."""

    unit_id: str
    scenario_id: str
    point_index: int
    utilization: float
    accepted: Dict[str, int] = field(default_factory=dict)
    evaluated: int = 0
    generation_failures: int = 0
    elapsed_seconds: float = 0.0
    #: Per-protocol validation evidence (simulate-mode units only).
    simulation: Optional[Dict[str, ValidationRollup]] = None
    #: Per-unit telemetry snapshot (:meth:`repro.obs.telemetry.Telemetry.to_dict`)
    #: when the unit ran with telemetry enabled.  Deliberately **excluded**
    #: from :meth:`to_record`: observability is out-of-band, and the
    #: ``results.jsonl`` bytes must be identical with telemetry on or off.
    telemetry: Optional[dict] = None
    #: ``ok`` or ``error`` (see :data:`OUTCOME_OK` / :data:`OUTCOME_ERROR`).
    outcome: str = OUTCOME_OK
    #: Error classification of a failed unit (``None`` for ``ok`` results).
    error_kind: Optional[str] = None
    #: One-line error description of a failed unit.
    error_message: Optional[str] = None
    #: Truncated traceback of a failed unit (in-band failures only).
    traceback: Optional[str] = None
    #: Execution attempts consumed by this unit (final value set by the
    #: executor's retry loop).
    attempts: int = 1

    def to_record(self) -> dict:
        """Serialise into a store record (telemetry excluded — out-of-band).

        Error fields appear only on ``error`` results, so the records of
        successful units are byte-identical to what pre-fault-tolerance
        code wrote — and ``results.jsonl`` stays comparable between faulty
        and fault-free runs of the same campaign.
        """
        record = {
            "unit_id": self.unit_id,
            "scenario_id": self.scenario_id,
            "point_index": self.point_index,
            "utilization": self.utilization,
            "accepted": dict(self.accepted),
            "evaluated": self.evaluated,
            "generation_failures": self.generation_failures,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }
        if self.simulation is not None:
            record["simulation"] = {
                name: rollup.to_dict() for name, rollup in self.simulation.items()
            }
        if self.outcome != OUTCOME_OK:
            record["outcome"] = self.outcome
            record["error_kind"] = self.error_kind
            record["error_message"] = self.error_message
            record["traceback"] = self.traceback
            record["attempts"] = self.attempts
        return record

    @classmethod
    def from_record(cls, record: dict) -> "UnitResult":
        """Rebuild a result from a store record."""
        simulation = None
        if record.get("simulation") is not None:
            simulation = {
                name: ValidationRollup.from_dict(data)
                for name, data in record["simulation"].items()
            }
        return cls(
            unit_id=record["unit_id"],
            scenario_id=record["scenario_id"],
            point_index=int(record["point_index"]),
            utilization=float(record["utilization"]),
            accepted={k: int(v) for k, v in record["accepted"].items()},
            evaluated=int(record["evaluated"]),
            generation_failures=int(record.get("generation_failures", 0)),
            elapsed_seconds=float(record.get("elapsed_seconds", 0.0)),
            simulation=simulation,
            outcome=str(record.get("outcome", OUTCOME_OK)),
            error_kind=record.get("error_kind"),
            error_message=record.get("error_message"),
            traceback=record.get("traceback"),
            attempts=int(record.get("attempts", 1)),
        )


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor retries failures and recovers a crashed pool.

    ``max_attempts`` bounds executions per unit (in-band errors and
    definite worker-crash blame both consume attempts) before the unit is
    quarantined.  ``backoff_base``/``backoff_cap`` shape the capped
    exponential pause before a pool respawn (``base * 2**(crashes-1)``,
    clamped to the cap; a zero base disables sleeping — used by tests).
    ``max_pool_respawns`` is how many *consecutive* pool crashes (no
    completed chunk in between) are tolerated before the executor falls
    back to one-unit-at-a-time isolation, where a crash blames exactly one
    unit and a poison unit is provably cornered.
    """

    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_cap: float = 8.0
    max_pool_respawns: int = 3

    def backoff_seconds(self, crashes: int) -> float:
        """Pause before the ``crashes``-th consecutive respawn."""
        if self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_base * (2 ** max(0, crashes - 1)), self.backoff_cap)


class UnitDeadlineExceeded(Exception):
    """A work unit overran its per-unit wall-clock deadline."""


@contextlib.contextmanager
def _deadline_guard(seconds: Optional[float], unit_id: str):
    """Raise :class:`UnitDeadlineExceeded` if the body outruns ``seconds``.

    Implemented with ``SIGALRM``/``setitimer`` — pool workers execute
    chunks on their main thread, so the alarm interrupts even a tight
    compute loop.  Where alarms are unavailable (non-POSIX platforms, or a
    non-main thread) the guard is a documented no-op: deadlines are
    best-effort containment, not a scheduling guarantee.
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise UnitDeadlineExceeded(
            f"unit {unit_id} exceeded its {seconds:g}s deadline"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


#: Callback invoked after every completed unit: ``(done, total, result)``.
#: ``result`` is ``None`` for units restored from the store on resume.
UnitProgress = Callable[[int, int, Optional[UnitResult]], None]


def build_protocols(
    names: Sequence[str], max_path_signatures: int = DEFAULT_MAX_PATH_SIGNATURES
) -> List[SchedulabilityTest]:
    """Instantiate schedulability tests from their report names.

    The name → factory mapping is
    :data:`repro.campaign.planner.PROTOCOL_FACTORIES` — the one place the
    paper's protocol suite is defined.
    """
    tests: List[SchedulabilityTest] = []
    for name in names:
        if name not in PROTOCOL_FACTORIES:
            raise ValueError(
                f"unknown protocol {name!r}; known: "
                f"{', '.join(PROTOCOL_FACTORIES)}"
            )
        tests.append(PROTOCOL_FACTORIES[name](max_path_signatures))
    _require_unique_names(tests)
    return tests


def _require_unique_names(protocols: Sequence[SchedulabilityTest]) -> None:
    """Duplicate protocol names would double-count into one ``accepted``
    slot, persisting corrupted records — refuse them up front."""
    names = [test.name for test in protocols]
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        raise ValueError(f"duplicate protocol name(s): {', '.join(sorted(duplicates))}")


def _evaluate_samples(
    unit: WorkUnit,
    protocols: Sequence[SchedulabilityTest],
    result: UnitResult,
    on_accepted=None,
) -> None:
    """The generation/analysis loop of :func:`execute_unit`.

    Draws the unit's samples (streams spawned from the unit's own seed,
    reproducing exactly the generators the serial sweep would have used),
    applies every protocol, and counts acceptances into ``result``.
    ``on_accepted(test, verdict)`` is invoked for every schedulable
    verdict — the simulate mode's validation hook.  Both modes run this
    one loop, which is what makes their acceptance counts *identical by
    construction*, not merely by test.

    With an active telemetry session the loop times its phases
    (``phase.generation``, ``phase.analysis``, ``phase.simulation``) and
    each protocol's share (``protocol.<name>``); the guard is one
    thread-local read when telemetry is off, so the hot loop stays unperturbed.
    """
    platform = Platform(unit.scenario.platform_size)
    generation_config = unit.scenario.generation_config()
    sample_rngs = spawn_rngs(ensure_rng(unit.seed), unit.samples_per_point)
    tel = _active_telemetry()
    for sample_rng in sample_rngs:
        try:
            if tel is not None:
                with tel.span("phase.generation"):
                    taskset = generate_taskset(
                        unit.utilization, generation_config, sample_rng
                    )
            else:
                taskset = generate_taskset(
                    unit.utilization, generation_config, sample_rng
                )
        except GenerationError:
            result.generation_failures += 1
            if tel is not None:
                tel.count("generation.failures")
            continue
        result.evaluated += 1
        if tel is not None:
            tel.count("generation.tasksets")
        for test in protocols:
            if tel is not None:
                with tel.span("phase.analysis"), tel.span(f"protocol.{test.name}"):
                    verdict = test.test(taskset, platform)
            else:
                verdict = test.test(taskset, platform)
            if not verdict.schedulable:
                continue
            result.accepted[test.name] += 1
            if on_accepted is not None:
                if tel is not None:
                    with tel.span("phase.simulation"):
                        on_accepted(test, verdict)
                else:
                    on_accepted(test, verdict)


def execute_unit(
    unit: WorkUnit,
    protocols: Sequence[SchedulabilityTest],
    sim_config: Optional[SimulationConfig] = None,
    telemetry: bool = False,
) -> UnitResult:
    """Execute one work unit: generate the samples and apply every protocol.

    The sample streams are spawned from the unit's own seed, reproducing
    exactly the generators the serial sweep would have used for this point.

    With a ``sim_config`` the unit is a *validation* unit: generation and
    analysis are unchanged (same seeds, same acceptance counts), and every
    analysis-accepted task set is additionally run through the runtime
    simulator — under the *accepting protocol's* locking rules (DPCP-p,
    SPIN or LPP) — on the partition the analysis produced.  The
    observed/bound response-time ratios, deadline misses, invariant
    counters, and truncation outcomes are folded into one
    :class:`~repro.experiments.metrics.ValidationRollup` per protocol in
    :attr:`UnitResult.simulation`.

    With ``telemetry=True`` the unit runs inside its own
    :func:`repro.obs.telemetry.session` and its aggregated snapshot travels
    back in :attr:`UnitResult.telemetry` (never in the store record).
    """
    started = time.perf_counter()
    result = UnitResult(
        unit_id=unit.unit_id,
        scenario_id=unit.scenario.scenario_id,
        point_index=unit.point_index,
        utilization=unit.utilization,
        accepted={test.name: 0 for test in protocols},
    )
    validate = None
    if sim_config is not None:
        result.simulation = {test.name: ValidationRollup() for test in protocols}

        def validate(test, verdict) -> None:
            rollup = result.simulation[test.name]
            outcome = validate_partition(
                verdict.partition, sim_config, protocol=test.name
            )
            rollup.simulated += 1
            if outcome.status == STATUS_TRUNCATED:
                rollup.truncated += 1
            elif outcome.status == STATUS_RULE_ERROR:
                rollup.rule_failures += 1
            rollup.mutual_exclusion_violations += outcome.mutual_exclusion_violations
            rollup.processor_overlaps += outcome.processor_overlaps
            rollup.spin_exclusivity_violations += outcome.spin_exclusivity_violations
            rollup.deadline_misses += outcome.deadline_misses
            rollup.jobs_finished += outcome.jobs_finished
            rollup.events += outcome.events
            for task_id, observed in sorted(outcome.observed_response_times.items()):
                rollup.ratio.add(observed / verdict.task_analyses[task_id].wcrt)

    if telemetry:
        with _telemetry_session() as tel:
            _evaluate_samples(unit, protocols, result, on_accepted=validate)
            result.telemetry = tel.to_dict()
    else:
        _evaluate_samples(unit, protocols, result, on_accepted=validate)
    result.elapsed_seconds = time.perf_counter() - started
    return result


#: A unit runner: turns one work unit + protocol suite into a result.  Must
#: be pickleable (top-level function or ``functools.partial`` of one) so the
#: process pool can ship it to workers.
UnitRunner = Callable[[WorkUnit, Sequence[SchedulabilityTest]], UnitResult]


def plan_runner(plan: CampaignPlan, telemetry: bool = False) -> UnitRunner:
    """The unit runner a plan's mode calls for (pickleable).

    ``telemetry=True`` makes every unit run inside its own telemetry
    session and carry its snapshot home in :attr:`UnitResult.telemetry`
    (a plain dict, so it pickles across the process-pool boundary).
    """
    if plan.mode == MODE_SIMULATE:
        return functools.partial(
            execute_unit,
            sim_config=plan.sim_config or SimulationConfig(),
            telemetry=telemetry,
        )
    if telemetry:
        return functools.partial(execute_unit, telemetry=telemetry)
    return execute_unit


def _error_result(
    unit: WorkUnit, kind: str, message: str, trace: Optional[str] = None
) -> UnitResult:
    """Build the typed error :class:`UnitResult` of a failed unit."""
    return UnitResult(
        unit_id=unit.unit_id,
        scenario_id=unit.scenario.scenario_id,
        point_index=unit.point_index,
        utilization=unit.utilization,
        outcome=OUTCOME_ERROR,
        error_kind=kind,
        error_message=message,
        traceback=trace,
    )


def _run_unit_contained(
    unit: WorkUnit,
    protocols: Sequence[SchedulabilityTest],
    runner: UnitRunner,
    deadline: Optional[float] = None,
    allow_exit: bool = True,
) -> UnitResult:
    """Execute one unit, converting any exception into a typed error result.

    This is the crash-containment boundary: whatever the unit runner
    raises — a real bug, an injected :class:`~.faultinject.FaultInjected`,
    or a :class:`UnitDeadlineExceeded` from the per-unit deadline — comes
    back as an ``error`` :class:`UnitResult` carrying the error kind, the
    message, and a truncated traceback, so the rest of the chunk (and the
    worker) survives.  ``allow_exit`` is forwarded to the fault-injection
    hook (the in-process path must not let a ``kill`` fault exit the
    campaign process itself).
    """
    started = time.perf_counter()
    try:
        with _deadline_guard(deadline, unit.unit_id):
            plan = faultinject.active_plan()
            if plan is not None:
                plan.fire(unit.unit_id, allow_exit=allow_exit)
            return runner(unit, protocols)
    except Exception as error:  # noqa: BLE001 - containment boundary
        if isinstance(error, UnitDeadlineExceeded):
            kind = ERROR_KIND_TIMEOUT
        else:
            kind = type(error).__name__
        trace = traceback_module.format_exc()
        if len(trace) > _TRACEBACK_LIMIT:
            trace = "…" + trace[-_TRACEBACK_LIMIT:]
        result = _error_result(unit, kind, str(error), trace)
        result.elapsed_seconds = time.perf_counter() - started
        return result


def _execute_chunk(
    units: Sequence[WorkUnit],
    protocols: Sequence[SchedulabilityTest],
    runner: UnitRunner = execute_unit,
    deadline: Optional[float] = None,
) -> List[UnitResult]:
    """Worker entry point: execute a chunk of units in one process call.

    Each unit is individually contained, so one failing unit yields one
    error result without forfeiting the rest of its chunk.
    """
    return [
        _run_unit_contained(unit, protocols, runner, deadline, allow_exit=True)
        for unit in units
    ]


def _chunk(units: List[WorkUnit], size: int) -> List[List[WorkUnit]]:
    return [units[i : i + size] for i in range(0, len(units), size)]


def _emit(events: Optional[EventSink], event: Event) -> None:
    """Emit one event, downgrading I/O failures to a logged warning.

    Observability must never fail a campaign — but a sink that stopped
    persisting is itself worth observing, so instead of silently
    swallowing the ``OSError`` we surface it once per failure through
    :mod:`repro.obs.log`.
    """
    if events is None:
        return
    try:
        events.emit(event)
    except OSError as error:
        get_logger("campaign.executor").warning(
            "event emission failed (%s: %s); continuing without it",
            event.TYPE,
            error,
        )


def _emit_unit_finished(events: Optional[EventSink], result: UnitResult) -> None:
    """Emit the per-unit events of one finished unit (best-effort).

    Emits :class:`~repro.obs.events.UnitFinished` always, and — when the
    unit ran with telemetry — its full
    :class:`~repro.obs.events.UnitTelemetry` snapshot.  Event I/O failures
    are logged and swallowed: observability must never fail a campaign.
    """
    if events is None:
        return
    try:
        events.emit(
            UnitFinished(
                unit_id=result.unit_id,
                scenario_id=result.scenario_id,
                point_index=result.point_index,
                utilization=result.utilization,
                elapsed_seconds=round(result.elapsed_seconds, 6),
                evaluated=result.evaluated,
                generation_failures=result.generation_failures,
            )
        )
        if result.telemetry:
            events.emit(
                UnitTelemetry(unit_id=result.unit_id, telemetry=result.telemetry)
            )
    except OSError as error:
        get_logger("campaign.executor").warning(
            "unit-finished event emission failed for %s (%s); continuing",
            result.unit_id,
            error,
        )


def execute_units(
    units: Sequence[WorkUnit],
    protocols: Sequence[SchedulabilityTest],
    *,
    workers: int = 1,
    store: Optional[CampaignStore] = None,
    records: Optional[Dict[str, dict]] = None,
    progress: Optional[UnitProgress] = None,
    chunk_size: Optional[int] = None,
    max_units: Optional[int] = None,
    runner: UnitRunner = execute_unit,
    events: Optional[EventSink] = None,
    retry: Optional[RetryPolicy] = None,
    unit_deadline: Optional[float] = None,
) -> List[UnitResult]:
    """Execute ``units``, returning their *successful* results in input order.

    When a ``store`` is given, its checkpointed units (``records``, if the
    caller already read them) are restored instead of re-executed, and every
    newly completed unit is appended to it at once (resume safety).
    ``max_units`` caps the number of *newly executed* units — useful for
    smoke tests and for demonstrating interrupted runs.  ``runner`` selects
    how one unit is executed (analysis only, or analysis + validation
    simulation); it must be pickleable for ``workers > 1``.  An optional
    ``events`` sink receives :class:`~repro.obs.events.UnitStarted` on
    dispatch and the per-unit finish events (out-of-band; emission failures
    never fail the run, and restored units emit nothing).

    Failures are contained, retried per ``retry`` (default
    :class:`RetryPolicy`), and finally quarantined: the error record goes
    to the store's ``quarantine.jsonl`` and the unit is *absent* from the
    returned list — the campaign completes the rest.  ``unit_deadline``
    bounds each unit's wall-clock seconds (POSIX only; overruns become
    ``timeout`` errors).  A crashed worker pool is respawned with capped
    exponential backoff; see the module docstring for the blame protocol.
    """
    _require_unique_names(protocols)
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    if max_units is not None and max_units < 0:
        raise ValueError(f"max_units must be non-negative, got {max_units}")
    policy = retry or RetryPolicy()
    log = get_logger("campaign.executor")
    units = list(units)
    total = len(units)
    completed: Dict[str, UnitResult] = {}
    if store is not None:
        records = store.load_records() if records is None else records
        for unit in units:
            record = records.get(unit.unit_id)
            if record is not None:
                completed[unit.unit_id] = UnitResult.from_record(record)
    done = len(completed)
    if progress is not None and done:
        progress(done, total, None)

    pending = [unit for unit in units if unit.unit_id not in completed]
    if max_units is not None:
        pending = pending[:max_units]
    unit_by_id = {unit.unit_id: unit for unit in pending}
    attempts: Dict[str, int] = {}

    def started(units_batch: Sequence[WorkUnit]) -> None:
        for unit in units_batch:
            _emit(events, UnitStarted(unit_id=unit.unit_id))

    def finish(result: UnitResult) -> None:
        nonlocal done
        if store is not None:
            store.append(result.to_record())
        _emit_unit_finished(events, result)
        completed[result.unit_id] = result
        done += 1
        if progress is not None:
            progress(done, total, result)

    def quarantine(result: UnitResult) -> None:
        nonlocal done
        if store is not None:
            store.append_quarantine(result.to_record())
        _emit(
            events,
            UnitQuarantined(
                unit_id=result.unit_id,
                error_kind=result.error_kind or "",
                attempts=result.attempts,
                error_message=result.error_message or "",
            ),
        )
        log.warning(
            "unit %s quarantined after %d attempt(s): %s: %s",
            result.unit_id,
            result.attempts,
            result.error_kind,
            result.error_message,
        )
        done += 1
        if progress is not None:
            progress(done, total, result)

    def handle_result(result: UnitResult) -> Optional[WorkUnit]:
        """Fold one contained result; returns a unit to requeue for retry."""
        if result.outcome == OUTCOME_OK:
            finish(result)
            return None
        count = attempts.get(result.unit_id, 0) + 1
        attempts[result.unit_id] = count
        result.attempts = count
        if count < policy.max_attempts:
            _emit(
                events,
                UnitRetried(
                    unit_id=result.unit_id,
                    attempt=count,
                    error_kind=result.error_kind or "",
                ),
            )
            log.warning(
                "unit %s failed (attempt %d/%d, %s); retrying",
                result.unit_id,
                count,
                policy.max_attempts,
                result.error_kind,
            )
            return unit_by_id[result.unit_id]
        quarantine(result)
        return None

    if workers <= 1 or len(pending) <= 1:
        run_queue: Deque[WorkUnit] = deque(pending)
        while run_queue:
            unit = run_queue.popleft()
            started([unit])
            result = _run_unit_contained(
                unit, protocols, runner, unit_deadline, allow_exit=False
            )
            requeue = handle_result(result)
            if requeue is not None:
                run_queue.appendleft(requeue)
    else:
        # A chunk is checkpointed only when it returns as a whole, so the
        # auto size stays small: a killed run re-executes at most
        # workers * size units of finished-but-unreported compute.
        # Pass --chunk-size to trade that window for dispatch overhead.
        size = chunk_size or max(1, min(4, math.ceil(len(pending) / (workers * 4))))
        queue: Deque[List[WorkUnit]] = deque(_chunk(pending, size))
        futures: Dict[object, List[WorkUnit]] = {}
        pool: Optional[ProcessPoolExecutor] = None
        crashes = 0

        def submit_ready() -> None:
            """Submit queued chunks, respecting post-crash isolation.

            After ``max_pool_respawns`` consecutive crashes the executor
            isolates: one single-unit chunk in flight at a time, so the
            next crash blames exactly one unit.
            """
            nonlocal pool
            isolating = crashes >= policy.max_pool_respawns
            while queue:
                if isolating and futures:
                    return
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=min(workers, max(1, len(queue)))
                    )
                chunk = queue[0]
                if isolating and len(chunk) > 1:
                    queue.popleft()
                    for unit in reversed(chunk):
                        queue.appendleft([unit])
                    chunk = queue[0]
                started(chunk)
                future = pool.submit(
                    _execute_chunk, chunk, protocols, runner, unit_deadline
                )
                queue.popleft()
                futures[future] = chunk

        def process_future(future) -> None:
            for result in future.result():
                requeue = handle_result(result)
                if requeue is not None:
                    queue.appendleft([requeue])

        def on_pool_crash() -> None:
            """Recover from a dead pool: fold survivors, requeue, respawn."""
            nonlocal pool, crashes
            crashes += 1
            inflight: List[List[WorkUnit]] = []
            for future, chunk in list(futures.items()):
                if (
                    future.done()
                    and not future.cancelled()
                    and future.exception() is None
                ):
                    process_future(future)
                else:
                    inflight.append(chunk)
            futures.clear()
            if len(inflight) == 1 and len(inflight[0]) == 1:
                # Exactly one unit was in flight — the crash is its doing,
                # definitely: consume one of its attempts.
                unit = inflight[0][0]
                requeue = handle_result(
                    _error_result(
                        unit,
                        ERROR_KIND_WORKER_CRASH,
                        "worker process died while executing this unit",
                    )
                )
                if requeue is not None:
                    queue.appendleft([requeue])
            else:
                # Ambiguous blame: requeue the in-flight chunks, bisecting
                # multi-unit ones so a repeatedly fatal chunk narrows
                # toward its poison unit crash by crash.
                for chunk in reversed(inflight):
                    if len(chunk) > 1:
                        mid = (len(chunk) + 1) // 2
                        queue.appendleft(chunk[mid:])
                        queue.appendleft(chunk[:mid])
                    else:
                        queue.appendleft(chunk)
            if pool is not None:
                pool.shutdown(wait=False)
                pool = None
            backoff = policy.backoff_seconds(crashes)
            inflight_units = sum(len(chunk) for chunk in inflight)
            _emit(
                events,
                PoolCrashed(
                    respawn=crashes,
                    backoff_seconds=round(backoff, 6),
                    inflight_units=inflight_units,
                ),
            )
            log.warning(
                "worker pool crashed (consecutive crash %d, %d unit(s) "
                "requeued); respawning after %.2fs backoff",
                crashes,
                inflight_units,
                backoff,
            )
            if backoff:
                time.sleep(backoff)

        def submit_safe() -> None:
            try:
                submit_ready()
            except BrokenProcessPool:
                # The pool broke between a completed wait and our submit.
                on_pool_crash()

        try:
            while queue or futures:
                if not futures:
                    submit_safe()
                    if not futures:
                        continue
                finished, _ = wait(set(futures), return_when=FIRST_COMPLETED)
                crashed = False
                for future in finished:
                    error = future.exception()
                    if isinstance(error, BrokenProcessPool):
                        crashed = True
                        break
                    if error is not None:
                        raise error
                    del futures[future]
                    process_future(future)
                    crashes = 0
                if crashed:
                    on_pool_crash()
                submit_safe()
        finally:
            # Cancel by hand instead of shutdown(cancel_futures=True): the
            # drain below needs the futures set either way.
            for future in futures:
                future.cancel()
            if pool is not None:
                pool.shutdown(wait=True)
            # In-flight chunks cannot be cancelled and run to completion
            # during the shutdown above — checkpoint what they produced
            # (e.g. on KeyboardInterrupt) instead of discarding compute
            # that resume would have to redo.  No progress callbacks here:
            # this may run during exception unwind.  Error results are not
            # drained: retry accounting is gone, and quarantining on the
            # way out would turn a transient failure terminal.
            for future in futures:
                if future.cancelled() or not future.done() or future.exception():
                    continue
                for result in future.result():
                    if result.outcome != OUTCOME_OK:
                        continue
                    if result.unit_id not in completed:
                        if store is not None:
                            store.append(result.to_record())
                        _emit_unit_finished(events, result)
                        completed[result.unit_id] = result

    return [completed[unit.unit_id] for unit in units if unit.unit_id in completed]


# --------------------------------------------------------------------------- #
# The campaign driver
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CampaignOutcome:
    """What :func:`execute_campaign` left in its store.

    ``results`` are the successful results, in plan order, of the
    ``total`` units in the store's slice; ``unresolved`` holds the
    quarantine records no completed record heals; ``exit_code`` is 0 when
    complete, 3 when units are missing or quarantined.
    """

    results: List[UnitResult]
    total: int
    unresolved: Dict[str, dict]
    exit_code: int


def execute_campaign(
    view: StoreView,
    *,
    workers: int = 1,
    progress: Optional[UnitProgress] = None,
    retry: Optional[RetryPolicy] = None,
    chunk_size: Optional[int] = None,
    max_units: Optional[int] = None,
    unit_deadline: Optional[float] = None,
    telemetry: bool = True,
) -> CampaignOutcome:
    """Execute the slice of an initialised store's ``view`` into the store.

    With ``telemetry`` each unit runs in its own telemetry session and the
    store's ``events.jsonl`` receives ``campaign_started``, the unit and
    recovery events, and ``campaign_finished``; an unwritable stream is a
    logged warning, never a failed campaign.
    """
    plan, store, units = view.plan, view.store, view.units
    protocols = build_protocols(plan.protocol_names, plan.config.max_path_signatures)
    sink = EventSink(store.directory) if telemetry else None
    started_at = time.monotonic()
    if sink is not None:
        try:
            sink.emit(
                CampaignStarted(
                    config_hash=view.manifest.get("config_hash", ""),
                    mode=plan.mode,
                    total_units=len(units),
                    workers=workers,
                    protocols=tuple(plan.protocol_names),
                )
            )
        except OSError as error:
            get_logger("campaign.executor").warning(
                "event stream unavailable (%s); continuing without telemetry",
                error,
            )
            sink = None
    try:
        results = execute_units(
            units,
            protocols,
            workers=workers,
            store=store,
            records=view.records,
            progress=progress,
            chunk_size=chunk_size,
            max_units=max_units,
            runner=plan_runner(plan, telemetry=telemetry),
            events=sink,
            retry=retry,
            unit_deadline=unit_deadline,
        )
        _emit(
            sink,
            CampaignFinished(
                completed=len(results),
                total=len(units),
                elapsed_seconds=round(time.monotonic() - started_at, 6),
            ),
        )
    finally:
        if sink is not None:
            sink.close()
    completed = set(view.records).union(result.unit_id for result in results)
    unresolved = unresolved_quarantine(store.load_quarantine(), completed)
    complete = len(results) == len(units) and not unresolved
    return CampaignOutcome(results, len(units), unresolved, 0 if complete else 3)


# --------------------------------------------------------------------------- #
# Curve assembly
# --------------------------------------------------------------------------- #
def assemble_sweep(scenario, protocol_names, results):
    """Build a :class:`~repro.experiments.runner.SweepResult` from unit results.

    ``results`` must cover a single scenario; points are ordered by their
    index regardless of completion order.
    """
    from ..experiments.metrics import SweepCurve
    from ..experiments.runner import SweepResult

    sweep = SweepResult(scenario=scenario)
    for name in protocol_names:
        sweep.curves[name] = SweepCurve(protocol=name)
    for result in sorted(results, key=lambda r: r.point_index):
        for name in protocol_names:
            sweep.curves[name].add_point(
                result.utilization,
                result.accepted[name],
                result.evaluated,
                generation_failures=result.generation_failures,
            )
    return sweep
