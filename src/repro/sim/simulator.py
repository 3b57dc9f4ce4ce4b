"""Event-driven runtime simulator with pluggable locking protocols.

The simulator executes jobs of parallel DAG tasks on a partitioned platform
under federated scheduling.  The *locking rules* — how a critical segment
issues a request, how locks are granted and in which order, and what a
waiting vertex does (suspend, busy-wait, run as an agent) — live behind a
:class:`~repro.sim.protocols.ProtocolBehavior` strategy object:

* :class:`~repro.sim.protocols.DpcpPBehavior` (the default) implements the
  DPCP-p rules of Sec. III — per-task queues ``RQ^N``/``RQ^L``/``SQ``,
  per-processor ``RQ^G``/``SQ^G``, priority ceilings, and request agents on
  the resource's home processor;
* :class:`~repro.sim.protocols.SpinBehavior` implements non-preemptive
  busy-waiting with a task-fair FIFO queue (the spinning vertex occupies
  its processor);
* :class:`~repro.sim.protocols.LppBehavior` implements local priority-
  ceiling semaphores (waiters suspend, grants in priority order, granted
  critical sections run boosted).

The simulator core owns everything protocol-independent: the event loop,
vertex/segment lifecycle, DAG precedence, the per-task ready queues, and
trace recording.  It is intended for validation (invariant checks,
analysis-bound soundness) and for reproducing illustrative schedules such
as Fig. 1 — it is not meant to be cycle-accurate.

**Tie breaking.**  Event times are compared up to the absolute tolerance
``_EPS`` (1e-9 µs): events within ``_EPS`` of the current time are treated
as *simultaneous* and are all handled before processors are rescheduled, in
the order they were pushed (a monotonically increasing event counter breaks
heap ties).  Consequently a vertex that completes exactly when another is
released never observes a half-updated queue state, and zero-length
segments are skipped without advancing time.  The same ``_EPS`` governs
interval-overlap checks in :mod:`repro.sim.trace` — sub-``_EPS`` overlaps
are rounding noise, not violations.

**Truncation semantics.**  :meth:`RuntimeSimulator.run` accepts an optional
event budget and wall-clock budget.  When either is exhausted the run stops
*between* events and raises :class:`SimulationTruncated` instead of looping
forever on a pathological workload.  The simulator state is left intact and
consistent: every interval recorded so far is complete, jobs whose last
vertex finished have a ``finish_time``, and unfinished jobs simply report
``response_time is None`` — so a truncated trace still yields sound
*lower* bounds on observed response times (never inflated ones).
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..model.platform import PartitionedSystem
from ..model.task import TaskSet
from .behaviors import Segment, VertexBehavior, behaviors_from_task, validate_behaviors
from .trace import ExecutionInterval, JobRecord, RequestRecord, SimulationTrace

_EPS = 1e-9

#: How many events are processed between wall-clock budget checks (the
#: clock read is kept off the per-event hot path).
_WALL_CLOCK_CHECK_INTERVAL = 512


class SimulationError(RuntimeError):
    """Raised when the simulator reaches an inconsistent state."""


class SimulationTruncated(RuntimeError):
    """Raised by :meth:`RuntimeSimulator.run` when a budget is exhausted.

    Attributes
    ----------
    reason:
        ``"event_budget"`` or ``"wall_clock_budget"``.
    events_processed:
        Number of events handled before the run was cut.
    simulated_time:
        Simulation clock value at the cut.
    """

    def __init__(self, reason: str, events_processed: int, simulated_time: float) -> None:
        super().__init__(
            f"simulation truncated ({reason}) after {events_processed} events "
            f"at t={simulated_time:.3f}"
        )
        self.reason = reason
        self.events_processed = events_processed
        self.simulated_time = simulated_time


# --------------------------------------------------------------------------- #
# Runtime entities
# --------------------------------------------------------------------------- #
@dataclass
class _VertexInstance:
    """A vertex of one released job, with its remaining execution segments."""

    task_id: int
    job_id: int
    vertex: int
    priority: int
    segments: List[Segment]
    segment_index: int = 0
    remaining_in_segment: float = 0.0
    pending_predecessors: int = 0

    def __post_init__(self) -> None:
        if self.segments:
            self.remaining_in_segment = self.segments[0].duration

    @property
    def key(self) -> Tuple[int, int, int]:
        return (self.task_id, self.job_id, self.vertex)

    @property
    def current_segment(self) -> Optional[Segment]:
        if self.segment_index >= len(self.segments):
            return None
        return self.segments[self.segment_index]

    def advance_segment(self) -> None:
        """Move to the next segment."""
        self.segment_index += 1
        segment = self.current_segment
        self.remaining_in_segment = segment.duration if segment else 0.0

    @property
    def finished(self) -> bool:
        return self.segment_index >= len(self.segments)


@dataclass
class _Request:
    """A pending or executing global-resource request (an RPC agent)."""

    task_id: int
    job_id: int
    vertex: int
    resource: int
    priority: int
    processor: int
    remaining: float
    record: RequestRecord

    @property
    def key(self) -> Tuple[int, int, int, int]:
        return (self.task_id, self.job_id, self.vertex, self.resource)


@dataclass
class _RunningChunk:
    """What a processor is currently executing."""

    kind: str  # "vertex", "agent" or "spin"
    vertex: Optional[_VertexInstance]
    request: Optional[_Request]
    start_time: float
    sequence: int
    resource: Optional[int] = None


@dataclass
class _JobState:
    """Book-keeping of one released job."""

    task_id: int
    job_id: int
    release_time: float
    unfinished_vertices: int


# --------------------------------------------------------------------------- #
# The simulator
# --------------------------------------------------------------------------- #
class RuntimeSimulator:
    """Discrete-event simulator of a locking protocol on a partitioned system.

    Parameters
    ----------
    partition:
        The task/resource partition to simulate (clusters, and — for
        DPCP-p — global-resource home processors).
    behaviors:
        Optional ``task id -> {vertex -> VertexBehavior}``; derived
        automatically (requests spread evenly) when omitted.
    protocol:
        The :class:`~repro.sim.protocols.ProtocolBehavior` implementing the
        locking rules; defaults to DPCP-p.
    record_trace:
        When ``False``, execution intervals and request records are *not*
        retained (the memory hog for long horizons); job records are always
        kept, so response times and deadline checks still work.  Pair with
        ``interval_observer`` for online invariant checking.
    interval_observer:
        Optional callable receiving every completed
        :class:`~repro.sim.trace.ExecutionInterval` as it is recorded
        (whether or not the trace retains it) — the hook used by
        :class:`repro.sim.validation.InvariantMonitor`.
    """

    def __init__(
        self,
        partition: PartitionedSystem,
        behaviors: Optional[Dict[int, Dict[int, VertexBehavior]]] = None,
        *,
        protocol=None,
        record_trace: bool = True,
        interval_observer=None,
    ) -> None:
        self.partition = partition
        self.record_trace = bool(record_trace)
        self.interval_observer = interval_observer
        self.events_processed = 0
        self.taskset: TaskSet = partition.taskset
        self.behaviors: Dict[int, Dict[int, VertexBehavior]] = {}
        for task in self.taskset:
            if behaviors and task.task_id in behaviors:
                validate_behaviors(task, behaviors[task.task_id])
                self.behaviors[task.task_id] = behaviors[task.task_id]
            else:
                self.behaviors[task.task_id] = behaviors_from_task(task)

        self.trace = SimulationTrace()
        self.now = 0.0

        # Event queue: (time, order, kind, payload)
        self._events: List[Tuple[float, int, str, object]] = []
        self._event_counter = itertools.count()
        self._chunk_counter = itertools.count()

        # Protocol-independent scheduling state.
        self._running: Dict[int, Optional[_RunningChunk]] = {
            proc: None for proc in partition.platform.processors
        }
        self._rq_n: Dict[int, List[_VertexInstance]] = {
            t.task_id: [] for t in self.taskset
        }
        self._rq_l: Dict[int, List[_VertexInstance]] = {
            t.task_id: [] for t in self.taskset
        }
        self._suspended: Dict[int, List[_VertexInstance]] = {
            t.task_id: [] for t in self.taskset
        }

        self._jobs: Dict[Tuple[int, int], _JobState] = {}
        self._instances_by_job: Dict[Tuple[int, int], Dict[int, _VertexInstance]] = {}
        self._job_counters: Dict[int, int] = {t.task_id: 0 for t in self.taskset}

        if protocol is None:
            from .protocols import DpcpPBehavior

            protocol = DpcpPBehavior()
        self.protocol = protocol
        self.protocol.attach(self)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def release_job(self, task_id: int, release_time: float) -> int:
        """Schedule the release of one job of ``task_id`` at ``release_time``."""
        if release_time < 0:
            raise SimulationError("release time must be non-negative")
        job_id = self._job_counters[task_id]
        self._job_counters[task_id] += 1
        self._push_event(release_time, "release", (task_id, job_id))
        task = self.taskset.task(task_id)
        self.trace.add_job(
            JobRecord(
                task_id=task_id,
                job_id=job_id,
                release_time=release_time,
                absolute_deadline=release_time + task.deadline,
            )
        )
        return job_id

    def release_periodic_jobs(self, horizon: float, offset: float = 0.0) -> None:
        """Release strictly periodic jobs of every task up to ``horizon``."""
        for task in self.taskset:
            release = offset
            while release < horizon - _EPS:
                self.release_job(task.task_id, release)
                release += task.period

    def run(
        self,
        until: Optional[float] = None,
        *,
        max_events: Optional[int] = None,
        wall_clock_seconds: Optional[float] = None,
    ) -> SimulationTrace:
        """Run the simulation until the event queue drains (or ``until``).

        ``max_events`` and ``wall_clock_seconds`` bound the run; when either
        budget is exhausted the run stops between events and raises
        :class:`SimulationTruncated` (the trace recorded so far stays valid
        and reachable through :attr:`trace`).  The wall clock is checked
        every ``_WALL_CLOCK_CHECK_INTERVAL`` events to keep the clock read
        off the hot path, so the budget overshoots by at most that many
        events.
        """
        if max_events is not None and max_events < 0:
            raise ValueError(f"max_events must be non-negative, got {max_events}")
        if wall_clock_seconds is not None and wall_clock_seconds < 0:
            raise ValueError(
                f"wall_clock_seconds must be non-negative, got {wall_clock_seconds}"
            )
        started = time.monotonic() if wall_clock_seconds is not None else 0.0
        next_clock_check = self.events_processed + _WALL_CLOCK_CHECK_INTERVAL
        while self._events:
            if until is not None and self._events[0][0] > until + _EPS:
                break
            if max_events is not None and self.events_processed >= max_events:
                raise SimulationTruncated(
                    "event_budget", self.events_processed, self.now
                )
            if wall_clock_seconds is not None and self.events_processed >= next_clock_check:
                next_clock_check = self.events_processed + _WALL_CLOCK_CHECK_INTERVAL
                if time.monotonic() - started > wall_clock_seconds:
                    raise SimulationTruncated(
                        "wall_clock_budget", self.events_processed, self.now
                    )
            event_time, _, kind, payload = heapq.heappop(self._events)
            if event_time < self.now - _EPS:
                raise SimulationError("event time went backwards")
            self.now = max(self.now, event_time)
            self._handle_event(kind, payload)
            self.events_processed += 1
            # Process all simultaneous events before rescheduling.
            while self._events and abs(self._events[0][0] - self.now) <= _EPS:
                _, _, next_kind, next_payload = heapq.heappop(self._events)
                self._handle_event(next_kind, next_payload)
                self.events_processed += 1
            self._schedule_processors()
        return self.trace

    # ------------------------------------------------------------------ #
    # Event handling
    # ------------------------------------------------------------------ #
    def _push_event(self, time: float, kind: str, payload: object) -> None:
        heapq.heappush(self._events, (time, next(self._event_counter), kind, payload))

    def _handle_event(self, kind: str, payload: object) -> None:
        if kind == "release":
            task_id, job_id = payload
            self._handle_release(task_id, job_id)
        elif kind == "chunk_done":
            processor, sequence = payload
            self._handle_chunk_completion(processor, sequence)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown event kind {kind!r}")

    def _handle_release(self, task_id: int, job_id: int) -> None:
        task = self.taskset.task(task_id)
        behaviors = self.behaviors[task_id]
        instances: Dict[int, _VertexInstance] = {}
        for vertex in task.vertices:
            instance = _VertexInstance(
                task_id=task_id,
                job_id=job_id,
                vertex=vertex.index,
                priority=task.priority,
                segments=list(behaviors[vertex.index].segments),
                pending_predecessors=len(task.dag.predecessors(vertex.index)),
            )
            instances[vertex.index] = instance
        self._jobs[(task_id, job_id)] = _JobState(
            task_id=task_id,
            job_id=job_id,
            release_time=self.now,
            unfinished_vertices=len(instances),
        )
        self._instances_by_job[(task_id, job_id)] = instances
        for vertex_index, instance in instances.items():
            if instance.pending_predecessors == 0:
                self._make_eligible(instance)

    def _make_eligible(self, instance: _VertexInstance) -> None:
        """A vertex whose predecessors have finished becomes pending."""
        if instance.finished or instance.current_segment is None:
            self._complete_vertex(instance)
            return
        self._dispatch_segment(instance)

    def _dispatch_segment(self, instance: _VertexInstance) -> None:
        """Place a vertex according to its current segment.

        Non-critical segments join the task's ``RQ^N``; critical segments
        are handed to the protocol behavior, which decides how the request
        is issued (suspend and dispatch an agent, enter a spin queue, take
        a local semaphore, ...).
        """
        segment = instance.current_segment
        if segment is None:
            self._complete_vertex(instance)
            return
        if segment.duration <= _EPS:
            instance.advance_segment()
            self._dispatch_segment(instance)
            return
        if not segment.is_critical:
            self._rq_n[instance.task_id].append(instance)
            return
        self.protocol.issue_request(instance, segment)

    # ------------------------------------------------------------------ #
    # Vertex completion and precedence
    # ------------------------------------------------------------------ #
    def _complete_vertex(self, instance: _VertexInstance) -> None:
        job_key = (instance.task_id, instance.job_id)
        job_state = self._jobs[job_key]
        job_state.unfinished_vertices -= 1
        task = self.taskset.task(instance.task_id)
        instances = self._instances_by_job[job_key]
        for successor in task.dag.successors(instance.vertex):
            successor_instance = instances[successor]
            successor_instance.pending_predecessors -= 1
            if successor_instance.pending_predecessors == 0:
                self._make_eligible(successor_instance)
        if job_state.unfinished_vertices == 0:
            self.trace.job(instance.task_id, instance.job_id).finish_time = self.now

    def _find_instance(self, task_id: int, job_id: int, vertex: int) -> _VertexInstance:
        return self._instances_by_job[(task_id, job_id)][vertex]

    # ------------------------------------------------------------------ #
    # Processor scheduling (delegated to the protocol behavior)
    # ------------------------------------------------------------------ #
    def _schedule_processors(self) -> None:
        for processor in self.partition.platform.processors:
            self.protocol.schedule_processor(processor)

    def _next_ready_vertex(self, task_id: int) -> Optional[_VertexInstance]:
        if self._rq_l[task_id]:
            return self._rq_l[task_id].pop(0)
        if self._rq_n[task_id]:
            return self._rq_n[task_id].pop(0)
        return None

    def _start_vertex(self, processor: int, instance: _VertexInstance) -> None:
        segment = instance.current_segment
        if segment is None:
            self._complete_vertex(instance)
            return
        sequence = next(self._chunk_counter)
        self._running[processor] = _RunningChunk(
            kind="vertex",
            vertex=instance,
            request=None,
            start_time=self.now,
            sequence=sequence,
            resource=segment.resource,
        )
        self._push_event(
            self.now + instance.remaining_in_segment, "chunk_done", (processor, sequence)
        )

    def _start_agent(self, processor: int, request: _Request) -> None:
        sequence = next(self._chunk_counter)
        self._running[processor] = _RunningChunk(
            kind="agent",
            vertex=None,
            request=request,
            start_time=self.now,
            sequence=sequence,
            resource=request.resource,
        )
        self._push_event(self.now + request.remaining, "chunk_done", (processor, sequence))

    def _start_spin(self, processor: int, instance: _VertexInstance) -> None:
        """Begin a busy-wait chunk: the vertex occupies ``processor``.

        No completion event is pushed — the spin ends only when the protocol
        behavior hands over the lock and calls :meth:`_end_spin`.
        """
        sequence = next(self._chunk_counter)
        self._running[processor] = _RunningChunk(
            kind="spin",
            vertex=instance,
            request=None,
            start_time=self.now,
            sequence=sequence,
            resource=None,
        )

    def _end_spin(self, processor: int) -> _VertexInstance:
        """Finish the busy-wait on ``processor`` and record the spin interval."""
        chunk = self._running[processor]
        if chunk is None or chunk.kind != "spin":
            raise SimulationError(f"no spin in progress on processor {processor}")
        self._record_interval(processor, chunk, self.now)
        self._running[processor] = None
        return chunk.vertex

    def _preempt(self, processor: int) -> None:
        """Stop the chunk running on ``processor`` and put the work back."""
        chunk = self._running[processor]
        if chunk is None:
            return
        if chunk.kind == "spin":
            raise SimulationError("a busy-waiting vertex cannot be preempted")
        elapsed = self.now - chunk.start_time
        self._record_interval(processor, chunk, self.now)
        if chunk.kind == "vertex":
            instance = chunk.vertex
            instance.remaining_in_segment = max(
                0.0, instance.remaining_in_segment - elapsed
            )
            segment = instance.current_segment
            if segment is not None and segment.is_critical:
                self._rq_l[instance.task_id].insert(0, instance)
            else:
                self._rq_n[instance.task_id].insert(0, instance)
        else:
            request = chunk.request
            request.remaining = max(0.0, request.remaining - elapsed)
            # The request stays in RQ^G (it still holds the lock).
        self._running[processor] = None

    def _handle_chunk_completion(self, processor: int, sequence: int) -> None:
        chunk = self._running[processor]
        if chunk is None or chunk.sequence != sequence:
            return  # stale event (the chunk was preempted)
        self._record_interval(processor, chunk, self.now)
        self._running[processor] = None
        if chunk.kind == "vertex":
            instance = chunk.vertex
            segment = instance.current_segment
            instance.remaining_in_segment = 0.0
            if segment is not None and segment.is_critical:
                self.protocol.critical_section_finished(instance, segment)
            instance.advance_segment()
            if instance.finished:
                self._complete_vertex(instance)
            else:
                self._dispatch_segment(instance)
        else:
            request = chunk.request
            request.remaining = 0.0
            self.protocol.agent_finished(request)

    def _record_interval(
        self, processor: int, chunk: _RunningChunk, end_time: float
    ) -> None:
        if chunk.kind == "agent":
            request = chunk.request
            interval = ExecutionInterval(
                processor=processor,
                start=chunk.start_time,
                end=end_time,
                task_id=request.task_id,
                job_id=request.job_id,
                vertex=request.vertex,
                resource=request.resource,
                is_agent=True,
            )
        else:
            instance = chunk.vertex
            interval = ExecutionInterval(
                processor=processor,
                start=chunk.start_time,
                end=end_time,
                task_id=instance.task_id,
                job_id=instance.job_id,
                vertex=instance.vertex,
                resource=chunk.resource,
                is_agent=False,
                is_spin=chunk.kind == "spin",
            )
        if self.interval_observer is not None and end_time - chunk.start_time > _EPS:
            self.interval_observer(interval)
        if self.record_trace:
            self.trace.add_interval(interval)
