"""Job admission, coalescing, and execution behind the service daemon.

The :class:`JobManager` is the daemon's entire brain; the transport layer
(:mod:`repro.service.daemon`) only decodes frames and forwards them here.
Two job kinds exist:

* **Queries** (:class:`~repro.service.messages.SubmitQuery`) — one
  scenario at one utilization point, i.e. one campaign work unit.
  Identical submissions (same cache key over every result-determining
  field) are *coalesced* into one execution whose single result answers
  every subscribed client byte-identically, and repeats of an
  already-answered query are served straight from the result cache.
  Every other query runs as its own pool task through
  :func:`repro.campaign.executor.execute_unit` — the code path a CLI
  campaign or shard takes for the same point — so a query's answer equals
  that unit's record, and one failing query fails only its own job.

* **Campaigns** (:class:`~repro.service.messages.SubmitCampaign`) — a full
  planned campaign backed by a durable :class:`~repro.campaign.store.
  CampaignStore` under ``<data_dir>/jobs/<config-hash-prefix>`` and
  executed by the existing fault-tolerant executor (retry, quarantine,
  pool-crash recovery — ``workers > 1`` runs a real process pool inside
  the job).  The store directory is *derived from the campaign's config
  hash*, so resubmitting an identical campaign resumes its store:
  completed units are restored instead of re-executed and previously
  quarantined units get fresh attempts — healing is a resubmission, not a
  special verb.

Everything the manager observes goes through one lock-guarded
:class:`~repro.obs.telemetry.Telemetry` bundle (``service.*`` counters:
submissions, coalesce hits, cache hits, queue depth, execution times) and the
service's ``events.jsonl`` (:class:`~repro.obs.events.JobAdmitted` /
:class:`~repro.obs.events.JobFinished`), strictly out-of-band as always.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..campaign.executor import (
    RetryPolicy,
    UnitResult,
    build_protocols,
    execute_unit,
    execute_units,
    plan_runner,
)
from ..campaign.planner import (
    FORMAT_VERSION,
    WorkUnit,
    campaign_manifest,
    config_from_dict,
    plan_campaign,
    scenario_from_dict,
    scenario_to_dict,
)
from ..campaign.progress import ProgressTracker
from ..campaign.store import CampaignStore
# Unused here; perfbench/tracer.py requires this binding to exist.
from ..generation.taskset_gen import generate_taskset  # noqa: F401
from ..obs.events import Event, JobAdmitted, JobFinished
from ..obs.log import get_logger
from ..obs.telemetry import Telemetry
from .messages import (
    JobAccepted,
    JobStatus,
    Message,
    ProgressEvent,
    ResultReady,
    SubmitCampaign,
    SubmitQuery,
)

#: Job lifecycle states (surfaced verbatim in :class:`JobStatus`).
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"

#: Job kinds.
KIND_QUERY = "query"
KIND_CAMPAIGN = "campaign"

#: A push listener: receives every :class:`ProgressEvent` /
#: :class:`ResultReady` of the job it subscribed to.  Raising from a
#: listener (a disconnected client) unsubscribes it — never fails the job.
Listener = Callable[[Message], None]


def query_cache_key(message: SubmitQuery) -> str:
    """Cache/coalesce key of a query: sha256 over its result-determining fields.

    The key covers exactly what determines the result bytes — the store
    format version, the normalised scenario, the utilization point, the
    sample count and seed, the protocol suite (order matters: it is the
    report order), and the EP path-signature cap — and nothing volatile,
    mirroring how :func:`repro.campaign.planner.config_hash` keys stores.
    Normalising the scenario through its round-trip guards against two
    clients spelling the same scenario with different numeric types.
    """
    scenario = scenario_to_dict(scenario_from_dict(dict(message.scenario)))
    payload = {
        "format_version": FORMAT_VERSION,
        "scenario": scenario,
        "utilization": float(message.utilization),
        "samples": int(message.samples),
        "seed": int(message.seed),
        "protocols": list(message.protocols),
        "max_path_signatures": int(message.max_path_signatures),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _query_unit(message: SubmitQuery) -> WorkUnit:
    """The work unit a query describes (validates the scenario dict)."""
    return WorkUnit(
        scenario=scenario_from_dict(dict(message.scenario)),
        point_index=0,
        utilization=float(message.utilization),
        seed=int(message.seed),
        samples_per_point=int(message.samples),
    )


def evaluate_query_wave(queries: List[SubmitQuery]) -> List[UnitResult]:
    """Evaluate queries one :func:`~repro.campaign.executor.execute_unit` call each.

    Each query is the work unit :func:`_query_unit` describes, analysed by
    its own protocol suite, so its acceptance counts equal a standalone
    campaign run of that unit.  The daemon passes one query per call.
    """
    return [
        execute_unit(
            _query_unit(query),
            build_protocols(
                list(query.protocols), int(query.max_path_signatures)
            ),
        )
        for query in queries
    ]


def query_result_payload(message: SubmitQuery, result: UnitResult) -> Dict[str, Any]:
    """The :class:`ResultReady` payload of a finished query.

    Deliberately timing-free: every field is a pure function of the query,
    so all clients of a coalesced execution — and of later cache hits —
    receive byte-identical frames (canonical encoding does the rest).
    """
    return {
        "kind": KIND_QUERY,
        "scenario_id": result.scenario_id,
        "utilization": result.utilization,
        "samples": int(message.samples),
        "seed": int(message.seed),
        "protocols": list(message.protocols),
        "accepted": {name: int(n) for name, n in sorted(result.accepted.items())},
        "evaluated": result.evaluated,
        "generation_failures": result.generation_failures,
    }


class Job:
    """Mutable state of one admitted job (guarded by the manager's lock)."""

    def __init__(self, job_id: str, kind: str, key: str) -> None:
        self.job_id = job_id
        self.kind = kind
        self.key = key
        self.state = STATE_QUEUED
        self.done = 0
        self.total = 0
        self.exit_code = 0
        self.quarantined = 0
        self.error_kind = ""
        self.error_message = ""
        self.result: Optional[Dict[str, Any]] = None
        self.listeners: List[Listener] = []
        self.submissions = 1
        self.tracker = ProgressTracker()
        self.store_directory = ""
        self.started = time.perf_counter()
        self.finished = threading.Event()

    def status(self) -> JobStatus:
        """The :class:`JobStatus` snapshot of this job."""
        eta = self.tracker.eta_seconds()
        return JobStatus(
            job_id=self.job_id,
            state=self.state,
            done=self.done,
            total=self.total,
            eta_seconds=-1.0 if eta is None else round(eta, 3),
            quarantined=self.quarantined,
            exit_code=self.exit_code,
            error_kind=self.error_kind,
            error_message=self.error_message,
        )


class JobManager:
    """Admission queue, coalescing cache, and persistent worker pool.

    ``data_dir`` roots the durable state: campaign job stores live under
    ``<data_dir>/jobs/`` and (when ``events`` is given) service events go
    to the sink's ``events.jsonl``.  ``workers`` sizes the *job-level*
    thread pool (campaign jobs additionally run their own process pool as
    requested per submission).  All public methods are thread-safe; push
    listeners are invoked outside the lock and unsubscribed on first
    failure, so a disconnected client can neither deadlock nor fail a job.
    """

    def __init__(
        self,
        data_dir: str,
        workers: int = 2,
        events: Optional[Any] = None,
    ) -> None:
        self.data_dir = str(data_dir)
        self.workers = max(1, int(workers))
        self._events = events
        self._events_lock = threading.Lock()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, str] = {}
        self._cache: Dict[str, Tuple[Dict[str, Any], int]] = {}
        self._queue: List[Tuple[Job, SubmitQuery]] = []
        self._telemetry = Telemetry()
        self._log = get_logger("service.jobs")
        self._closed = False
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-job"
        )
        self._admission = threading.Thread(
            target=self._admission_loop, name="repro-admission", daemon=True
        )
        self._admission.start()

    # ------------------------------------------------------------------ #
    # Observability plumbing
    # ------------------------------------------------------------------ #
    def _emit(self, event: Event) -> None:
        """Emit one service event (best-effort, lock-serialised)."""
        if self._events is None:
            return
        try:
            with self._events_lock:
                self._events.emit(event)
        except OSError as error:
            self._log.warning(
                "service event emission failed (%s: %s); continuing",
                event.TYPE,
                error,
            )

    class _LockedSink:
        """Thread-safe ``emit`` facade over one shared event sink.

        Campaign jobs run concurrently on pool threads but the executor's
        event emission assumes a single writer; this facade serialises all
        writers onto the service's one ``events.jsonl``.
        """

        def __init__(self, sink: Any, lock: threading.Lock) -> None:
            self._sink = sink
            self._lock = lock

        def emit(self, event: Event) -> int:
            """Emit one event under the shared service sink lock."""
            with self._lock:
                return self._sink.emit(event)

    def _locked_sink(self) -> Optional["JobManager._LockedSink"]:
        """The shared sink wrapped for concurrent emitters (or ``None``)."""
        if self._events is None:
            return None
        return self._LockedSink(self._events, self._events_lock)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit_query(
        self, message: SubmitQuery, listener: Optional[Listener] = None
    ) -> JobAccepted:
        """Admit one query: coalesce, serve from cache, or enqueue it.

        Returns the :class:`JobAccepted` reply; for cache hits the
        :class:`ResultReady` is delivered to ``listener`` before this
        method returns (there is nothing to wait for).  Invalid scenarios
        or protocol names raise ``ValueError``/``KeyError``/``TypeError``
        — the daemon maps those onto typed ``invalid_payload`` errors.
        """
        build_protocols(
            list(message.protocols), int(message.max_path_signatures)
        )
        _query_unit(message)  # validates the scenario dict
        key = query_cache_key(message)
        job_id = f"q-{key[:16]}"
        ready: Optional[ResultReady] = None
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                payload, exit_code = cached
                self._telemetry.count("service.cache.hits")
                accepted = JobAccepted(
                    job_id=job_id, kind=KIND_QUERY, cached=True
                )
                ready = ResultReady(
                    job_id=job_id, result=payload, exit_code=exit_code
                )
            else:
                inflight = self._inflight.get(key)
                if inflight is not None:
                    job = self._jobs[inflight]
                    job.submissions += 1
                    if listener is not None:
                        job.listeners.append(listener)
                    self._telemetry.count("service.coalesce.hits")
                    accepted = JobAccepted(
                        job_id=job.job_id, kind=KIND_QUERY, coalesced=True
                    )
                else:
                    if self._closed:
                        raise RuntimeError("service is shutting down")
                    job = Job(job_id, KIND_QUERY, key)
                    if listener is not None:
                        job.listeners.append(listener)
                    self._jobs[job_id] = job
                    self._inflight[key] = job_id
                    self._queue.append((job, message))
                    self._telemetry.count("service.queries")
                    self._telemetry.record(
                        "service.queue.depth", len(self._queue)
                    )
                    accepted = JobAccepted(job_id=job_id, kind=KIND_QUERY)
                    self._wake.notify_all()
            queue_depth = len(self._queue)
        self._emit(
            JobAdmitted(
                job_id=job_id,
                kind=KIND_QUERY,
                coalesced=accepted.coalesced,
                cached=accepted.cached,
                queue_depth=queue_depth,
            )
        )
        if ready is not None and listener is not None:
            self._deliver(listener, ready)
        return accepted

    def submit_campaign(
        self, message: SubmitCampaign, listener: Optional[Listener] = None
    ) -> JobAccepted:
        """Admit one campaign job backed by a durable store.

        The job id and store directory derive from the campaign's config
        hash, so an identical resubmission either coalesces into the
        in-flight job or starts a run that *resumes* the existing store —
        completed units restore instead of re-executing, quarantined units
        get fresh attempts.  Planning errors (unknown protocols, malformed
        scenarios, empty grids) raise and become ``invalid_payload``.
        """
        scenarios = [scenario_from_dict(dict(s)) for s in message.scenarios]
        config = config_from_dict(dict(message.sweep))
        if config.seed is None:
            raise ValueError("a campaign job requires a concrete sweep seed")
        plan = plan_campaign(
            scenarios, config, list(message.protocols), mode=message.mode
        )
        manifest = campaign_manifest(plan, workers=int(message.workers))
        key = f"campaign:{manifest['config_hash']}"
        job_id = f"c-{manifest['config_hash'][:16]}"
        with self._lock:
            inflight = self._inflight.get(key)
            if inflight is not None:
                job = self._jobs[inflight]
                job.submissions += 1
                if listener is not None:
                    job.listeners.append(listener)
                self._telemetry.count("service.coalesce.hits")
                accepted = JobAccepted(
                    job_id=job.job_id, kind=KIND_CAMPAIGN, coalesced=True
                )
                queue_depth = len(self._queue)
            else:
                if self._closed:
                    raise RuntimeError("service is shutting down")
                job = Job(job_id, KIND_CAMPAIGN, key)
                job.total = len(plan.units)
                job.store_directory = os.path.join(
                    self.data_dir, "jobs", manifest["config_hash"][:16]
                )
                if listener is not None:
                    job.listeners.append(listener)
                self._jobs[job_id] = job
                self._inflight[key] = job_id
                self._telemetry.count("service.campaigns")
                accepted = JobAccepted(job_id=job_id, kind=KIND_CAMPAIGN)
                queue_depth = len(self._queue)
                self._pool.submit(
                    self._run_campaign, job, plan, manifest, message
                )
        self._emit(
            JobAdmitted(
                job_id=job_id,
                kind=KIND_CAMPAIGN,
                coalesced=accepted.coalesced,
                queue_depth=queue_depth,
            )
        )
        return accepted

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def status(self, job_id: str) -> Optional[JobStatus]:
        """The status snapshot of ``job_id``, or ``None`` if unknown."""
        with self._lock:
            job = self._jobs.get(job_id)
            return None if job is None else job.status()

    def job(self, job_id: str) -> Optional[Job]:
        """The job record of ``job_id``, or ``None`` if unknown."""
        with self._lock:
            return self._jobs.get(job_id)

    def stats(self) -> Dict[str, Any]:
        """Service counters plus a per-state job tally (JSON-safe)."""
        with self._lock:
            snapshot = self._telemetry.to_dict()
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            snapshot["jobs"] = {k: states[k] for k in sorted(states)}
            snapshot["cache_entries"] = len(self._cache)
        return snapshot

    def counter(self, name: str) -> int:
        """Current value of one service counter (0 when never counted)."""
        with self._lock:
            return self._telemetry.counters.get(name, 0)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> bool:
        """Block until ``job_id`` reaches a terminal state (True on arrival)."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            return False
        return job.finished.wait(timeout)

    def unsubscribe(self, job_id: str, listener: Listener) -> None:
        """Detach one push listener (a disconnect); the job runs on."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None and listener in job.listeners:
                job.listeners.remove(listener)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _admission_loop(self) -> None:
        """Drain the queue onto the worker pool, one task per query.

        Runs on its own thread.  Each query executes (and fails) alone, so
        an exception in one query never touches another query's job.
        """
        while True:
            with self._wake:
                while not self._queue and not self._closed:
                    self._wake.wait()
                if not self._queue and self._closed:
                    return
                batch = self._queue[:]
                del self._queue[:]
                for job, _ in batch:
                    job.state = STATE_RUNNING
            for job, query in batch:
                self._pool.submit(self._run_query, job, query)

    def _run_query(self, job: Job, query: SubmitQuery) -> None:
        """Execute one query on a pool thread and settle its job."""
        started = time.perf_counter()
        try:
            (result,) = evaluate_query_wave([query])
            with self._lock:
                # The "wave" names are kept: perfbench/run.py reads them.
                self._telemetry.observe(
                    "service.wave.seconds", time.perf_counter() - started
                )
        except Exception as error:  # noqa: BLE001 - containment boundary
            self._log.warning("query %s failed: %s", job.job_id, error)
            self._fail(job, type(error).__name__, str(error))
            return
        payload = query_result_payload(query, result)
        self._finish(job, payload, exit_code=0, cache=True)

    def _run_campaign(
        self,
        job: Job,
        plan,
        manifest: Dict[str, Any],
        message: SubmitCampaign,
    ) -> None:
        """Execute one campaign job against its durable store (pool thread)."""
        try:
            store = CampaignStore(job.store_directory)
            store.initialize(manifest)
            protocols = build_protocols(
                plan.protocol_names, plan.config.max_path_signatures
            )
            runner = plan_runner(plan)
            with self._lock:
                job.state = STATE_RUNNING
                job.tracker = ProgressTracker(total=len(plan.units))

            def progress(done: int, total: int, result) -> None:
                with self._lock:
                    job.done = done
                    job.total = total
                    job.tracker.update(done, total, restored=result is None)
                    eta = job.tracker.eta_seconds()
                    listeners = list(job.listeners)
                event = ProgressEvent(
                    job_id=job.job_id,
                    done=done,
                    total=total,
                    unit_id=result.unit_id if result is not None else "",
                    eta_seconds=-1.0 if eta is None else round(eta, 3),
                )
                for listener in listeners:
                    self._deliver(listener, event, job=job)

            completed = execute_units(
                plan.units,
                protocols,
                workers=max(1, int(message.workers)),
                store=store,
                progress=progress,
                runner=runner,
                events=self._locked_sink(),
                retry=RetryPolicy(
                    max_attempts=max(1, int(message.max_attempts)),
                    backoff_base=0.0,
                ),
            )
            unresolved = store.unresolved_quarantine()
            payload = {
                "kind": KIND_CAMPAIGN,
                "config_hash": manifest["config_hash"],
                "store_directory": job.store_directory,
                "completed": len(completed),
                "total": len(plan.units),
                "quarantined": sorted(unresolved),
            }
            if len(completed) == len(plan.units) and not unresolved:
                self._finish(job, payload, exit_code=0, cache=False)
            else:
                first = next(iter(sorted(unresolved)), "")
                record = unresolved.get(first, {})
                self._fail(
                    job,
                    "unit_quarantined",
                    f"{len(unresolved)} unit(s) quarantined "
                    f"(e.g. {first}: {record.get('error_kind', 'unknown')})",
                    exit_code=3,
                    result=payload,
                    quarantined=len(unresolved),
                )
        except Exception as error:  # noqa: BLE001 - containment boundary
            self._log.warning("campaign job %s failed: %s", job.job_id, error)
            self._fail(job, type(error).__name__, str(error), exit_code=2)

    # ------------------------------------------------------------------ #
    # Completion
    # ------------------------------------------------------------------ #
    def _deliver(
        self, listener: Listener, message: Message, job: Optional[Job] = None
    ) -> None:
        """Push one message to a listener; failures unsubscribe, never kill."""
        try:
            listener(message)
        except Exception:  # noqa: BLE001 - client went away
            if job is not None:
                self.unsubscribe(job.job_id, listener)

    def _settle(
        self,
        job: Job,
        state: str,
        payload: Optional[Dict[str, Any]],
        exit_code: int,
        cache: bool,
    ) -> None:
        """Move a job to a terminal state and fan its result out."""
        elapsed = time.perf_counter() - job.started
        with self._lock:
            job.state = state
            job.result = payload
            job.exit_code = exit_code
            job.done = max(job.done, job.total if state == STATE_DONE else job.done)
            if cache and payload is not None:
                self._cache[job.key] = (payload, exit_code)
            self._inflight.pop(job.key, None)
            listeners = list(job.listeners)
            self._telemetry.observe(f"service.job.{job.kind}.seconds", elapsed)
        self._emit(
            JobFinished(
                job_id=job.job_id,
                state=state,
                exit_code=exit_code,
                elapsed_seconds=round(elapsed, 6),
            )
        )
        job.finished.set()
        if payload is not None:
            ready = ResultReady(
                job_id=job.job_id, result=payload, exit_code=exit_code
            )
            for listener in listeners:
                self._deliver(listener, ready, job=job)

    def _finish(
        self, job: Job, payload: Dict[str, Any], exit_code: int, cache: bool
    ) -> None:
        """Complete a job successfully (optionally caching its result)."""
        self._settle(job, STATE_DONE, payload, exit_code, cache)

    def _fail(
        self,
        job: Job,
        kind: str,
        message: str,
        exit_code: int = 2,
        result: Optional[Dict[str, Any]] = None,
        quarantined: int = 0,
    ) -> None:
        """Move a job to the ``failed`` state with its typed error."""
        with self._lock:
            job.error_kind = kind
            job.error_message = message
            job.quarantined = quarantined
        self._settle(job, STATE_FAILED, result, exit_code, cache=False)

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def running_jobs(self) -> int:
        """How many jobs are currently queued or running."""
        with self._lock:
            return sum(
                1
                for job in self._jobs.values()
                if job.state in (STATE_QUEUED, STATE_RUNNING)
            )

    def shutdown(self, wait: bool = True) -> None:
        """Stop admitting work and (optionally) wait for running jobs."""
        with self._lock:
            self._closed = True
            self._wake.notify_all()
        self._admission.join(timeout=5.0)
        self._pool.shutdown(wait=wait)
