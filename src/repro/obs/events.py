"""Typed, frozen campaign events — one dataclass per event type.

Following the named-types idiom (one frozen class per message, a registry
keyed by a stable type name), every observable campaign occurrence is its
own dataclass: :class:`CampaignStarted`, :class:`UnitStarted`,
:class:`UnitFinished`, :class:`UnitTelemetry`, :class:`CampaignFinished`,
the fault-tolerance trio :class:`PoolCrashed`, :class:`UnitRetried`,
:class:`UnitQuarantined`, and the service-daemon trio
:class:`ServiceStarted`, :class:`JobAdmitted`, :class:`JobFinished`.
Events are pure immutable payloads; the *envelope* — monotonic sequence
number and wall-clock timestamp — is stamped by
:class:`repro.obs.sink.EventSink` when a record is appended to
``events.jsonl``, so event values stay hashable, comparable, and trivially
constructible in tests.

``to_record()`` serialises an event into a JSON-safe dict carrying its
``type`` name; :func:`event_from_record` dispatches on that name through
:data:`EVENT_TYPES` and rebuilds the typed value, ignoring envelope keys
and unknown fields (forward compatibility: newer writers may add fields).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple, Type

#: Registry of event type name → event class, populated by
#: :func:`_register`; the single source :func:`event_from_record` and the
#: docs' event taxonomy derive from.
EVENT_TYPES: Dict[str, Type["Event"]] = {}


def _register(cls: Type["Event"]) -> Type["Event"]:
    """Class decorator adding an event type to :data:`EVENT_TYPES`."""
    if cls.TYPE in EVENT_TYPES:  # pragma: no cover - import-time invariant
        raise ValueError(f"duplicate event type name {cls.TYPE!r}")
    EVENT_TYPES[cls.TYPE] = cls
    return cls


class Event:
    """Base class of every campaign event (payload only, no envelope).

    Subclasses are frozen dataclasses with a ``TYPE`` class attribute (the
    stable wire name).  The base class supplies the generic
    :meth:`to_record` / :meth:`from_record` pair used by the sink and the
    profile reader.
    """

    #: Stable wire name of the event type (overridden per subclass).
    TYPE = ""

    def to_record(self) -> dict:
        """JSON-serialisable record: ``{"type": TYPE, **payload}``."""
        record: Dict[str, Any] = {"type": self.TYPE}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, tuple):
                value = list(value)
            record[field.name] = value
        return record

    @classmethod
    def from_record(cls, record: Mapping) -> "Event":
        """Rebuild an event from :meth:`to_record` output.

        Envelope keys (``seq``, ``ts``, ``type``) and unknown fields are
        ignored; missing optional fields keep their defaults.  Raises
        ``TypeError`` when a required payload field is absent.
        """
        names = {field.name for field in dataclasses.fields(cls)}
        payload = {}
        for name in names:
            if name in record:
                value = record[name]
                if isinstance(value, list):
                    value = tuple(value)
                payload[name] = value
        return cls(**payload)


@_register
@dataclass(frozen=True)
class CampaignStarted(Event):
    """A campaign run (fresh or resumed) began executing work units."""

    TYPE = "campaign_started"

    config_hash: str
    mode: str
    total_units: int
    workers: int
    protocols: Tuple[str, ...] = ()


@_register
@dataclass(frozen=True)
class UnitStarted(Event):
    """A work unit was dispatched for execution (in-process or to a worker)."""

    TYPE = "unit_started"

    unit_id: str


@_register
@dataclass(frozen=True)
class UnitFinished(Event):
    """A work unit completed and was checkpointed into the store."""

    TYPE = "unit_finished"

    unit_id: str
    scenario_id: str
    point_index: int
    utilization: float
    elapsed_seconds: float
    evaluated: int
    generation_failures: int


@_register
@dataclass(frozen=True)
class UnitTelemetry(Event):
    """The full per-unit telemetry snapshot of a finished work unit.

    ``telemetry`` is a :meth:`repro.obs.telemetry.Telemetry.to_dict`
    snapshot aggregated inside the worker; the profile reader merges these
    associatively across units.  Dict payloads are compared by identity in
    the frozen dataclass sense only — events of this type are not hashable.
    """

    TYPE = "unit_telemetry"

    unit_id: str
    telemetry: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "telemetry", dict(self.telemetry))


@_register
@dataclass(frozen=True)
class PoolCrashed(Event):
    """The worker pool broke (a worker was killed) and is being respawned.

    ``respawn`` counts consecutive pool losses without an intervening
    completed chunk; ``backoff_seconds`` is the capped exponential pause
    taken before the respawn; ``inflight_units`` is how many units were
    requeued from the futures that died with the pool.
    """

    TYPE = "pool_crashed"

    respawn: int
    backoff_seconds: float
    inflight_units: int


@_register
@dataclass(frozen=True)
class UnitRetried(Event):
    """A failed work unit was requeued for another execution attempt."""

    TYPE = "unit_retried"

    unit_id: str
    attempt: int
    error_kind: str


@_register
@dataclass(frozen=True)
class UnitQuarantined(Event):
    """A work unit exhausted its attempts and was quarantined.

    The unit's typed error record lands in the store's
    ``quarantine.jsonl`` sibling file; this event mirrors it into the
    observability stream so ``status``/``profile`` surface the failure
    without re-reading the quarantine file.
    """

    TYPE = "unit_quarantined"

    unit_id: str
    error_kind: str
    attempts: int
    error_message: str = ""


@_register
@dataclass(frozen=True)
class ServiceStarted(Event):
    """The analysis service daemon began accepting connections."""

    TYPE = "service_started"

    host: str
    port: int
    workers: int
    data_dir: str = ""


@_register
@dataclass(frozen=True)
class JobAdmitted(Event):
    """The service admitted one submitted job (query or campaign).

    ``coalesced`` marks a submission folded into an identical in-flight
    job (one execution serves several clients); ``cached`` marks a repeat
    served straight from the result cache without any execution.
    ``queue_depth`` counts the admitted query jobs that had not started
    yet, observed at submission.
    """

    TYPE = "job_admitted"

    job_id: str
    kind: str
    coalesced: bool = False
    cached: bool = False
    queue_depth: int = 0


@_register
@dataclass(frozen=True)
class JobFinished(Event):
    """A service job reached a terminal state (``done`` or ``failed``)."""

    TYPE = "job_finished"

    job_id: str
    state: str
    exit_code: int = 0
    elapsed_seconds: float = 0.0


@_register
@dataclass(frozen=True)
class CampaignFinished(Event):
    """A campaign run finished (completely or out of units/budget)."""

    TYPE = "campaign_finished"

    completed: int
    total: int
    elapsed_seconds: float


def event_from_record(record: Mapping) -> Optional[Event]:
    """Rebuild the typed event of one ``events.jsonl`` record.

    Returns ``None`` for unknown type names (a newer writer's events are
    skipped, never fatal) and raises ``TypeError`` for records missing
    required payload fields of a known type.
    """
    cls = EVENT_TYPES.get(record.get("type", ""))
    if cls is None:
        return None
    return cls.from_record(record)
