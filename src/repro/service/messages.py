"""Typed, versioned wire protocol of the analysis service.

One frozen dataclass per message — the named-types idiom the campaign
event stream already follows (:mod:`repro.obs.events`), promoted to a
*wire contract*: every request a client can send and every reply or push
event the daemon can emit is its own class with a stable ``TYPE`` name,
registered in :data:`MESSAGE_TYPES` and stamped with the protocol version
on encode.

Frames are newline-delimited JSON objects::

    {"type": "submit_query", "v": 1, ...payload...}\\n

The codec is deliberately defensive — the decoder **never** raises
anything but :class:`ProtocolError`:

* a frame that is not a JSON object (or not valid UTF-8/JSON at all) is
  :data:`ERR_MALFORMED`;
* a frame whose ``v`` differs from :data:`PROTOCOL_VERSION` is
  :data:`ERR_VERSION` (checked before the type lookup, so a newer peer's
  unknown types still produce the right diagnosis);
* an unregistered ``type`` is :data:`ERR_UNKNOWN_TYPE`;
* a known type whose required payload fields are missing is
  :data:`ERR_INVALID`.

Unknown *fields* of a known type are ignored (forward compatibility:
same-version writers may add optional fields), and every ``ProtocolError``
maps 1:1 onto an :class:`ErrorReply` the daemon sends back instead of
dropping the connection.

The protocol reference in ``docs/service.md`` is generated from the
registry by :func:`render_protocol_reference` (``python -m repro.service
protocol``) and pinned by a test, so docs and code cannot drift apart.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple, Type, Union

#: Version stamped into every frame.  Bumped on any incompatible change to
#: a message schema; a mismatched peer receives a typed
#: :data:`ERR_VERSION` error instead of a silently misparsed payload.
PROTOCOL_VERSION = 1

#: Envelope keys of a frame (never payload fields).
ENVELOPE_KEYS = ("type", "v")

#: Registry of wire type name → message class, populated by
#: :func:`_register` — the single source :func:`decode_frame` and the
#: generated protocol reference derive from.
MESSAGE_TYPES: Dict[str, Type["Message"]] = {}

#: Error codes carried by :class:`ProtocolError` / :class:`ErrorReply`.
ERR_MALFORMED = "malformed_frame"
ERR_VERSION = "version_mismatch"
ERR_UNKNOWN_TYPE = "unknown_type"
ERR_INVALID = "invalid_payload"
ERR_UNKNOWN_JOB = "unknown_job"
ERR_INTERNAL = "internal_error"

#: Message directions (documentation metadata, rendered into the
#: protocol reference): client → server, server → client, or a push
#: event the server streams without a matching request.
DIRECTION_REQUEST = "request"
DIRECTION_REPLY = "reply"
DIRECTION_EVENT = "push event"


class ProtocolError(Exception):
    """A frame could not be decoded into a typed message.

    ``code`` is one of the ``ERR_*`` constants; the daemon converts the
    error into an :class:`ErrorReply` carrying the same code, so clients
    always see a typed diagnosis instead of a dropped connection.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _register(cls: Type["Message"]) -> Type["Message"]:
    """Class decorator adding a message type to :data:`MESSAGE_TYPES`."""
    if cls.TYPE in MESSAGE_TYPES:  # pragma: no cover - import-time invariant
        raise ValueError(f"duplicate message type name {cls.TYPE!r}")
    MESSAGE_TYPES[cls.TYPE] = cls
    return cls


class Message:
    """Base class of every service message (one frozen dataclass each).

    Subclasses set ``TYPE`` (the stable wire name) and ``DIRECTION``.
    Encoding is canonical (sorted keys, compact separators), so two equal
    messages always encode to byte-identical frames — the property the
    coalescing end-to-end test pins.
    """

    #: Stable wire name of the message type (overridden per subclass).
    TYPE = ""
    #: Who sends it (see the ``DIRECTION_*`` constants).
    DIRECTION = DIRECTION_REQUEST

    def to_frame(self) -> dict:
        """JSON-serialisable frame: envelope plus every payload field."""
        frame: Dict[str, Any] = {"type": self.TYPE, "v": PROTOCOL_VERSION}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, tuple):
                value = list(value)
            frame[field.name] = value
        return frame

    def encode(self) -> bytes:
        """Canonical newline-terminated wire bytes of this message."""
        return (
            json.dumps(
                self.to_frame(),
                sort_keys=True,
                separators=(",", ":"),
                allow_nan=False,
            ).encode("utf-8")
            + b"\n"
        )

    @classmethod
    def from_frame(cls, frame: Mapping) -> "Message":
        """Rebuild a message from a decoded frame mapping.

        Envelope keys and unknown fields are ignored; lists become tuples
        (shallow, mirroring :meth:`to_frame`); missing required fields
        raise :class:`ProtocolError` with :data:`ERR_INVALID`.
        """
        payload = {}
        for field in dataclasses.fields(cls):
            if field.name in frame:
                value = frame[field.name]
                if isinstance(value, list):
                    value = tuple(value)
                payload[field.name] = value
        try:
            return cls(**payload)  # type: ignore[call-arg]
        except (TypeError, ValueError) as error:
            raise ProtocolError(
                ERR_INVALID,
                f"invalid {cls.TYPE!r} payload: {error}",
            ) from error


def decode_frame(data: Union[bytes, str]) -> Message:
    """Decode one wire line into its typed message.

    Never raises anything but :class:`ProtocolError` — malformed bytes,
    invalid JSON, non-object frames, version mismatches, unknown types,
    and missing required fields all come back as typed codes (see the
    module docstring for the precedence).
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(
                ERR_MALFORMED, f"frame is not UTF-8: {error}"
            ) from error
    text = data.strip()
    if not text:
        raise ProtocolError(ERR_MALFORMED, "empty frame")
    try:
        frame = json.loads(text)
    except (json.JSONDecodeError, ValueError, RecursionError) as error:
        raise ProtocolError(
            ERR_MALFORMED, f"frame is not valid JSON: {error}"
        ) from error
    if not isinstance(frame, dict):
        raise ProtocolError(
            ERR_MALFORMED, f"frame is not a JSON object: {type(frame).__name__}"
        )
    version = frame.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            ERR_VERSION,
            f"frame speaks protocol version {version!r}, this service "
            f"speaks {PROTOCOL_VERSION}",
        )
    type_name = frame.get("type")
    cls = MESSAGE_TYPES.get(type_name) if isinstance(type_name, str) else None
    if cls is None:
        raise ProtocolError(
            ERR_UNKNOWN_TYPE, f"unknown message type {type_name!r}"
        )
    return cls.from_frame(frame)


# --------------------------------------------------------------------------- #
# Requests (client → server)
# --------------------------------------------------------------------------- #
@_register
@dataclass(frozen=True)
class SubmitQuery(Message):
    """Submit one schedulability query: a scenario at one utilization.

    ``scenario`` is a :func:`repro.campaign.planner.scenario_to_dict`
    mapping; ``utilization`` the absolute total-utilization point;
    ``samples``/``seed`` the sample count and base seed of the per-sample
    streams (identical to a campaign work unit's, so service answers
    reproduce campaign points bit for bit); ``protocols`` the suite to
    evaluate.  Identical queries — same cache key over all of these
    fields — are coalesced into one execution and served from the result
    cache on repeats.
    """

    TYPE = "submit_query"
    DIRECTION = DIRECTION_REQUEST

    scenario: Dict[str, Any]
    utilization: float
    samples: int
    seed: int
    protocols: Tuple[str, ...]
    max_path_signatures: int = 48

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenario", dict(self.scenario))


@_register
@dataclass(frozen=True)
class SubmitCampaign(Message):
    """Submit a full campaign job backed by a durable store.

    ``scenarios`` and ``sweep`` mirror the campaign manifest
    (:func:`~repro.campaign.planner.scenario_to_dict` /
    :func:`~repro.campaign.planner.config_to_dict`); the daemon derives
    the job's store directory from the campaign's config hash, so
    resubmitting an identical campaign *resumes* it — completed units are
    replayed from the store and quarantined units are retried (healed).
    ``workers`` selects the executor's process-pool width inside the job;
    ``max_attempts`` its retry policy.
    """

    TYPE = "submit_campaign"
    DIRECTION = DIRECTION_REQUEST

    scenarios: Tuple[Dict[str, Any], ...]
    sweep: Dict[str, Any]
    protocols: Tuple[str, ...]
    mode: str = "analyze"
    workers: int = 1
    max_attempts: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "scenarios", tuple(dict(s) for s in self.scenarios)
        )
        object.__setattr__(self, "sweep", dict(self.sweep))


@_register
@dataclass(frozen=True)
class GetStatus(Message):
    """Request the current :class:`JobStatus` of one job by id."""

    TYPE = "get_status"
    DIRECTION = DIRECTION_REQUEST

    job_id: str


@_register
@dataclass(frozen=True)
class GetStats(Message):
    """Request the service counters (:class:`StatsReply`)."""

    TYPE = "get_stats"
    DIRECTION = DIRECTION_REQUEST


@_register
@dataclass(frozen=True)
class GetReport(Message):
    """Request the report aggregate of a finished campaign job.

    The daemon folds the job's store through the reporting aggregator —
    the same stateless store read as ``campaign report`` — and answers
    with a :class:`ReportReady` whose ``exit_code`` mirrors the CLI's
    watch-friendly convention (0 complete, 3 incomplete).
    """

    TYPE = "get_report"
    DIRECTION = DIRECTION_REQUEST

    job_id: str


@_register
@dataclass(frozen=True)
class Shutdown(Message):
    """Ask the daemon to stop accepting work and exit its serve loop."""

    TYPE = "shutdown"
    DIRECTION = DIRECTION_REQUEST


# --------------------------------------------------------------------------- #
# Replies and push events (server → client)
# --------------------------------------------------------------------------- #
@_register
@dataclass(frozen=True)
class JobAccepted(Message):
    """A submission was admitted; the job id names it from now on.

    ``coalesced`` marks a submission folded into an identical in-flight
    job; ``cached`` a repeat served from the result cache (the
    :class:`ResultReady` follows immediately).
    """

    TYPE = "job_accepted"
    DIRECTION = DIRECTION_REPLY

    job_id: str
    kind: str
    coalesced: bool = False
    cached: bool = False


@_register
@dataclass(frozen=True)
class JobStatus(Message):
    """Point-in-time state of a job (reply to :class:`GetStatus`).

    ``state`` is one of ``queued``/``running``/``done``/``failed``;
    ``done``/``total`` count work units for campaign jobs;
    ``eta_seconds`` is the headless progress tracker's estimate (−1 when
    unknowable); a ``failed`` job carries its typed ``error_kind`` (e.g.
    ``unit_quarantined``) and ``error_message``.
    """

    TYPE = "job_status"
    DIRECTION = DIRECTION_REPLY

    job_id: str
    state: str
    done: int = 0
    total: int = 0
    eta_seconds: float = -1.0
    quarantined: int = 0
    exit_code: int = 0
    error_kind: str = ""
    error_message: str = ""


@_register
@dataclass(frozen=True)
class ProgressEvent(Message):
    """Push event: one more work unit of a campaign job finished."""

    TYPE = "progress_event"
    DIRECTION = DIRECTION_EVENT

    job_id: str
    done: int
    total: int
    unit_id: str = ""
    eta_seconds: float = -1.0


@_register
@dataclass(frozen=True)
class ResultReady(Message):
    """Push event: a job reached a terminal state; ``result`` is its payload.

    For queries the payload carries the acceptance counts (byte-identical
    across every client of a coalesced execution — timing never enters
    it).  For campaigns it summarises the store.  ``exit_code`` mirrors
    ``campaign report``'s watch-friendly convention: 0 = complete, 3 =
    incomplete or quarantined units remain — the CLI's polling exit codes
    turned into a push.
    """

    TYPE = "result_ready"
    DIRECTION = DIRECTION_EVENT

    job_id: str
    result: Dict[str, Any]
    exit_code: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "result", dict(self.result))


@_register
@dataclass(frozen=True)
class ReportReady(Message):
    """Reply to :class:`GetReport`: the aggregate summary of a store."""

    TYPE = "report_ready"
    DIRECTION = DIRECTION_REPLY

    job_id: str
    report: Dict[str, Any]
    exit_code: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "report", dict(self.report))


@_register
@dataclass(frozen=True)
class StatsReply(Message):
    """Reply to :class:`GetStats`: service counters and job tallies."""

    TYPE = "stats_reply"
    DIRECTION = DIRECTION_REPLY

    counters: Dict[str, Any]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counters", dict(self.counters))


@_register
@dataclass(frozen=True)
class ShuttingDown(Message):
    """Reply to :class:`Shutdown`: the daemon is stopping."""

    TYPE = "shutting_down"
    DIRECTION = DIRECTION_REPLY

    jobs_running: int = 0


@_register
@dataclass(frozen=True)
class ErrorReply(Message):
    """Typed error reply: the request could not be served.

    ``code`` is one of the ``ERR_*`` constants of this module; ``job_id``
    names the affected job when there is one.
    """

    TYPE = "error_reply"
    DIRECTION = DIRECTION_REPLY

    code: str
    message: str
    job_id: str = ""


# --------------------------------------------------------------------------- #
# Generated protocol reference
# --------------------------------------------------------------------------- #
def _field_doc(field: dataclasses.Field) -> str:
    """One reference row cell describing a dataclass field."""
    note = ""
    if field.default is not dataclasses.MISSING:
        note = f" = {field.default!r}"
    elif field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
        note = " = {}"
    type_name = getattr(field.type, "__name__", None) or str(field.type)
    return f"`{field.name}`: {type_name}{note}"


def render_protocol_reference() -> str:
    """Markdown reference of every registered message type.

    Rendered from :data:`MESSAGE_TYPES` — the same registry the codec
    dispatches on — so the published protocol documentation in
    ``docs/service.md`` cannot drift from the implementation (a test pins
    the rendered block against the docs file).
    """
    lines = [
        f"Protocol version: **{PROTOCOL_VERSION}** "
        "(frames carry it as `\"v\"`; a mismatch is answered with a typed "
        f"`{ERR_VERSION}` error).",
        "",
        "| Type | Direction | Class | Fields |",
        "| --- | --- | --- | --- |",
    ]
    for name in sorted(MESSAGE_TYPES):
        cls = MESSAGE_TYPES[name]
        fields = [_field_doc(field) for field in dataclasses.fields(cls)]
        summary = (cls.__doc__ or "").strip().splitlines()[0]
        lines.append(
            f"| `{name}` | {cls.DIRECTION} | `{cls.__name__}` | "
            f"{'; '.join(fields) or '—'} |"
        )
        lines.append(f"| | | | {summary} |")
    lines.append("")
    codes = ", ".join(
        f"`{code}`"
        for code in (
            ERR_MALFORMED,
            ERR_VERSION,
            ERR_UNKNOWN_TYPE,
            ERR_INVALID,
            ERR_UNKNOWN_JOB,
            ERR_INTERNAL,
        )
    )
    lines.append(f"Error codes carried by `error_reply`: {codes}.")
    return "\n".join(lines)
