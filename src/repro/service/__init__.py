"""``repro.service`` — the schedulability-analysis daemon and its protocol.

A long-lived serving layer over the campaign stack: clients submit single
schedulability queries or full campaign jobs over a typed, versioned
NDJSON-over-TCP protocol, and the daemon executes them on a persistent
worker pool backed by the existing planner/executor/store machinery.
Three layers, strictly separated:

* :mod:`repro.service.messages` — the wire contract: one frozen dataclass
  per request/reply/push event, a versioned registry, and a decoder that
  answers every malformed frame with a typed error (the protocol
  reference in ``docs/service.md`` is generated from this registry);
* :mod:`repro.service.jobs` — admission and execution: identical queries
  coalesce into one execution, repeats hit a result cache, every other
  query is one :func:`~repro.campaign.executor.execute_unit` call on the
  worker pool, and campaign jobs run the fault-tolerant executor against
  durable stores keyed by config hash (resubmission = resume = healing);
* :mod:`repro.service.daemon` / :mod:`repro.service.client` — the
  threaded TCP transport and its line-oriented client (also the
  in-process test fixture).

Start it with ``python -m repro.service serve``; see ``docs/service.md``
for the protocol walkthrough and ``examples/service_client.py`` for a
complete client conversation.
"""

from .client import ServiceClient, ServiceClientError
from .daemon import ServiceDaemon
from .jobs import JobManager, evaluate_query_wave, query_cache_key
from .messages import (
    MESSAGE_TYPES,
    PROTOCOL_VERSION,
    ErrorReply,
    GetReport,
    GetStats,
    GetStatus,
    JobAccepted,
    JobStatus,
    Message,
    ProgressEvent,
    ProtocolError,
    ReportReady,
    ResultReady,
    ShuttingDown,
    Shutdown,
    StatsReply,
    SubmitCampaign,
    SubmitQuery,
    decode_frame,
    render_protocol_reference,
)

__all__ = [
    "MESSAGE_TYPES",
    "PROTOCOL_VERSION",
    "ErrorReply",
    "GetReport",
    "GetStats",
    "GetStatus",
    "JobAccepted",
    "JobManager",
    "JobStatus",
    "Message",
    "ProgressEvent",
    "ProtocolError",
    "ReportReady",
    "ResultReady",
    "ServiceClient",
    "ServiceClientError",
    "ServiceDaemon",
    "ShuttingDown",
    "Shutdown",
    "StatsReply",
    "SubmitCampaign",
    "SubmitQuery",
    "decode_frame",
    "evaluate_query_wave",
    "query_cache_key",
    "render_protocol_reference",
]
