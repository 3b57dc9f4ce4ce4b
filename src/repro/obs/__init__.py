"""``repro.obs`` — structured telemetry, events, and logging for campaigns.

The observability layer is strictly **out-of-band**: it observes the
campaign stack (solver convergence, cache effectiveness, per-phase timing,
simulator budgets) without ever touching result bytes, config hashes, or
store format versions.  Four stdlib-only core modules:

* :mod:`repro.obs.events` — typed frozen event dataclasses (one class per
  event) with ``to_record``/``from_record`` and a name registry;
* :mod:`repro.obs.telemetry` — associatively mergeable counters, timers
  (``span()`` perf_counter context managers), and bucketed histograms
  behind a near-zero-cost active-session guard;
* :mod:`repro.obs.sink` — the append-only, torn-line-tolerant
  ``events.jsonl`` writer/reader with monotonic sequence numbers;
* :mod:`repro.obs.log` — ``repro.*`` module loggers and the plain/JSON
  stream handler behind the CLI's ``--log-level``/``--log-json`` flags.

:mod:`repro.obs.profile` (imported lazily — it depends on the campaign
store) turns a store's ``results.jsonl`` + ``events.jsonl`` into the
compute profile rendered by ``python -m repro.campaign profile`` and the
report bundle's "Compute profile" section.

See ``docs/observability.md`` for the event taxonomy and walkthroughs.
"""

from .events import (
    EVENT_TYPES,
    CampaignFinished,
    CampaignStarted,
    Event,
    JobAdmitted,
    JobFinished,
    ServiceStarted,
    UnitFinished,
    UnitStarted,
    UnitTelemetry,
    event_from_record,
)
from .log import LOG_LEVELS, configure_logging, get_logger
from .sink import EVENTS_NAME, EventSink, events_path, iter_event_records, read_events
from .telemetry import ScalarSolves, Telemetry, TimerStats, active, session

__all__ = [
    "EVENT_TYPES",
    "EVENTS_NAME",
    "LOG_LEVELS",
    "CampaignFinished",
    "CampaignStarted",
    "Event",
    "EventSink",
    "JobAdmitted",
    "JobFinished",
    "ScalarSolves",
    "ServiceStarted",
    "Telemetry",
    "TimerStats",
    "UnitFinished",
    "UnitStarted",
    "UnitTelemetry",
    "active",
    "configure_logging",
    "event_from_record",
    "events_path",
    "get_logger",
    "iter_event_records",
    "read_events",
    "session",
]
