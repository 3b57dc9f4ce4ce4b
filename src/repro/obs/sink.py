"""Append-only event sink: ``events.jsonl`` next to ``results.jsonl``.

The sink persists :mod:`repro.obs.events` values as JSON lines with the
same torn-line tolerance as the campaign result store — and, crucially,
**strictly out-of-band**: it writes a separate file, never touches
``results.jsonl`` bytes, config hashes, or the store format version, so
enabling or disabling telemetry cannot perturb the bit-identical parallel
determinism of campaign results.

Every appended record carries an *envelope*: a monotonic ``seq`` number
(resumed from the existing file across interrupted runs, so a tailing
consumer can detect gaps and restarts) and a wall-clock ``ts``.  Unlike
result checkpoints, event lines are flushed but **not fsynced** — losing a
tail of observability data in a crash is acceptable; doubling the store's
fsync traffic is not.
"""

from __future__ import annotations

import json
import os
import time
from typing import Iterator, List, Tuple

from .events import Event, event_from_record

#: File name of the event stream inside a campaign store directory.
EVENTS_NAME = "events.jsonl"


def events_path(directory: str) -> str:
    """Path of the event stream file inside ``directory``."""
    return os.path.join(directory, EVENTS_NAME)


def iter_event_records(
    path: str, start_offset: int = 0
) -> Iterator[Tuple[dict, int]]:
    """Stream event records from ``path`` starting at ``start_offset``.

    Reads lines like :meth:`repro.campaign.store.CampaignStore.iter_records`
    — malformed complete lines are skipped, a torn trailing line (a killed
    writer's partial write) is never advanced past — and yields
    ``(record, end_offset)`` pairs, so incremental tail readers can resume
    from the last yielded offset.
    """
    if not os.path.isfile(path):
        return
    with open(path, "rb") as handle:
        handle.seek(start_offset)
        offset = start_offset
        for raw_line in handle:
            if not raw_line.endswith(b"\n"):
                return
            offset += len(raw_line)
            line = raw_line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and record.get("type"):
                yield record, offset


def read_events(path: str) -> List[Event]:
    """All typed events of an event stream (unknown types skipped)."""
    events: List[Event] = []
    for record, _ in iter_event_records(path):
        try:
            event = event_from_record(record)
        except TypeError:
            continue
        if event is not None:
            events.append(event)
    return events


def _last_seq(path: str) -> int:
    """Highest ``seq`` in an existing event stream (-1 when none)."""
    last = -1
    for record, _ in iter_event_records(path):
        seq = record.get("seq")
        if isinstance(seq, int) and seq > last:
            last = seq
    return last


class EventSink:
    """Append-only writer of one ``events.jsonl`` stream.

    Keeps the file handle open across emits (events are per-unit, not
    per-sample, but a campaign can finish hundreds of thousands of units);
    heals a torn trailing line left by a killed writer before the first
    append, exactly like the result store.  Usable as a context manager.
    """

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        self.path = events_path(self.directory)
        self._handle = None
        self._seq = _last_seq(self.path) + 1

    @property
    def next_seq(self) -> int:
        """Sequence number the next emitted event will carry."""
        return self._seq

    def _ensure_handle(self):
        """Open (and torn-line-heal) the stream on first use."""
        if self._handle is None:
            os.makedirs(self.directory, exist_ok=True)
            handle = open(self.path, "a+b")
            handle.seek(0, os.SEEK_END)
            if handle.tell():
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    # Heal a torn trailing line: without the newline the next
                    # record would merge into the partial line and readers
                    # would silently skip both.
                    handle.write(b"\n")
            self._handle = handle
        return self._handle

    def emit(self, event: Event) -> int:
        """Append one event (sequence-stamped, flushed); returns its ``seq``."""
        record = dict(event.to_record())
        record["seq"] = self._seq
        record["ts"] = round(time.time(), 6)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        handle = self._ensure_handle()
        handle.write(line.encode("utf-8") + b"\n")
        handle.flush()
        seq = self._seq
        self._seq += 1
        return seq

    def close(self) -> None:
        """Close the underlying file handle (a later emit reopens it)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventSink":
        """Context-manager entry: the sink itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the stream."""
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventSink({self.directory!r})"
