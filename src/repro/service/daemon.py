"""The analysis service daemon: NDJSON-over-TCP transport around the jobs core.

The daemon is a deliberately thin shell: a threaded TCP server whose per-
connection handler reads newline-delimited frames, decodes them through the
typed codec (:func:`repro.service.messages.decode_frame`), and forwards the
typed messages to the :class:`~repro.service.jobs.JobManager`.  Everything
interesting — coalescing, the result cache, one pool task per query,
durable campaign stores, fault handling — lives in the manager; the transport only owns framing, error mapping, and
connection lifecycle:

* every decode failure and every rejected request is answered with a typed
  :class:`~repro.service.messages.ErrorReply` (the connection survives —
  malformed frames never crash the daemon or the decoder);
* push events (:class:`~repro.service.messages.ProgressEvent`,
  :class:`~repro.service.messages.ResultReady`) are written through a
  per-connection lock so replies and pushes interleave line-atomically;
* a dropped connection merely unsubscribes its listeners — running jobs
  neither die nor leak workers, and their results stay available to
  ``get_status``/``get_report`` afterwards.

Tests (and the example client's ``--spawn`` mode) embed the daemon
in-process: ``ServiceDaemon(port=0, ...)`` + :meth:`ServiceDaemon.start`
binds an ephemeral port and serves from a background thread.
"""

from __future__ import annotations

import socket
import socketserver
import threading
from typing import Optional, Tuple

from ..obs.events import ServiceStarted
from ..obs.log import get_logger
from ..obs.sink import EventSink
from .jobs import JobManager
from .messages import (
    ERR_INTERNAL,
    ERR_INVALID,
    ERR_UNKNOWN_JOB,
    ErrorReply,
    GetReport,
    GetStats,
    GetStatus,
    Message,
    ProtocolError,
    ReportReady,
    ShuttingDown,
    Shutdown,
    StatsReply,
    SubmitCampaign,
    SubmitQuery,
    decode_frame,
)

#: Errors a job manager raises for requests it must reject; the handler
#: maps them onto typed ``invalid_payload`` replies.
_REJECTIONS = (KeyError, TypeError, ValueError, RuntimeError)


class _Connection:
    """One client connection: line-atomic writes shared by reply and push.

    Replies run on the handler thread while push events arrive from job
    worker threads; the write lock keeps every frame one atomic line.  A
    closed or broken socket raises out of :meth:`send` — the job manager's
    delivery path treats that as an unsubscribe, never as a job failure.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._lock = threading.Lock()

    def send(self, message: Message) -> None:
        """Write one message as a single NDJSON line (thread-safe)."""
        data = message.encode()
        with self._lock:
            self._sock.sendall(data)


class _Handler(socketserver.StreamRequestHandler):
    """Per-connection request loop of :class:`ServiceDaemon`."""

    def handle(self) -> None:
        """Read frames until EOF, answering each with typed messages."""
        daemon: "ServiceDaemon" = self.server.daemon  # type: ignore[attr-defined]
        connection = _Connection(self.request)
        subscribed = []
        try:
            for raw_line in self.rfile:
                if not raw_line.strip():
                    continue
                reply = daemon.dispatch(raw_line, connection, subscribed)
                if reply is not None:
                    try:
                        connection.send(reply)
                    except OSError:
                        break
        finally:
            for job_id, listener in subscribed:
                daemon.manager.unsubscribe(job_id, listener)

    def finish(self) -> None:
        """Tear the connection down, tolerating an already-dead socket."""
        try:
            super().finish()
        except OSError:
            pass


class _Server(socketserver.ThreadingTCPServer):
    """Threaded TCP server wired back to its owning daemon."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], daemon: "ServiceDaemon") -> None:
        self.daemon = daemon
        super().__init__(address, _Handler)


class ServiceDaemon:
    """The schedulability-analysis service: daemon state plus serve loop.

    ``data_dir`` roots the durable job stores and the service's
    ``events.jsonl``; ``workers`` sizes the job manager's worker pool;
    ``port=0`` binds an ephemeral port (read :attr:`address` after
    :meth:`start`).  Use :meth:`start`/:meth:`stop` to embed the daemon
    in-process (tests, the example client's ``--spawn`` mode) or
    :meth:`serve_forever` to run it in the foreground (the
    ``python -m repro.service serve`` path).
    """

    def __init__(
        self,
        data_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        events: bool = True,
    ) -> None:
        self.data_dir = str(data_dir)
        self._events = EventSink(self.data_dir) if events else None
        self.manager = JobManager(
            self.data_dir, workers=workers, events=self._events
        )
        self._server = _Server((host, port), self)
        self._thread: Optional[threading.Thread] = None
        self._log = get_logger("service.daemon")
        host, port = self._server.server_address[:2]
        self.host = host
        self.port = int(port)
        if self._events is not None:
            self._events.emit(
                ServiceStarted(
                    host=self.host,
                    port=self.port,
                    workers=self.manager.workers,
                    data_dir=self.data_dir,
                )
            )

    @property
    def address(self) -> Tuple[str, int]:
        """The ``(host, port)`` the daemon is bound to."""
        return (self.host, self.port)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def dispatch(
        self, raw_line: bytes, connection: _Connection, subscribed: list
    ) -> Optional[Message]:
        """Decode one frame and produce its reply (never raises).

        ``subscribed`` collects ``(job_id, listener)`` pairs registered on
        behalf of this connection so the handler can unsubscribe them all
        on disconnect.
        """
        try:
            message = decode_frame(raw_line)
        except ProtocolError as error:
            return ErrorReply(code=error.code, message=str(error))
        try:
            return self._handle(message, connection, subscribed)
        except _REJECTIONS as error:
            return ErrorReply(
                code=ERR_INVALID, message=f"{type(error).__name__}: {error}"
            )
        except Exception as error:  # noqa: BLE001 - transport boundary
            self._log.warning(
                "internal error handling %s: %s", message.TYPE, error
            )
            return ErrorReply(
                code=ERR_INTERNAL, message=f"{type(error).__name__}: {error}"
            )

    def _handle(
        self, message: Message, connection: _Connection, subscribed: list
    ) -> Optional[Message]:
        """Route one typed message to the job manager."""
        if isinstance(message, SubmitQuery):
            listener = connection.send
            accepted = self.manager.submit_query(message, listener)
            subscribed.append((accepted.job_id, listener))
            return accepted
        if isinstance(message, SubmitCampaign):
            listener = connection.send
            accepted = self.manager.submit_campaign(message, listener)
            subscribed.append((accepted.job_id, listener))
            return accepted
        if isinstance(message, GetStatus):
            status = self.manager.status(message.job_id)
            if status is None:
                return ErrorReply(
                    code=ERR_UNKNOWN_JOB,
                    message=f"unknown job {message.job_id!r}",
                    job_id=message.job_id,
                )
            return status
        if isinstance(message, GetStats):
            return StatsReply(counters=self.manager.stats())
        if isinstance(message, GetReport):
            return self._report(message.job_id)
        if isinstance(message, Shutdown):
            reply = ShuttingDown(jobs_running=self.manager.running_jobs())
            try:
                connection.send(reply)
            except OSError:
                pass
            self.stop(wait_jobs=False)
            return None
        return ErrorReply(
            code=ERR_INVALID,
            message=f"{message.TYPE!r} is not a request the daemon serves",
        )

    def _report(self, job_id: str) -> Message:
        """Aggregate a campaign job's store into a :class:`ReportReady`.

        The aggregation is the same stateless store read as
        ``campaign report``, so a report always reflects the store as it is.
        """
        from ..report.aggregate import aggregate_store

        job = self.manager.job(job_id)
        if job is None:
            return ErrorReply(
                code=ERR_UNKNOWN_JOB,
                message=f"unknown job {job_id!r}",
                job_id=job_id,
            )
        if not job.store_directory:
            return ErrorReply(
                code=ERR_INVALID,
                message=f"job {job_id!r} is a query; reports cover campaigns",
                job_id=job_id,
            )
        aggregate = aggregate_store(job.store_directory)
        report = {
            "config_hash": aggregate.manifest["config_hash"],
            "mode": aggregate.mode,
            "protocols": aggregate.protocols,
            "completed_units": aggregate.completed_units,
            "total_units": aggregate.total_units,
            "complete": aggregate.complete,
            "weighted_acceptance": aggregate.weighted_acceptance(),
            "quarantined": sorted(aggregate.quarantined),
        }
        complete = aggregate.complete and not aggregate.quarantined
        return ReportReady(
            job_id=job_id, report=report, exit_code=0 if complete else 3
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ServiceDaemon":
        """Serve from a background thread (in-process embedding); returns self."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-service",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (the CLI path)."""
        self._log.info(
            "serving on %s:%d (data dir %s)", self.host, self.port, self.data_dir
        )
        self._server.serve_forever()

    def stop(self, wait_jobs: bool = True) -> None:
        """Shut the transport and the job manager down (idempotent)."""
        shutdown = threading.Thread(
            target=self._server.shutdown, name="repro-service-stop"
        )
        shutdown.start()
        shutdown.join(timeout=10.0)
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.manager.shutdown(wait=wait_jobs)
        if self._events is not None:
            self._events.close()
