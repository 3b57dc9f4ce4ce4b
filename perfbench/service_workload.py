"""The ``service-queries`` workload: a daemon subprocess and closed-loop clients.

The daemon is the unmodified ``python -m repro.service serve`` (or, for a
traced run, the same entry point started through ``traced_daemon.py``).
:data:`CLIENTS` client threads each hold one :class:`ServiceClient` and send
their next query only after the previous answer arrived (closed loop).

The query stream is drawn from the benchmark seed: SubmitQuery over the
four Fig. 2 panels at paper scale, :data:`SAMPLES` task sets per query, the
full five-protocol suite.  About :data:`REPEAT_SHARE` of the queries repeat
an earlier one: half of those repeat the query just before them, which the
other client usually still has in flight (so they coalesce), the rest an
older one (so they hit the result cache).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.campaign.executor import build_protocols, execute_unit
from repro.campaign.planner import (
    KNOWN_PROTOCOLS,
    WorkUnit,
    grid_scenarios,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.service import ServiceClient, SubmitQuery
from repro.service.jobs import query_cache_key
from repro.service.messages import ErrorReply, JobAccepted

HERE = os.path.dirname(os.path.abspath(__file__))

SAMPLES = 2
STEP = 0.1
REPEAT_SHARE = 0.25
CLIENTS = 2
#: Distinct queries re-evaluated through execute_unit after the timed loop.
CHECKED = 8
#: Seconds to wait for the daemon to start, answer or exit.
DAEMON_TIMEOUT = 60.0


def query_stream(seed: int, length: int) -> List[SubmitQuery]:
    """The seeded query stream (same seed, same queries)."""
    rng = random.Random(seed)
    cells = [
        (scenario_to_dict(scenario), utilization)
        for scenario in grid_scenarios("fig2")
        for utilization in scenario.utilization_points(STEP)
    ]
    stream: List[SubmitQuery] = []
    distinct: List[SubmitQuery] = []
    block: List[tuple] = []
    for _ in range(length):
        if distinct and rng.random() < REPEAT_SHARE:
            query = stream[-1] if rng.random() < 0.5 else rng.choice(distinct)
        else:
            # Distinct queries visit every (panel, point) cell once per
            # shuffled block, so any prefix of the stream has nearly the
            # same mix of cheap and costly cells.
            if not block:
                block = rng.sample(cells, len(cells))
            scenario, utilization = block.pop()
            query = SubmitQuery(
                scenario=scenario,
                utilization=utilization,
                samples=SAMPLES,
                seed=rng.randrange(2**31),
                protocols=tuple(KNOWN_PROTOCOLS),
            )
            distinct.append(query)
        stream.append(query)
    return stream


class Daemon:
    """One daemon subprocess, connected; ``setup_s`` is spawn to first reply."""

    def __init__(self, src: str, data_dir: str, trace_out: Optional[str] = None):
        os.makedirs(data_dir, exist_ok=True)
        serve = ["serve", "--port", "0", "--data-dir", data_dir, "--log-level", "warning"]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.service", *serve]
        else:
            command = [sys.executable, os.path.join(HERE, "traced_daemon.py"), trace_out, *serve]
        env = dict(os.environ, PYTHONPATH=src)
        self._log = open(os.path.join(data_dir, "daemon.log"), "wb")
        started = time.perf_counter()
        try:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=self._log, env=env
            )
        except OSError:
            self._log.close()
            raise
        self.client: Optional[ServiceClient] = None
        try:
            line = self.process.stdout.readline().decode().strip()
            if not line.startswith("listening on "):
                raise RuntimeError(f"daemon did not start: {line!r}")
            host, port = line.rsplit(" ", 1)[1].rsplit(":", 1)
            self.host, self.port = host, int(port)
            self.client = ServiceClient(host, self.port, timeout=DAEMON_TIMEOUT)
            self.client.stats()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        """The daemon's high-water resident set (``VmHWM``), in MB."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Ask the daemon to shut down and wait until it has exited."""
        try:
            if self.client is not None and self.process.poll() is None:
                self.client.shutdown()
        except OSError:
            pass
        finally:
            if self.client is not None:
                self.client.close()
            try:
                self.process.wait(timeout=DAEMON_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()
            self._log.close()


@dataclass
class Answer:
    """One query's client-side outcome."""

    index: int
    latency: float
    cached: bool = False
    coalesced: bool = False
    error: str = ""
    exit_code: int = 0
    result: Dict = field(default_factory=dict)


def closed_loop(daemon: Daemon, stream: List[SubmitQuery], seconds: float):
    """Run :data:`CLIENTS` closed-loop clients until ``seconds`` elapse.

    Returns ``(answers, wall_seconds)``; every query sent is answered.
    """
    lock = threading.Lock()
    cursor = [0]
    answers: List[Answer] = []
    failures: List[BaseException] = []
    deadline = time.perf_counter() + seconds

    def take() -> Optional[int]:
        with lock:
            if time.perf_counter() >= deadline or cursor[0] >= len(stream):
                return None
            cursor[0] += 1
            return cursor[0] - 1

    def client_loop() -> None:
        try:
            with ServiceClient(daemon.host, daemon.port, timeout=DAEMON_TIMEOUT) as client:
                while True:
                    index = take()
                    if index is None:
                        return
                    started = time.perf_counter()
                    client.send(stream[index])
                    reply = client.recv_until(JobAccepted, ErrorReply)
                    if isinstance(reply, ErrorReply):
                        answer = Answer(index, time.perf_counter() - started,
                                        error=reply.code)
                    else:
                        ready = client.wait_result(reply.job_id)
                        answer = Answer(
                            index,
                            time.perf_counter() - started,
                            cached=reply.cached,
                            coalesced=reply.coalesced,
                            exit_code=ready.exit_code,
                            result=dict(ready.result),
                        )
                    with lock:
                        answers.append(answer)
        except BaseException as error:  # reported by the caller
            with lock:
                failures.append(error)

    started = time.perf_counter()
    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if failures:
        raise RuntimeError(f"client failed: {failures[0]!r}") from failures[0]
    answers.sort(key=lambda answer: answer.index)
    return answers, wall


def check(stream: List[SubmitQuery], answers: List[Answer]) -> List[str]:
    """Problems with the answers (empty when every answer checks out).

    Every answer must be free of errors, and all answers to equal queries
    identical.  The first :data:`CHECKED` distinct queries are re-evaluated
    through :func:`repro.campaign.executor.execute_unit` on the same unit.
    """
    problems: List[str] = []
    first: Dict[str, Answer] = {}
    for answer in answers:
        if answer.error or answer.exit_code != 0:
            problems.append(f"query {answer.index}: {answer.error or answer.exit_code}")
            continue
        key = query_cache_key(stream[answer.index])
        if key not in first:
            first[key] = answer
        elif answer.result != first[key].result:
            problems.append(f"query {answer.index}: answer differs from its repeat")
    for key, answer in list(first.items())[:CHECKED]:
        query = stream[answer.index]
        unit = WorkUnit(
            scenario=scenario_from_dict(dict(query.scenario)),
            point_index=0,
            utilization=float(query.utilization),
            seed=int(query.seed),
            samples_per_point=int(query.samples),
        )
        protocols = build_protocols(list(query.protocols), int(query.max_path_signatures))
        reference = execute_unit(unit, protocols)
        got = answer.result
        if (
            got.get("accepted") != dict(sorted(reference.accepted.items()))
            or got.get("evaluated") != reference.evaluated
            or got.get("generation_failures") != reference.generation_failures
        ):
            problems.append(f"query {answer.index}: answer differs from execute_unit")
    return problems
