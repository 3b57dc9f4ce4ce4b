"""Near-zero-cost counters, histograms, and span timers for the hot paths.

One :class:`Telemetry` instance aggregates everything a work unit (or a
whole campaign) observes about *where compute goes*: monotonically
increasing **counters** (solver convergence tallies, cache hits, simulator
events), **timers** fed by :meth:`Telemetry.span` context managers
(``perf_counter`` wall-clock per phase and per protocol), and bucketed
**histograms** (solver iteration counts).  All three merge associatively
via :meth:`Telemetry.merge`, so process-pool workers aggregate per work
unit and the parent folds the per-unit snapshots in any grouping without
changing the totals.

Instrumented library code never takes a ``Telemetry`` parameter.  It reads
the module-level *active session* instead::

    tel = telemetry.active()
    if tel is not None:          # one thread-local read + identity check when off
        tel.count("solver.scalar.converged")

With no session active (the default) the cost of an instrumentation point
is a single thread-local read and an ``is not None`` check — which is what
keeps the kernel hot paths within the ≤2 % overhead budget (measured in
``BENCH_PR6.json``) and lets telemetry stay strictly out-of-band: nothing
here ever touches ``results.jsonl`` bytes, config hashes, or the store
format version.

Sessions are per thread (campaign workers are separate processes, each
enabling its own session; the service daemon's job threads each see only
their own), so no thread synchronisation is needed.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional


@dataclass
class TimerStats:
    """Associatively mergeable summary of one timer's observations."""

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = 0.0

    def add(self, seconds: float) -> None:
        """Fold one observed duration (seconds) into the summary."""
        self.count += 1
        self.total += seconds
        if seconds < self.minimum:
            self.minimum = seconds
        if seconds > self.maximum:
            self.maximum = seconds

    def merge(self, other: "TimerStats") -> None:
        """Fold another timer summary into this one (associative)."""
        self.count += other.count
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum

    def to_dict(self) -> dict:
        """JSON-serialisable form (``min`` is ``None`` while empty)."""
        return {
            "count": self.count,
            "total": round(self.total, 9),
            "min": None if self.count == 0 else round(self.minimum, 9),
            "max": round(self.maximum, 9),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TimerStats":
        """Rebuild a summary from :meth:`to_dict` output."""
        return cls(
            count=int(data["count"]),
            total=float(data["total"]),
            minimum=math.inf if data.get("min") is None else float(data["min"]),
            maximum=float(data["max"]),
        )


def bucket_label(value: int) -> str:
    """Power-of-two histogram bucket label of a non-negative integer.

    ``0`` → ``"0"``, ``1`` → ``"1"``, ``2`` → ``"2"``, then doubling ranges
    ``"3-4"``, ``"5-8"``, ``"9-16"``, ... — coarse enough that fixed-seed
    campaigns produce identical histograms across machines, fine enough to
    expose slowly-converging fixed points.
    """
    if value <= 0:
        return "0"
    if value <= 2:
        return str(value)
    low, high = 3, 4
    while value > high:
        low, high = high + 1, high * 2
    return f"{low}-{high}"


def bucket_label_from_index(index: int) -> str:
    """The :func:`bucket_label` string of a bucket's array index.

    ``0`` → ``"0"``, ``1`` → ``"1"``, ``2`` → ``"2"``, ``3`` → ``"3-4"``,
    ``4`` → ``"5-8"``, ... — the slots the hot-path accumulators bucket
    into, with ``(value - 1).bit_length() + 1`` as a value's index.
    """
    if index <= 2:
        return str(max(index, 0))
    return f"{2 ** (index - 2) + 1}-{2 ** (index - 1)}"


class ScalarSolves:
    """Hot-path accumulator for the scalar fixed-point solver.

    The scalar solver runs O(100) times per schedulability test, so its
    instrumentation cannot afford the generic :meth:`Telemetry.count` /
    :meth:`Telemetry.record` API (dict lookups, string keys, method calls
    — ~1µs per solve, blowing the ≤2 % kernel overhead budget).  Instead
    the solver appends one encoded integer
    (``iterations << 2 | outcome_code``, codes below) to :attr:`raw`
    through a preloaded bound ``list.append`` (see the ``_SOLVE_APPEND``
    session hook below) — about 100 ns per solve, and plain ``int``s are
    invisible to the cyclic GC, so a long session adds no collector
    pressure.  :meth:`Telemetry.merge` / :meth:`Telemetry.to_dict` fold
    the raw values into the ordinary counters/histograms lazily, so every
    downstream consumer still sees plain ``solver.scalar.*`` counters and
    the ``solver.iterations`` histogram.
    """

    __slots__ = ("raw",)

    #: Outcome codes in the low two bits of a raw entry.
    CONVERGED_CODE = 0
    DIVERGED_CODE = 1
    NO_CONVERGENCE_CODE = 2

    def __init__(self) -> None:
        #: Unfolded ``iterations << 2 | outcome_code`` ints, one per solve.
        self.raw: list = []

    def add(self, outcome: str, iterations: int) -> None:
        """Record one solve (``outcome`` ∈ converged/diverged/no_convergence).

        Equivalent to what the solver does through the session hook — one
        encoded int appended to :attr:`raw`, tallied only when folded.
        """
        if outcome == "converged":
            code = self.CONVERGED_CODE
        elif outcome == "diverged":
            code = self.DIVERGED_CODE
        else:
            code = self.NO_CONVERGENCE_CODE
        self.raw.append(iterations << 2 | code)

    def fold_into(self, telemetry: "Telemetry") -> None:
        """Tally the raw solves into generic counters/histograms.

        Emits the same keys the generic API would have produced
        (``solver.scalar.calls``/``.converged``/``.diverged``/
        ``.no_convergence``/``.iterations`` counters and the
        ``solver.iterations`` histogram) and drains :attr:`raw` in place
        (preserving any live bound ``append``), so folding is idempotent.
        """
        if not self.raw:
            return
        converged = diverged = no_convergence = iterations = 0
        buckets = [0] * 66  # one slot per bucket index; covers 64-bit counts
        for entry in self.raw:
            count = entry >> 2
            iterations += count
            buckets[(count - 1).bit_length() + 1 if count > 0 else 0] += 1
            code = entry & 3
            if code == self.CONVERGED_CODE:
                converged += 1
            elif code == self.DIVERGED_CODE:
                diverged += 1
            else:
                no_convergence += 1
        del self.raw[:]
        telemetry.count("solver.scalar.calls", converged + diverged + no_convergence)
        if converged:
            telemetry.count("solver.scalar.converged", converged)
        if diverged:
            telemetry.count("solver.scalar.diverged", diverged)
        if no_convergence:
            telemetry.count("solver.scalar.no_convergence", no_convergence)
        telemetry.count("solver.scalar.iterations", iterations)
        histogram = telemetry.histograms.setdefault("solver.iterations", {})
        for index, count in enumerate(buckets):
            if count:
                label = bucket_label_from_index(index)
                histogram[label] = histogram.get(label, 0) + count


def bucket_sort_key(label: str) -> float:
    """Numeric sort key of a :func:`bucket_label` (lower bucket edge)."""
    head = label.split("-", 1)[0]
    try:
        return float(head)
    except ValueError:
        return math.inf


class Telemetry:
    """One mergeable bundle of counters, timers, and histograms.

    ``scalar_solves`` is the :class:`ScalarSolves` fast-path slot the
    solver increments directly; it is folded into the generic
    counters/histograms transparently whenever the bundle is snapshotted,
    merged, or truth-tested, so consumers never see it as separate state.
    """

    __slots__ = ("counters", "timers", "histograms", "scalar_solves")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, TimerStats] = {}
        self.histograms: Dict[str, Dict[str, int]] = {}
        self.scalar_solves = ScalarSolves()

    def __bool__(self) -> bool:
        """Whether anything has been recorded yet."""
        self.scalar_solves.fold_into(self)
        return bool(self.counters or self.timers or self.histograms)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name`` (created at 0)."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def observe(self, name: str, seconds: float) -> None:
        """Fold one duration (seconds) into the timer ``name``."""
        timer = self.timers.get(name)
        if timer is None:
            timer = self.timers[name] = TimerStats()
        timer.add(seconds)

    def record(self, name: str, value: int) -> None:
        """Count ``value`` into the bucketed histogram ``name``."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = {}
        label = bucket_label(value)
        histogram[label] = histogram.get(label, 0) + 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into the timer ``name`` (perf_counter)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - started)

    # ------------------------------------------------------------------ #
    # Merging and (de)serialisation
    # ------------------------------------------------------------------ #
    def merge(self, other: "Telemetry") -> None:
        """Fold another telemetry bundle into this one.

        The merge is associative and commutative for counters and
        histograms (integer sums) and associative for timers, so per-unit
        worker snapshots can be folded in any grouping.
        """
        self.scalar_solves.fold_into(self)
        other.scalar_solves.fold_into(other)
        for name, value in other.counters.items():
            self.count(name, value)
        for name, timer in other.timers.items():
            mine = self.timers.get(name)
            if mine is None:
                mine = self.timers[name] = TimerStats()
            mine.merge(timer)
        for name, histogram in other.histograms.items():
            mine_hist = self.histograms.setdefault(name, {})
            for label, count in histogram.items():
                mine_hist[label] = mine_hist.get(label, 0) + count

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot (keys sorted for determinism)."""
        self.scalar_solves.fold_into(self)
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "timers": {
                k: self.timers[k].to_dict() for k in sorted(self.timers)
            },
            "histograms": {
                k: {
                    label: self.histograms[k][label]
                    for label in sorted(
                        self.histograms[k], key=bucket_sort_key
                    )
                }
                for k in sorted(self.histograms)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Telemetry":
        """Rebuild a telemetry bundle from :meth:`to_dict` output."""
        telemetry = cls()
        for name, value in dict(data.get("counters") or {}).items():
            telemetry.counters[str(name)] = int(value)
        for name, timer in dict(data.get("timers") or {}).items():
            telemetry.timers[str(name)] = TimerStats.from_dict(timer)
        for name, histogram in dict(data.get("histograms") or {}).items():
            telemetry.histograms[str(name)] = {
                str(label): int(count) for label, count in histogram.items()
            }
        return telemetry


# --------------------------------------------------------------------------- #
# The active session
# --------------------------------------------------------------------------- #
class _Session(threading.local):
    """The calling thread's active bundle (``None`` outside a session) and
    its ``scalar_solves.raw.append``, preloaded so the scalar solver's
    per-call cost is one read plus one ``append``.  Managed only by
    :func:`session`."""

    active: Optional[Telemetry] = None
    solve_append = None


_SESSION = _Session()


def active() -> Optional[Telemetry]:
    """The calling thread's active :class:`Telemetry`, or ``None`` when disabled.

    Instrumentation points call this once, keep the local, and skip all
    recording when it is ``None`` — the disabled fast path costs one
    thread-local read.
    """
    return _SESSION.active


@contextmanager
def session(telemetry: Optional[Telemetry] = None) -> Iterator[Telemetry]:
    """Activate ``telemetry`` (or a fresh bundle) for the ``with`` block.

    The session belongs to the calling thread.  Sessions nest: the previous
    active bundle is restored on exit, so a work unit can aggregate into its
    own bundle while an outer benchmark session keeps collecting afterwards.
    """
    bundle = telemetry if telemetry is not None else Telemetry()
    previous = _SESSION.active
    previous_append = _SESSION.solve_append
    _SESSION.active = bundle
    _SESSION.solve_append = bundle.scalar_solves.raw.append
    try:
        yield bundle
    finally:
        _SESSION.active = previous
        _SESSION.solve_append = previous_append
