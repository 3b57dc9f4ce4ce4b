"""Compute profiling: turn a campaign store into "where did the time go".

This is the one :mod:`repro.obs` module that is **not** stdlib-only — it
reads the campaign store (``results.jsonl`` for per-unit wall-clock and
identity, ``events.jsonl`` for the per-unit telemetry snapshots) and is
therefore imported lazily by its consumers (``python -m repro.campaign
profile`` and the report bundle's "Compute profile" section) instead of
from ``repro.obs.__init__`` — eagerly importing it there would cycle
through the campaign planner back into the instrumented analysis engine.

The profile separates two kinds of evidence:

* **Deterministic counters and histograms** (solver outcome tallies, cache
  hits/misses, simulator event counts) — integer sums, identical for a
  fixed seed at any worker count.  The ``profile`` command renders them;
  the report bundle shows only the EP-fidelity line derived from them.
* **Wall-clock timings** (per-phase and per-protocol spans, per-unit
  elapsed seconds) — machine- and load-dependent.  These stay in the
  ``profile`` CLI output only, never in byte-compared artefacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ..campaign.store import StoreView
from .events import UnitTelemetry, event_from_record
from .sink import events_path, iter_event_records
from .telemetry import Telemetry, bucket_sort_key


@dataclass
class UnitProfile:
    """Per-unit slice of the compute profile (from ``results.jsonl``)."""

    unit_id: str
    scenario_id: str
    point_index: int
    utilization: float
    elapsed_seconds: float
    evaluated: int
    generation_failures: int

    def to_dict(self) -> dict:
        """JSON-serialisable form (``profile --json``)."""
        return {
            "unit_id": self.unit_id,
            "scenario_id": self.scenario_id,
            "point_index": self.point_index,
            "utilization": self.utilization,
            "elapsed_seconds": self.elapsed_seconds,
            "evaluated": self.evaluated,
            "generation_failures": self.generation_failures,
        }


@dataclass
class ComputeProfile:
    """Everything the ``profile`` command and report section render.

    ``telemetry`` is the associative merge of every unit's
    :class:`~repro.obs.events.UnitTelemetry` snapshot; ``units`` covers every
    checkpointed unit whether or not it ran with telemetry (:func:`scan_events`
    leaves it empty).
    """

    store_directory: str
    units: List[UnitProfile] = field(default_factory=list)
    #: The last telemetry snapshot of each unit that has one in events.jsonl.
    snapshots: Dict[str, dict] = field(default_factory=dict)
    #: events.jsonl record count per event type (empty without the file).
    event_counts: Dict[str, int] = field(default_factory=dict)
    #: Highest event ``seq`` in events.jsonl (``None`` without one).
    last_seq: Optional[int] = None

    @cached_property
    def telemetry(self) -> Telemetry:
        """The merge of :attr:`snapshots` in sorted unit-id order, on first read."""
        merged = Telemetry()
        for unit_id in sorted(self.snapshots):
            merged.merge(Telemetry.from_dict(self.snapshots[unit_id]))
        return merged

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    def phase_timers(self) -> "List[Tuple[str, object]]":
        """``(phase, TimerStats)`` rows of the ``phase.*`` spans (sorted)."""
        return [
            (name[len("phase."):], self.telemetry.timers[name])
            for name in sorted(self.telemetry.timers)
            if name.startswith("phase.")
        ]

    def protocol_timers(self) -> "List[Tuple[str, object]]":
        """``(protocol, TimerStats)`` rows of the ``protocol.*`` spans."""
        return [
            (name[len("protocol."):], self.telemetry.timers[name])
            for name in sorted(self.telemetry.timers)
            if name.startswith("protocol.")
        ]

    def scenario_seconds(self) -> "List[Tuple[str, int, float]]":
        """``(scenario_id, units, elapsed_seconds)`` rows, slowest first."""
        totals: Dict[str, List[float]] = {}
        for unit in self.units:
            slot = totals.setdefault(unit.scenario_id, [0, 0.0])
            slot[0] += 1
            slot[1] += unit.elapsed_seconds
        return sorted(
            ((sid, int(n), t) for sid, (n, t) in totals.items()),
            key=lambda row: (-row[2], row[0]),
        )

    def slowest_units(self, top: int = 10) -> List[UnitProfile]:
        """The ``top`` slowest units by elapsed seconds."""
        ranked = sorted(
            self.units, key=lambda u: (-u.elapsed_seconds, u.unit_id)
        )
        return ranked[: max(0, top)]

    def solver_histogram(self) -> "List[Tuple[str, int]]":
        """Bucketed ``solver.iterations`` rows in ascending bucket order."""
        histogram = self.telemetry.histograms.get("solver.iterations", {})
        return [
            (label, histogram[label])
            for label in sorted(histogram, key=bucket_sort_key)
        ]

    def ep_fidelity(self) -> "Optional[Dict[str, float]]":
        """How often EP path enumeration hit its cap, if any task was enumerated.

        Returns ``None`` without ``enumeration.cache.misses`` (no EP
        analysis ran with telemetry); otherwise the enumerated-task count
        (one per distinct task and test), the truncated ones, the signature
        total, the EN fallback bounds (``ep.en_fallback``, one per EP bound
        of a truncated task, retries included) and ``degraded_percent`` —
        the share of enumerated tasks whose EP bound degraded to EN.
        """
        counters = self.telemetry.counters
        enumerated = int(counters.get("enumeration.cache.misses", 0))
        if not enumerated:
            return None
        truncated = int(counters.get("enumeration.truncated", 0))
        return {
            "enumerated": enumerated,
            "truncated": truncated,
            "signatures": int(counters.get("enumeration.signatures", 0)),
            "en_fallbacks": int(counters.get("ep.en_fallback", 0)),
            "degraded_percent": 100.0 * truncated / enumerated,
        }

    def early_decisions(self) -> "Optional[Dict[str, int]]":
        """Kernel bounds decided before their Lemma-2 windows, if any ran.

        Returns ``None`` without ``kernel.bounds`` (no DPCP-p kernel bound
        ran with telemetry); otherwise the bound total and the bounds the
        kernel's early divergence tests decided, per path (``ep_batched``,
        ``ep_scalar``, ``en``) and in all (``decided``).
        """
        counters = self.telemetry.counters
        bounds = int(counters.get("kernel.bounds", 0))
        if not bounds:
            return None
        paths = {
            path: int(counters.get(f"kernel.early.{path}", 0))
            for path in ("ep_batched", "ep_scalar", "en")
        }
        return {"bounds": bounds, "decided": sum(paths.values()), **paths}

    def to_dict(self) -> dict:
        """JSON-serialisable profile (``profile --json``)."""
        return {
            "store_directory": self.store_directory,
            "units": [unit.to_dict() for unit in self.units],
            "units_with_telemetry": len(self.snapshots),
            "event_counts": {
                k: self.event_counts[k] for k in sorted(self.event_counts)
            },
            "telemetry": self.telemetry.to_dict(),
        }


def ep_fidelity_line(fidelity: Dict[str, float]) -> str:
    """One line of :meth:`ComputeProfile.ep_fidelity`, as every renderer shows it."""
    return (
        f"EP degraded to EN for {fidelity['degraded_percent']:.1f}% of tasks "
        f"({fidelity['truncated']} of {fidelity['enumerated']} enumerations "
        "hit a cap)"
    )


def scan_events(store_directory: str) -> ComputeProfile:
    """The profile of one scan of a store's ``events.jsonl``, without unit rows.

    Snapshots merge only when :attr:`ComputeProfile.telemetry` is read, so
    ``campaign status``, which needs only the tallies, never pays for it.
    Without the file (telemetry disabled, or a pre-observability store) the
    profile is empty.
    """
    profile = ComputeProfile(store_directory=store_directory)
    for record, _ in iter_event_records(events_path(store_directory)):
        kind = str(record.get("type"))
        profile.event_counts[kind] = profile.event_counts.get(kind, 0) + 1
        seq, last = record.get("seq"), profile.last_seq
        if isinstance(seq, int) and (last is None or seq > last):
            profile.last_seq = seq
        if kind != UnitTelemetry.TYPE:
            continue
        try:
            event = event_from_record(record)
        except TypeError:
            continue
        if isinstance(event, UnitTelemetry):
            # Last snapshot wins per unit: an interrupted run's re-executed
            # unit supersedes the torn original.
            profile.snapshots[event.unit_id] = event.telemetry
    return profile


def load_profile(store_directory: str) -> ComputeProfile:
    """:func:`scan_events` plus one unit row per record of the store."""
    view = StoreView.open(store_directory)
    profile = scan_events(view.store.directory)
    for record in view.records.values():
        profile.units.append(
            UnitProfile(
                unit_id=str(record.get("unit_id", "")),
                scenario_id=str(record.get("scenario_id", "")),
                point_index=int(record.get("point_index", 0)),
                utilization=float(record.get("utilization", 0.0)),
                elapsed_seconds=float(record.get("elapsed_seconds", 0.0)),
                evaluated=int(record.get("evaluated", 0)),
                generation_failures=int(record.get("generation_failures", 0)),
            )
        )
    profile.units.sort(key=lambda unit: unit.unit_id)
    return profile


def _format_seconds(seconds: float) -> str:
    return f"{seconds:10.3f}s"


def render_profile(profile: ComputeProfile, top: int = 10) -> str:
    """Plain-text compute-profile tables (the ``profile`` command body)."""
    lines: List[str] = []
    total_elapsed = sum(unit.elapsed_seconds for unit in profile.units)
    lines.append(f"compute profile of {profile.store_directory}")
    lines.append(
        f"units: {len(profile.units)} checkpointed, "
        f"{len(profile.snapshots)} with telemetry, "
        f"{total_elapsed:.3f}s total unit compute"
    )

    phases = profile.phase_timers()
    if phases:
        lines.append("")
        lines.append("time by phase")
        for name, timer in sorted(phases, key=lambda row: -row[1].total):
            share = 100.0 * timer.total / total_elapsed if total_elapsed else 0.0
            lines.append(
                f"  {name:<12} {_format_seconds(timer.total)}  "
                f"{share:5.1f}%  ({timer.count} spans)"
            )

    protocols = profile.protocol_timers()
    if protocols:
        lines.append("")
        lines.append("time by protocol")
        for name, timer in sorted(protocols, key=lambda row: -row[1].total):
            lines.append(
                f"  {name:<12} {_format_seconds(timer.total)}  "
                f"({timer.count} tests, max {timer.maximum:.6f}s)"
            )

    scenarios = profile.scenario_seconds()
    if scenarios:
        lines.append("")
        lines.append("time by scenario")
        for scenario_id, count, seconds in scenarios:
            lines.append(
                f"  {scenario_id:<44} {_format_seconds(seconds)}  ({count} units)"
            )

    slowest = profile.slowest_units(top)
    if slowest:
        lines.append("")
        lines.append(f"slowest units (top {min(top, len(slowest))})")
        for unit in slowest:
            lines.append(
                f"  {unit.unit_id:<48} {_format_seconds(unit.elapsed_seconds)}  "
                f"({unit.evaluated} samples)"
            )

    histogram = profile.solver_histogram()
    if histogram:
        lines.append("")
        lines.append("solver iterations per fixed point")
        total = sum(count for _, count in histogram)
        for label, count in histogram:
            share = 100.0 * count / total if total else 0.0
            lines.append(f"  {label:>7} iterations  {count:>8}  {share:5.1f}%")

    fidelity = profile.ep_fidelity()
    if fidelity is not None:
        lines.append("")
        lines.append("EP fidelity")
        lines.append(f"  {ep_fidelity_line(fidelity)}")
        lines.append(
            f"  signatures            {fidelity['signatures']}  "
            f"({fidelity['en_fallbacks']} EN fallback bounds)"
        )
    early = profile.early_decisions()
    if early is not None:
        if fidelity is None:
            lines.append("")
            lines.append("kernel bounds")
        lines.append(
            f"  {early['decided']} of {early['bounds']} kernel bounds decided "
            f"before their windows ({early['ep_batched']} EP batched, "
            f"{early['ep_scalar']} EP scalar, {early['en']} EN)"
        )

    counters = profile.telemetry.counters
    if counters:
        lines.append("")
        lines.append("counters")
        for name in sorted(counters):
            lines.append(f"  {name:<32} {counters[name]}")

    if not profile.event_counts:
        lines.append("")
        lines.append(
            "no events.jsonl in this store — run the campaign without "
            "--no-telemetry to collect phase timings and solver statistics"
        )
    return "\n".join(lines)
