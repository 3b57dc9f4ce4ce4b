"""Metrics used by the paper's evaluation: acceptance ratio, dominance,
outperformance — plus the bound-tightness statistics of simulate-mode
validation campaigns.

*Acceptance ratio* — fraction of generated task sets deemed schedulable at a
given utilization point.

For one experimental scenario (a full utilization sweep), the paper compares
two algorithms A and B as follows (footnote 1):

* A **outperforms** B if A scheduled more task sets than B over the whole
  sweep;
* A **dominates** B if A's acceptance ratio is at least B's at every tested
  point and strictly higher at some point.

*Bound tightness* — for an analysis-accepted task set that was additionally
*simulated*, the per-task ratio ``observed max response time / analytical
WCRT bound``.  Soundness requires every ratio ``<= 1``; how far below 1 the
distribution sits measures the pessimism of the bound.
:class:`TightnessStats` folds those ratios into a fixed-size summary
(count / sum / min / max / histogram) that merges associatively, so
campaign work units can be folded in any order into per-scenario and
campaign-wide rollups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence


@dataclass
class SweepCurve:
    """Acceptance-ratio curve of one protocol over one utilization sweep."""

    protocol: str
    utilizations: List[float] = field(default_factory=list)
    accepted: List[int] = field(default_factory=list)
    sampled: List[int] = field(default_factory=list)
    #: Per-point count of task-set draws the generator failed to realise.
    #: A point where *every* draw failed has ``sampled == 0`` and an
    #: acceptance ratio of NaN — surfaced as such in tables and figures
    #: instead of fabricating a 0-out-of-1 ratio.
    generation_failures: List[int] = field(default_factory=list)

    def add_point(
        self,
        utilization: float,
        accepted: int,
        sampled: int,
        generation_failures: int = 0,
    ) -> None:
        """Record the outcome of one utilization point."""
        if sampled < 0:
            raise ValueError("sampled must be non-negative")
        if generation_failures < 0:
            raise ValueError("generation_failures must be non-negative")
        if not 0 <= accepted <= sampled:
            raise ValueError("accepted must lie in [0, sampled]")
        self.utilizations.append(float(utilization))
        self.accepted.append(int(accepted))
        self.sampled.append(int(sampled))
        self.generation_failures.append(int(generation_failures))

    @property
    def acceptance_ratios(self) -> List[float]:
        """Per-point acceptance ratios (NaN where no task set was realised)."""
        return [
            a / s if s else float("nan")
            for a, s in zip(self.accepted, self.sampled)
        ]

    @property
    def total_generation_failures(self) -> int:
        """Total failed task-set draws over the sweep."""
        return sum(self.generation_failures)

    @property
    def total_accepted(self) -> int:
        """Total number of task sets accepted over the sweep."""
        return sum(self.accepted)

    @property
    def total_sampled(self) -> int:
        """Total number of task sets evaluated over the sweep."""
        return sum(self.sampled)


def outperforms(a: SweepCurve, b: SweepCurve) -> bool:
    """Whether protocol ``a`` scheduled strictly more task sets than ``b``."""
    return a.total_accepted > b.total_accepted


def dominates(a: SweepCurve, b: SweepCurve, tolerance: float = 1e-12) -> bool:
    """Whether ``a``'s curve is never below and somewhere above ``b``'s curve.

    The comparison is defined over the points where both curves realised at
    least one task set; a point with a NaN ratio on either side (see
    :attr:`SweepCurve.generation_failures`) is excluded.  Curves produced by
    one sweep share their task-set draws, so there a NaN is always mutual
    and carries no information about either protocol; when comparing curves
    from unrelated runs, one-sided NaN points are likewise skipped rather
    than counted for or against anyone.
    """
    ratios_a = a.acceptance_ratios
    ratios_b = b.acceptance_ratios
    if len(ratios_a) != len(ratios_b):
        raise ValueError("curves must cover the same utilization points")
    pairs = [
        (ra, rb)
        for ra, rb in zip(ratios_a, ratios_b)
        if not (math.isnan(ra) or math.isnan(rb))
    ]
    never_below = all(ra >= rb - tolerance for ra, rb in pairs)
    somewhere_above = any(ra > rb + tolerance for ra, rb in pairs)
    return never_below and somewhere_above


@dataclass
class PairwiseStatistics:
    """Dominance / outperformance counts over a collection of scenarios."""

    protocols: List[str]
    scenario_count: int = 0
    dominance: Dict[str, Dict[str, int]] = field(default_factory=dict)
    outperformance: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for a in self.protocols:
            self.dominance.setdefault(a, {})
            self.outperformance.setdefault(a, {})
            for b in self.protocols:
                if a == b:
                    continue
                self.dominance[a].setdefault(b, 0)
                self.outperformance[a].setdefault(b, 0)

    def record_scenario(self, curves: Mapping[str, SweepCurve]) -> None:
        """Update the counts with the sweep curves of one scenario."""
        missing = [p for p in self.protocols if p not in curves]
        if missing:
            raise ValueError(f"missing curves for protocols {missing}")
        self.scenario_count += 1
        for a in self.protocols:
            for b in self.protocols:
                if a == b:
                    continue
                if dominates(curves[a], curves[b]):
                    self.dominance[a][b] += 1
                if outperforms(curves[a], curves[b]):
                    self.outperformance[a][b] += 1


#: Number of equal-width histogram bins over the ratio range ``[0, 1]``.
TIGHTNESS_BINS = 10


@dataclass
class TightnessStats:
    """Foldable summary of an observed/bound ratio distribution.

    ``histogram[i]`` counts ratios in ``[i/B, (i+1)/B)`` (the last bin is
    closed at 1.0); ratios above ``1 + 1e-9`` — analytical bound
    *violations* — are counted in :attr:`overflows` instead of a bin, so a
    violation can never hide inside the top bin.  ``minimum``/``maximum``
    are ``None`` while the distribution is empty.
    """

    count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    overflows: int = 0
    histogram: List[int] = field(default_factory=lambda: [0] * TIGHTNESS_BINS)

    def add(self, ratio: float) -> None:
        """Fold one observed/bound ratio into the summary."""
        if ratio < 0:
            raise ValueError(f"ratio must be non-negative, got {ratio}")
        self.count += 1
        self.total += ratio
        if self.minimum is None or ratio < self.minimum:
            self.minimum = ratio
        if self.maximum is None or ratio > self.maximum:
            self.maximum = ratio
        if ratio > 1.0 + 1e-9:
            self.overflows += 1
        else:
            bin_index = min(TIGHTNESS_BINS - 1, int(ratio * TIGHTNESS_BINS))
            self.histogram[bin_index] += 1

    def merge(self, other: "TightnessStats") -> None:
        """Fold another summary into this one (associative, any order)."""
        self.count += other.count
        self.total += other.total
        if other.minimum is not None:
            if self.minimum is None or other.minimum < self.minimum:
                self.minimum = other.minimum
        if other.maximum is not None:
            if self.maximum is None or other.maximum > self.maximum:
                self.maximum = other.maximum
        self.overflows += other.overflows
        self.histogram = [
            mine + theirs for mine, theirs in zip(self.histogram, other.histogram)
        ]

    @property
    def mean(self) -> float:
        """Mean ratio (NaN while the distribution is empty)."""
        return self.total / self.count if self.count else float("nan")

    def to_dict(self) -> dict:
        """JSON-serialisable form (stored in campaign unit records)."""
        return {
            "count": self.count,
            "total": self.total,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "overflows": self.overflows,
            "histogram": list(self.histogram),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TightnessStats":
        """Rebuild a summary from :meth:`to_dict` output."""
        histogram = [int(v) for v in data["histogram"]]
        if len(histogram) != TIGHTNESS_BINS:
            raise ValueError(
                f"expected {TIGHTNESS_BINS} histogram bins, got {len(histogram)}"
            )
        return cls(
            count=int(data["count"]),
            total=float(data["total"]),
            minimum=None if data["minimum"] is None else float(data["minimum"]),
            maximum=None if data["maximum"] is None else float(data["maximum"]),
            overflows=int(data["overflows"]),
            histogram=histogram,
        )


@dataclass
class ValidationRollup:
    """Per-protocol fold of simulate-mode validation evidence.

    One instance summarises any number of validation runs — a single work
    unit's, a scenario's, or a whole campaign's — and merges associatively
    like :class:`TightnessStats`.  ``simulated`` counts analysis-accepted
    task sets that were run through the simulator; the invariant counters
    and ``deadline_misses`` must stay zero for the analysis to be sound
    (the ratio :attr:`TightnessStats.overflows` is the third soundness
    signal).
    """

    simulated: int = 0
    truncated: int = 0
    rule_failures: int = 0
    mutual_exclusion_violations: int = 0
    processor_overlaps: int = 0
    spin_exclusivity_violations: int = 0
    deadline_misses: int = 0
    jobs_finished: int = 0
    events: int = 0
    ratio: TightnessStats = field(default_factory=TightnessStats)

    def merge(self, other: "ValidationRollup") -> None:
        """Fold another rollup into this one."""
        self.simulated += other.simulated
        self.truncated += other.truncated
        self.rule_failures += other.rule_failures
        self.mutual_exclusion_violations += other.mutual_exclusion_violations
        self.processor_overlaps += other.processor_overlaps
        self.spin_exclusivity_violations += other.spin_exclusivity_violations
        self.deadline_misses += other.deadline_misses
        self.jobs_finished += other.jobs_finished
        self.events += other.events
        self.ratio.merge(other.ratio)

    @classmethod
    def merged(cls, rollups: Iterable["ValidationRollup"]) -> "ValidationRollup":
        """A new rollup folding ``rollups`` in order (empty for none)."""
        total = cls()
        for rollup in rollups:
            total.merge(rollup)
        return total

    @property
    def invariant_violations(self) -> int:
        """Runtime invariant violations: mutual exclusion, processor
        overlaps and spin exclusivity."""
        return (
            self.mutual_exclusion_violations
            + self.processor_overlaps
            + self.spin_exclusivity_violations
        )

    @property
    def violations(self) -> int:
        """Total soundness violations: invariants, misses, bound overflows."""
        return self.invariant_violations + self.deadline_misses + self.ratio.overflows

    def to_dict(self) -> dict:
        """JSON-serialisable form (stored in campaign unit records)."""
        return {
            "simulated": self.simulated,
            "truncated": self.truncated,
            "rule_failures": self.rule_failures,
            "mutual_exclusion_violations": self.mutual_exclusion_violations,
            "processor_overlaps": self.processor_overlaps,
            "spin_exclusivity_violations": self.spin_exclusivity_violations,
            "deadline_misses": self.deadline_misses,
            "jobs_finished": self.jobs_finished,
            "events": self.events,
            "ratio": self.ratio.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ValidationRollup":
        """Rebuild a rollup from :meth:`to_dict` output."""
        return cls(
            simulated=int(data["simulated"]),
            truncated=int(data["truncated"]),
            rule_failures=int(data["rule_failures"]),
            mutual_exclusion_violations=int(data["mutual_exclusion_violations"]),
            processor_overlaps=int(data["processor_overlaps"]),
            spin_exclusivity_violations=int(data["spin_exclusivity_violations"]),
            deadline_misses=int(data["deadline_misses"]),
            jobs_finished=int(data["jobs_finished"]),
            events=int(data["events"]),
            ratio=TightnessStats.from_dict(data["ratio"]),
        )


def weighted_acceptance(curves: Sequence[SweepCurve]) -> Dict[str, float]:
    """Overall acceptance ratio per protocol, aggregated over several sweeps.

    A protocol whose every task-set draw failed has no realised samples and
    maps to NaN — the same convention as
    :attr:`SweepCurve.acceptance_ratios` — never a fabricated 0.0.
    """
    totals: Dict[str, List[int]] = {}
    for curve in curves:
        accepted, sampled = totals.setdefault(curve.protocol, [0, 0])
        totals[curve.protocol] = [
            accepted + curve.total_accepted,
            sampled + curve.total_sampled,
        ]
    return {
        protocol: (accepted / sampled if sampled else float("nan"))
        for protocol, (accepted, sampled) in totals.items()
    }
