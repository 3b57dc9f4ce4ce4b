"""Tests for experiment metrics (acceptance, dominance, outperformance) and tables."""

from __future__ import annotations

import pytest

from repro.experiments.metrics import (
    TIGHTNESS_BINS,
    PairwiseStatistics,
    SweepCurve,
    TightnessStats,
    ValidationRollup,
    dominates,
    outperforms,
    weighted_acceptance,
)
from repro.report.markdown import (
    TABLE_PROTOCOLS,
    render_dominance_table,
    render_outperformance_table,
)


def curve(protocol, ratios, samples=10):
    c = SweepCurve(protocol=protocol)
    for index, ratio in enumerate(ratios):
        c.add_point(utilization=float(index + 1), accepted=int(round(ratio * samples)), sampled=samples)
    return c


# --------------------------------------------------------------------------- #
# SweepCurve
# --------------------------------------------------------------------------- #
def test_sweep_curve_accumulates_points():
    c = curve("A", [1.0, 0.5, 0.0])
    assert c.acceptance_ratios == [1.0, 0.5, 0.0]
    assert c.total_accepted == 15
    assert c.total_sampled == 30


def test_sweep_curve_validates_inputs():
    c = SweepCurve(protocol="A")
    with pytest.raises(ValueError):
        c.add_point(1.0, accepted=5, sampled=0)
    with pytest.raises(ValueError):
        c.add_point(1.0, accepted=11, sampled=10)


def test_sweep_curve_records_generation_failures():
    c = SweepCurve(protocol="A")
    c.add_point(1.0, accepted=1, sampled=2, generation_failures=1)
    c.add_point(2.0, accepted=0, sampled=0, generation_failures=3)
    assert c.generation_failures == [1, 3]
    assert c.total_generation_failures == 4
    ratios = c.acceptance_ratios
    assert ratios[0] == 0.5
    assert ratios[1] != ratios[1]  # NaN, not a fabricated 0/1 ratio
    with pytest.raises(ValueError):
        c.add_point(3.0, accepted=0, sampled=1, generation_failures=-1)


# --------------------------------------------------------------------------- #
# Dominance / outperformance
# --------------------------------------------------------------------------- #
def test_outperforms_compares_totals():
    a = curve("A", [1.0, 0.8])
    b = curve("B", [0.9, 0.8])
    assert outperforms(a, b)
    assert not outperforms(b, a)
    assert not outperforms(a, curve("C", [0.8, 1.0]))  # equal totals


def test_dominates_requires_never_below_and_somewhere_above():
    a = curve("A", [1.0, 0.8, 0.5])
    b = curve("B", [0.9, 0.8, 0.5])
    c = curve("C", [1.0, 0.9, 0.4])
    assert dominates(a, b)
    assert not dominates(b, a)
    assert not dominates(a, c)  # crossover
    assert not dominates(c, a)
    assert not dominates(a, curve("D", [1.0, 0.8, 0.5]))  # identical curves


def test_dominates_ignores_points_without_realised_task_sets():
    a = curve("A", [1.0, 0.8])
    b = curve("B", [0.9, 0.8])
    a.add_point(3.0, accepted=0, sampled=0, generation_failures=5)
    b.add_point(3.0, accepted=0, sampled=0, generation_failures=5)
    assert dominates(a, b)  # the NaN point carries no information
    assert not dominates(b, a)
    empty_a, empty_b = SweepCurve(protocol="A"), SweepCurve(protocol="B")
    empty_a.add_point(1.0, 0, 0, generation_failures=2)
    empty_b.add_point(1.0, 0, 0, generation_failures=2)
    assert not dominates(empty_a, empty_b)


def test_dominates_requires_matching_points():
    with pytest.raises(ValueError):
        dominates(curve("A", [1.0]), curve("B", [1.0, 0.5]))


def test_pairwise_statistics_counts():
    stats = PairwiseStatistics(protocols=["A", "B"])
    stats.record_scenario({"A": curve("A", [1.0, 0.8]), "B": curve("B", [0.9, 0.8])})
    stats.record_scenario({"A": curve("A", [0.5, 0.5]), "B": curve("B", [0.5, 0.5])})
    assert stats.scenario_count == 2
    assert stats.dominance["A"]["B"] == 1
    assert stats.dominance["B"]["A"] == 0
    assert stats.outperformance["A"]["B"] == 1
    assert stats.outperformance["B"]["A"] == 0


def test_pairwise_statistics_rejects_missing_curves():
    stats = PairwiseStatistics(protocols=["A", "B"])
    with pytest.raises(ValueError):
        stats.record_scenario({"A": curve("A", [1.0])})


def test_weighted_acceptance():
    curves = [curve("A", [1.0, 0.0]), curve("A", [1.0, 1.0]), curve("B", [0.5, 0.5])]
    aggregated = weighted_acceptance(curves)
    assert aggregated["A"] == pytest.approx(0.75)
    assert aggregated["B"] == pytest.approx(0.5)


# --------------------------------------------------------------------------- #
# Tables 2 and 3
# --------------------------------------------------------------------------- #
def build_stats():
    stats = PairwiseStatistics(protocols=["DPCP-p-EP", "DPCP-p-EN", "SPIN", "LPP"])
    for _ in range(4):
        stats.record_scenario(
            {
                "DPCP-p-EP": curve("DPCP-p-EP", [1.0, 0.9]),
                "DPCP-p-EN": curve("DPCP-p-EN", [0.9, 0.8]),
                "SPIN": curve("SPIN", [0.8, 0.7]),
                "LPP": curve("LPP", [0.7, 0.6]),
            }
        )
    return stats


def test_render_tables_include_counts_and_percentages():
    stats = build_stats()
    table2 = render_dominance_table(stats)
    table3 = render_outperformance_table(stats)
    assert "Table 2" in table2 and "Table 3" in table3
    assert "4(100.0%)" in table2
    assert "N/A" in table2
    assert "DPCP-p-EP" in table3
    # Rows follow the paper's table order.
    assert [line.split()[0] for line in table2.splitlines()[2:]] == list(TABLE_PROTOCOLS)


def test_weighted_acceptance_is_nan_without_realised_samples():
    import math

    empty = SweepCurve(protocol="A")
    empty.add_point(1.0, accepted=0, sampled=0, generation_failures=3)
    aggregated = weighted_acceptance([empty])
    assert math.isnan(aggregated["A"])


# --------------------------------------------------------------------------- #
# Bound-tightness statistics (simulate-mode campaigns)
# --------------------------------------------------------------------------- #
def test_tightness_stats_fold_and_histogram():
    stats = TightnessStats()
    for ratio in (0.0, 0.05, 0.55, 1.0):
        stats.add(ratio)
    assert stats.count == 4
    assert stats.minimum == 0.0 and stats.maximum == 1.0
    assert stats.mean == pytest.approx(0.4)
    assert stats.histogram[0] == 2  # 0.0 and 0.05
    assert stats.histogram[5] == 1  # 0.55
    assert stats.histogram[-1] == 1  # 1.0 closes the top bin
    assert stats.overflows == 0
    with pytest.raises(ValueError):
        stats.add(-0.1)


def test_tightness_stats_count_bound_violations_as_overflows():
    stats = TightnessStats()
    stats.add(1.2)
    assert stats.overflows == 1
    assert sum(stats.histogram) == 0  # a violation never hides in a bin
    assert stats.maximum == 1.2


def test_tightness_stats_merge_is_order_independent():
    import math

    a, b = TightnessStats(), TightnessStats()
    for ratio in (0.1, 0.9):
        a.add(ratio)
    for ratio in (0.5, 1.3):
        b.add(ratio)
    ab = TightnessStats.from_dict(a.to_dict())
    ab.merge(b)
    ba = TightnessStats.from_dict(b.to_dict())
    ba.merge(a)
    assert ab.to_dict() == ba.to_dict()
    assert ab.count == 4 and ab.overflows == 1
    assert ab.minimum == 0.1 and ab.maximum == 1.3
    # Empty distributions merge as identities.
    empty = TightnessStats()
    empty.merge(TightnessStats())
    assert empty.count == 0 and empty.minimum is None
    assert math.isnan(empty.mean)


def test_tightness_stats_round_trip_and_bin_guard():
    stats = TightnessStats()
    stats.add(0.42)
    assert TightnessStats.from_dict(stats.to_dict()).to_dict() == stats.to_dict()
    bad = stats.to_dict()
    bad["histogram"] = [0] * (TIGHTNESS_BINS - 1)
    with pytest.raises(ValueError):
        TightnessStats.from_dict(bad)


def test_validation_rollup_merges_and_round_trips():
    first = ValidationRollup(simulated=2, truncated=1, deadline_misses=0)
    first.ratio.add(0.5)
    second = ValidationRollup(simulated=1, mutual_exclusion_violations=1)
    second.ratio.add(1.5)
    first.merge(second)
    assert first.simulated == 3 and first.truncated == 1
    assert first.violations == 2  # one ME violation + one ratio overflow
    assert ValidationRollup.from_dict(first.to_dict()).to_dict() == first.to_dict()


def test_validation_rollup_invariant_violations_and_merged_fold():
    first = ValidationRollup(simulated=2, mutual_exclusion_violations=1)
    first.ratio.add(0.5)
    second = ValidationRollup(
        simulated=1, processor_overlaps=2, spin_exclusivity_violations=3,
        deadline_misses=4,
    )
    second.ratio.add(1.5)
    assert second.invariant_violations == 5  # overlaps + spin exclusivity
    total = ValidationRollup.merged([first, second])
    assert total.invariant_violations == 6
    assert total.violations == 6 + 4 + 1  # invariants, misses, one overflow
    assert total.simulated == 3 and total.ratio.maximum == 1.5
    assert first.simulated == 2  # the inputs are left as they were
    assert ValidationRollup.merged([]).to_dict() == ValidationRollup().to_dict()
