"""Aggregator tests: folding, rollups, and store streaming."""

from __future__ import annotations

import shutil

from repro.campaign.store import CampaignStore
from repro.experiments.metrics import weighted_acceptance
from repro.experiments.runner import pairwise_statistics
from repro.report.aggregate import aggregate_store

#: Unit count of the conftest fixture campaign (2 scenarios x 2 points).
CAMPAIGN_UNITS = 4


def copy_store(finished_store, tmp_path) -> str:
    """Private mutable copy of the session fixture store."""
    target = str(tmp_path / "store")
    shutil.copytree(finished_store, target)
    return target


# --------------------------------------------------------------------------- #
# Folding and rollups
# --------------------------------------------------------------------------- #
def test_aggregate_matches_store_records(finished_store):
    aggregate = aggregate_store(finished_store)
    assert aggregate.complete
    assert aggregate.total_units == CAMPAIGN_UNITS
    assert aggregate.completed_units == CAMPAIGN_UNITS
    assert aggregate.protocols == ["SPIN", "FED-FP"]

    records = CampaignStore(finished_store).load_records()
    assert aggregate.generation_failures == sum(
        r["generation_failures"] for r in records.values()
    )
    assert aggregate.evaluated_samples == sum(r["evaluated"] for r in records.values())

    # Curves equal a second, independent pass over the same store.
    loaded = aggregate_store(finished_store).complete_results()
    assert len(loaded) == len(aggregate.complete_results()) == 2
    for expected, report in zip(loaded, aggregate.scenarios):
        assert report.complete
        for name in aggregate.protocols:
            assert report.sweep.curves[name].accepted == expected.curves[name].accepted
            assert report.sweep.curves[name].sampled == expected.curves[name].sampled
            assert (
                report.sweep.curves[name].utilizations
                == expected.curves[name].utilizations
            )


def test_rollups_match_metrics_layer(finished_store):
    aggregate = aggregate_store(finished_store)
    results = aggregate.complete_results()

    curves = [r.curves[p] for r in results for p in aggregate.protocols]
    assert aggregate.weighted_acceptance() == weighted_acceptance(curves)

    stats = aggregate.pairwise()
    expected = pairwise_statistics(results, protocols=aggregate.protocols)
    assert stats.scenario_count == expected.scenario_count == 2
    assert stats.dominance == expected.dominance
    assert stats.outperformance == expected.outperformance


def test_partial_store_reports_incomplete_scenarios(tmp_path, run_campaign):
    store = str(tmp_path / "store")
    assert run_campaign(store, "--max-units", "3") == 3
    aggregate = aggregate_store(store)
    assert not aggregate.complete
    assert aggregate.completed_units == 3
    complete = aggregate.complete_reports()
    incomplete = aggregate.incomplete_reports()
    assert len(complete) == 1 and len(incomplete) == 1
    assert incomplete[0].points_done == 1
    assert incomplete[0].points_total == 2
    # The pairwise rollup only covers the complete scenario.
    assert aggregate.pairwise().scenario_count == 1


def test_empty_store_aggregates_to_zero_units(tmp_path, run_campaign):
    store = str(tmp_path / "store")
    assert run_campaign(store, "--max-units", "0") == 3
    aggregate = aggregate_store(store)
    assert aggregate.completed_units == 0
    assert aggregate.complete_results() == []
    assert aggregate.weighted_acceptance() == {}
    assert aggregate.pairwise() is None


# --------------------------------------------------------------------------- #
# Store streaming
# --------------------------------------------------------------------------- #
def test_iter_records_does_not_advance_past_a_torn_line(finished_store, tmp_path):
    store_dir = copy_store(finished_store, tmp_path)
    store = CampaignStore(store_dir)
    with open(store.results_path, "a") as handle:
        handle.write('{"unit_id": "torn')  # no newline: a killed writer

    records = list(store.iter_records())
    assert len(records) == CAMPAIGN_UNITS
    assert all(record["unit_id"] != "torn" for record in records)
    assert len(store.load_records()) == CAMPAIGN_UNITS
