"""Shard planning and store-merge tests, including the CLI round trip."""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign import cli
from repro.campaign.merge import (
    MergeConflictError,
    MergeError,
    merge_stores,
)
from repro.campaign.planner import (
    manifest_shard,
    plan_campaign,
    shard_units,
)
from repro.campaign.store import CampaignStore, ConfigMismatchError, StoreView
from repro.experiments.runner import SweepConfig
from repro.experiments.scenarios import Scenario

RUN_FLAGS = [
    "--grid", "fig2",
    "--filter", "m=16",
    "--samples", "2",
    "--step", "0.5",
    "--vertices", "5,8",
    "--protocols", "SPIN,FED-FP",
    "--seed", "2020",
    "--quiet",
]
TOTAL_UNITS = 4  # 2 scenarios x 2 utilization points


def run_cli(*argv):
    return cli.main(list(argv))


def payload_lines(store):
    """results.jsonl records in file order, volatile fields stripped."""
    path = os.path.join(store, "results.jsonl")
    with open(path) as handle:
        return [
            {
                key: value
                for key, value in json.loads(line).items()
                if key not in ("completed_at", "elapsed_seconds")
            }
            for line in handle
        ]


@pytest.fixture(scope="module")
def plan():
    scenario = Scenario(
        platform_size=8,
        resource_count_range=(2, 3),
        average_utilization=1.5,
        access_probability=0.5,
        request_count_range=(1, 5),
        cs_length_range=(15.0, 50.0),
        num_vertices_range=(6, 10),
    )
    config = SweepConfig(
        samples_per_point=2, utilization_step_fraction=0.25, seed=7
    )
    return plan_campaign([scenario], config, ["SPIN"])


# --------------------------------------------------------------------------- #
# Shard planning
# --------------------------------------------------------------------------- #
def test_shards_partition_the_plan(plan):
    shards = [shard_units(plan.units, i, 3) for i in range(3)]
    ids = [unit.unit_id for shard in shards for unit in shard]
    assert sorted(ids) == sorted(unit.unit_id for unit in plan.units)
    assert len(set(ids)) == len(ids)
    # Deterministic: the same slice comes back every time.
    assert [u.unit_id for u in shard_units(plan.units, 1, 3)] == [
        u.unit_id for u in shards[1]
    ]


def test_shard_validation(plan):
    with pytest.raises(ValueError):
        shard_units(plan.units, 0, 0)
    with pytest.raises(ValueError):
        shard_units(plan.units, 3, 3)
    with pytest.raises(ValueError):
        shard_units(plan.units, -1, 3)


def test_shard_spec_lives_outside_the_config_hash(plan):
    from repro.campaign.planner import campaign_manifest

    unsharded = campaign_manifest(plan)
    sharded = campaign_manifest(plan, shard=(1, 4))
    assert sharded["config_hash"] == unsharded["config_hash"]
    assert manifest_shard(sharded) == (1, 4)
    assert manifest_shard(unsharded) is None


def test_store_refuses_a_different_shard_spec(tmp_path, plan):
    from repro.campaign.planner import campaign_manifest

    store = CampaignStore(str(tmp_path / "store"))
    store.initialize(campaign_manifest(plan, shard=(0, 2)))
    with pytest.raises(ConfigMismatchError, match="shard"):
        store.initialize(campaign_manifest(plan, shard=(1, 2)))
    with pytest.raises(ConfigMismatchError, match="unsharded"):
        store.initialize(campaign_manifest(plan))


# --------------------------------------------------------------------------- #
# Merge semantics (CLI round trip)
# --------------------------------------------------------------------------- #
def test_sharded_run_plus_merge_matches_the_serial_store(tmp_path):
    serial = str(tmp_path / "serial")
    assert run_cli("run", "--store", serial, *RUN_FLAGS) == 0

    shards = []
    for index in range(2):
        shard_store = str(tmp_path / f"s{index}")
        shards.append(shard_store)
        assert (
            run_cli(
                "run", "--store", shard_store,
                "--shard", f"{index}/2", *RUN_FLAGS,
            )
            == 0
        )

    merged = str(tmp_path / "merged")
    assert run_cli("merge", *shards, "--into", merged) == 0
    # Same records, same plan order — the merged store is
    # indistinguishable from one uninterrupted serial run.
    assert payload_lines(merged) == payload_lines(serial)
    assert manifest_shard(CampaignStore(merged).read_manifest()) is None
    assert run_cli("report", "--store", merged) == 0
    assert run_cli("status", "--store", merged) == 0

    # Merging is idempotent: a re-merge writes nothing new.
    assert run_cli("merge", *shards, "--into", merged) == 0
    assert payload_lines(merged) == payload_lines(serial)


def test_merge_of_incomplete_shards_returns_3_and_is_resumable(
    tmp_path, capsys
):
    s0 = str(tmp_path / "s0")
    assert run_cli("run", "--store", s0, "--shard", "0/2", *RUN_FLAGS) == 0
    merged = str(tmp_path / "merged")
    assert run_cli("merge", s0, "--into", merged) == 3
    assert "incomplete" in capsys.readouterr().out
    # The merged store is an ordinary store: resume completes it.
    assert run_cli("resume", "--store", merged, "--quiet") == 0
    serial = str(tmp_path / "serial")
    assert run_cli("run", "--store", serial, *RUN_FLAGS) == 0
    assert sorted(
        json.dumps(p, sort_keys=True) for p in payload_lines(merged)
    ) == sorted(json.dumps(p, sort_keys=True) for p in payload_lines(serial))


def test_merge_refuses_mismatched_campaigns(tmp_path, capsys):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert run_cli("run", "--store", a, *RUN_FLAGS) == 0
    other = [flag if flag != "2020" else "2021" for flag in RUN_FLAGS]
    assert run_cli("run", "--store", b, *other) == 0
    assert run_cli("merge", a, b, "--into", str(tmp_path / "m")) == 2
    assert "different campaign" in capsys.readouterr().err


def test_merge_refuses_destination_among_sources(tmp_path, capsys):
    a = str(tmp_path / "a")
    assert run_cli("run", "--store", a, *RUN_FLAGS) == 0
    assert run_cli("merge", a, "--into", a) == 2
    assert "also a merge source" in capsys.readouterr().err


def test_merge_detects_conflicting_duplicate_records(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert run_cli("run", "--store", a, *RUN_FLAGS) == 0
    assert run_cli("run", "--store", b, *RUN_FLAGS) == 0
    # Corrupt one record of store b: same unit id, different payload.
    path = os.path.join(b, "results.jsonl")
    with open(path) as handle:
        lines = [json.loads(line) for line in handle]
    lines[0]["evaluated"] += 1
    with open(path, "w") as handle:
        for record in lines:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    with pytest.raises(MergeConflictError, match="differs between"):
        merge_stores([a, b], str(tmp_path / "m"))


def test_merge_requires_sources():
    with pytest.raises(MergeError, match="no source stores"):
        merge_stores([], "anywhere")


def test_merge_heals_quarantine_records_completed_elsewhere(tmp_path):
    s0 = str(tmp_path / "s0")
    s1 = str(tmp_path / "s1")
    assert run_cli("run", "--store", s0, "--shard", "0/2", *RUN_FLAGS) == 0
    assert run_cli("run", "--store", s1, "--shard", "1/2", *RUN_FLAGS) == 0
    completed_in_s1 = next(iter(CampaignStore(s1).load_records()))
    # Pretend the unit failed on shard 0's host before shard 1 finished it.
    CampaignStore(s0).append_quarantine(
        {
            "unit_id": completed_in_s1,
            "outcome": "error",
            "error_kind": "worker_crash",
            "error_message": "host died",
            "attempts": 3,
        }
    )
    merged = str(tmp_path / "merged")
    report = merge_stores([s0, s1], merged)
    assert report.healed == 1
    assert report.quarantined == 0
    assert report.complete
    assert StoreView.open(merged).unresolved == {}


def test_merge_carries_unresolved_quarantine_and_returns_3(tmp_path, capsys):
    s0 = str(tmp_path / "s0")
    s1 = str(tmp_path / "s1")
    assert run_cli("run", "--store", s0, "--shard", "0/2", *RUN_FLAGS) == 0
    assert run_cli("run", "--store", s1, "--shard", "1/2", *RUN_FLAGS) == 0
    # A unit of shard 0 was quarantined and never completed anywhere:
    # fake it by removing its record and adding a quarantine entry.
    store = CampaignStore(s0)
    records = store.load_records()
    victim = sorted(records)[0]
    with open(store.results_path, "w") as handle:
        for unit_id, record in records.items():
            if unit_id != victim:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    store.append_quarantine(
        {
            "unit_id": victim,
            "outcome": "error",
            "error_kind": "RuleViolation",
            "error_message": "boom",
            "attempts": 3,
        }
    )
    merged = str(tmp_path / "merged")
    assert run_cli("merge", s0, s1, "--into", merged) == 3
    out = capsys.readouterr().out
    assert "still quarantined" in out
    assert set(StoreView.open(merged).unresolved) == {victim}
    # Quarantined units surface in the rendered report too.
    assert run_cli("report", "--store", merged) == 3
    report_md = os.path.join(merged, "report", "REPORT.md")
    with open(report_md) as handle:
        text = handle.read()
    assert "Quarantined units" in text
    assert victim in text
