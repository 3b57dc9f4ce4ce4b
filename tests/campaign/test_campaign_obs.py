"""Observability-at-the-campaign-level tests.

The load-bearing guarantee: telemetry is strictly **out-of-band**.  With
every clock frozen, a campaign run with telemetry and one run with
``--no-telemetry`` must produce byte-identical ``results.jsonl`` files —
the event stream adds a sibling ``events.jsonl``, never perturbs results.
"""

from __future__ import annotations

import json
import os
import re
import time

from repro.campaign import cli
from repro.campaign import store as store_module
from repro.campaign.planner import FORMAT_VERSION
from repro.obs.events import (
    CampaignFinished,
    CampaignStarted,
    SolveStats,
    UnitFinished,
    UnitStarted,
    UnitTelemetry,
)
from repro.obs.sink import events_path, iter_event_records, read_events

#: Same cheap 2-scenario campaign as test_campaign_cli (4 work units).
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
TOTAL_UNITS = 4


def _freeze_clocks(monkeypatch):
    """Pin every results.jsonl-visible clock.

    ``perf_counter`` is frozen to a *constant* (not an incrementing fake):
    telemetry spans add extra ``perf_counter`` calls, so any advancing
    clock would change ``elapsed_seconds`` between the on/off runs and the
    comparison would measure the fake clock, not the out-of-band contract.
    """
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
    monkeypatch.setattr(
        store_module, "_utcnow_iso", lambda: "2026-01-01T00:00:00Z"
    )


def _read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_results_bytes_identical_with_telemetry_on_and_off(tmp_path, monkeypatch):
    _freeze_clocks(monkeypatch)
    with_events = str(tmp_path / "with")
    without = str(tmp_path / "without")
    assert cli.main(["run", "--store", with_events, *RUN_FLAGS]) == 0
    assert (
        cli.main(["run", "--store", without, *RUN_FLAGS, "--no-telemetry"]) == 0
    )

    assert _read_bytes(
        os.path.join(with_events, "results.jsonl")
    ) == _read_bytes(os.path.join(without, "results.jsonl"))

    # Same campaign identity either way; telemetry is invisible to the
    # config hash and the store format.
    manifests = []
    for store in (with_events, without):
        with open(os.path.join(store, "manifest.json")) as handle:
            manifests.append(json.load(handle))
    assert manifests[0]["config_hash"] == manifests[1]["config_hash"]
    assert manifests[0]["format_version"] == FORMAT_VERSION

    # The only difference: the sibling event stream.
    assert os.path.isfile(events_path(with_events))
    assert not os.path.exists(events_path(without))


def test_event_stream_covers_the_campaign_lifecycle(tmp_path):
    store = str(tmp_path / "store")
    assert cli.main(["run", "--store", store, *RUN_FLAGS]) == 0

    events = read_events(events_path(store))
    assert isinstance(events[0], CampaignStarted)
    assert events[0].total_units == TOTAL_UNITS
    assert events[0].protocols == ("SPIN", "FED-FP")
    assert isinstance(events[-1], CampaignFinished)
    assert events[-1].completed == TOTAL_UNITS

    by_type = {}
    for event in events:
        by_type.setdefault(type(event), []).append(event)
    assert len(by_type[UnitStarted]) == TOTAL_UNITS
    assert len(by_type[UnitFinished]) == TOTAL_UNITS
    assert len(by_type[UnitTelemetry]) == TOTAL_UNITS
    assert len(by_type[SolveStats]) == TOTAL_UNITS
    assert {event.unit_id for event in by_type[UnitFinished]} == {
        event.unit_id for event in by_type[UnitStarted]
    }

    seqs = [record["seq"] for record, _ in iter_event_records(events_path(store))]
    assert seqs == list(range(len(seqs)))


def test_resume_appends_to_the_event_stream_with_fresh_seqs(tmp_path):
    store = str(tmp_path / "store")
    assert cli.main(["run", "--store", store, *RUN_FLAGS, "--max-units", "3"]) == 3
    first = [record for record, _ in iter_event_records(events_path(store))]
    assert cli.main(["resume", "--store", store, "--quiet"]) == 0
    records = [record for record, _ in iter_event_records(events_path(store))]
    assert records[: len(first)] == first
    seqs = [record["seq"] for record in records]
    assert seqs == list(range(len(seqs)))
    finished = [r for r in records if r["type"] == "unit_finished"]
    assert len(finished) == TOTAL_UNITS


#: ``profile`` output with all clocks frozen, floats normalised to ``#``
#: and the store path normalised to ``<store>`` — pinned byte-for-byte.
PROFILE_GOLDEN = """\
compute profile of <store>
units: 4 checkpointed, 4 with telemetry, #s total unit compute

time by phase
  analysis          #s    #%  (12 spans)
  generation        #s    #%  (8 spans)

time by protocol
  FED-FP            #s  (6 tests, max #s)
  SPIN              #s  (6 tests, max #s)

time by scenario
  m16-nr4_8-U#-pr#-N1_50-L50_100-v5_8-e#      #s  (2 units)
  m16-nr4_8-U2-pr#-N1_50-L50_100-v5_8-e#        #s  (2 units)

slowest units (top 3)
  m16-nr4_8-U#-pr#-N1_50-L50_100-v5_8-e#:p00      #s  (2 samples)
  m16-nr4_8-U#-pr#-N1_50-L50_100-v5_8-e#:p01      #s  (2 samples)
  m16-nr4_8-U2-pr#-N1_50-L50_100-v5_8-e#:p00        #s  (2 samples)

solver iterations per fixed point
        1 iterations        14   #%
        2 iterations         3   #%

counters
  generation.failures              2
  generation.tasksets              6
  solver.scalar.calls              17
  solver.scalar.converged          3
  solver.scalar.diverged           14
  solver.scalar.iterations         20
"""


def test_profile_output_matches_the_golden(tmp_path, monkeypatch, capsys):
    _freeze_clocks(monkeypatch)
    store = str(tmp_path / "store")
    assert cli.main(["run", "--store", store, *RUN_FLAGS]) == 0
    capsys.readouterr()
    assert cli.main(["profile", "--store", store, "--top", "3"]) == 0
    out = capsys.readouterr().out
    normalized = re.sub(r"\d+\.\d+", "#", out).replace(store, "<store>")
    assert normalized == PROFILE_GOLDEN


def test_profile_json_round_trips_the_merged_telemetry(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert cli.main(["run", "--store", store, *RUN_FLAGS]) == 0
    capsys.readouterr()
    assert cli.main(["profile", "--store", store, "--json"]) == 0
    profile = json.loads(capsys.readouterr().out)
    assert len(profile["units"]) == TOTAL_UNITS
    assert profile["units_with_telemetry"] == TOTAL_UNITS
    assert profile["event_counts"]["unit_telemetry"] == TOTAL_UNITS
    # Deterministic counters are pinned above; spot-check one here.
    assert profile["telemetry"]["counters"]["solver.scalar.calls"] == 17


def test_profile_of_a_telemetry_free_store_still_works(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert cli.main(["run", "--store", store, *RUN_FLAGS, "--no-telemetry"]) == 0
    capsys.readouterr()
    assert cli.main(["profile", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "4 checkpointed, 0 with telemetry" in out
    assert "no events.jsonl in this store" in out


def test_profile_rejects_non_positive_top(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert cli.main(["run", "--store", store, *RUN_FLAGS]) == 0
    assert cli.main(["profile", "--store", store, "--top", "0"]) == 2
    assert "--top must be at least 1" in capsys.readouterr().err


def test_status_reports_dual_eta_and_the_event_stream(tmp_path, capsys):
    store = str(tmp_path / "store")
    rc = cli.main(
        ["run", "--store", store, *RUN_FLAGS, "--workers", "2", "--max-units", "3"]
    )
    assert rc == 3
    capsys.readouterr()
    assert cli.main(["status", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "3/4 complete" in out
    assert "serial ETA:" in out and "(1 units left)" in out
    assert "parallel ETA:" in out and "at 2 workers (manifest)" in out
    assert "events:" in out and "events.jsonl" in out
    assert f"profile:        python -m repro.campaign profile --store {store}" in out


def test_status_of_a_complete_campaign_omits_etas_but_keeps_events(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert cli.main(["run", "--store", store, *RUN_FLAGS]) == 0
    capsys.readouterr()
    assert cli.main(["status", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "4/4 complete" in out
    assert "ETA" not in out
    assert "events:" in out
