"""A daemon campaign job writes the store ``campaign run`` writes.

One fixed-seed campaign that includes DPCP-p-EP runs twice — as a daemon
campaign job and as ``campaign run`` with the same flags — and the two
stores must render byte-identical reports, profile to the same counters
and histograms, and each carry their own ``events.jsonl``.
"""

from __future__ import annotations

import json
import os

from repro.campaign import cli
from repro.campaign.planner import (
    config_to_dict,
    grid_scenarios,
    scenario_to_dict,
    select_scenarios,
)
from repro.experiments.runner import SweepConfig
from repro.obs.sink import events_path, iter_event_records
from repro.service import SubmitCampaign

#: The campaign as ``campaign run`` flags (4 work units).
RUN_FLAGS = [
    "--grid", "fig2",
    "--filter", "m=16",
    "--vertices", "5,8",
    "--step", "0.5",
    "--samples", "2",
    "--seed", "2020",
    "--protocols", "DPCP-p-EP,SPIN",
]


def _submission() -> SubmitCampaign:
    """The same campaign as a service submission."""
    scenarios = select_scenarios(
        grid_scenarios("fig2", num_vertices_range=(5, 8)), "m=16"
    )
    sweep = SweepConfig(
        samples_per_point=2, utilization_step_fraction=0.5, seed=2020
    )
    return SubmitCampaign(
        scenarios=tuple(scenario_to_dict(s) for s in scenarios),
        sweep=config_to_dict(sweep),
        protocols=("DPCP-p-EP", "SPIN"),
    )


def _event_types(directory):
    return [
        record.get("type")
        for record, _ in iter_event_records(events_path(directory))
    ]


def _report(store, out):
    """REPORT.md and report.html bytes of a ``campaign report`` render."""
    assert cli.main(["report", "--store", store, "--out", out]) == 0
    documents = {}
    for name in ("REPORT.md", "report.html"):
        with open(os.path.join(out, name), "rb") as handle:
            documents[name] = handle.read()
    return documents


def _profile_telemetry(store, capsys):
    """Counters and histograms of ``campaign profile --json``."""
    capsys.readouterr()
    assert cli.main(["profile", "--store", store, "--json"]) == 0
    telemetry = json.loads(capsys.readouterr().out)["telemetry"]
    return telemetry["counters"], telemetry["histograms"]


def test_daemon_campaign_job_writes_the_cli_store(
    daemon, connect, tmp_path, capsys
):
    _, ready = connect().campaign(_submission())
    assert ready.exit_code == 0
    job_store = ready.result["store_directory"]
    cli_store = str(tmp_path / "cli-store")
    assert cli.main(["run", "--store", cli_store, *RUN_FLAGS, "--quiet"]) == 0
    with open(os.path.join(cli_store, "manifest.json")) as handle:
        assert json.load(handle)["config_hash"] == ready.result["config_hash"]

    job_report = _report(job_store, str(tmp_path / "job-report"))
    cli_report = _report(cli_store, str(tmp_path / "cli-report"))
    assert job_report == cli_report

    job_counters, job_histograms = _profile_telemetry(job_store, capsys)
    cli_counters, cli_histograms = _profile_telemetry(cli_store, capsys)
    assert job_counters, "the job store recorded no telemetry counters"
    assert job_counters == cli_counters
    assert job_histograms == cli_histograms

    # The job's campaign events live in its store; the service stream
    # keeps only the service lifecycle.
    job_events = _event_types(job_store)
    assert job_events[0] == "campaign_started"
    assert job_events[-1] == "campaign_finished"
    assert "unit_telemetry" in job_events
    assert set(_event_types(daemon.data_dir)) == {
        "service_started",
        "job_admitted",
        "job_finished",
    }
