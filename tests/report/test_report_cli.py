"""CLI tests for ``python -m repro.campaign report``."""

from __future__ import annotations

import json
import os
import shutil

from repro.campaign import cli
from repro.campaign.store import CampaignStore
from repro.report.aggregate import aggregate_store


def run_cli(*argv):
    return cli.main(list(argv))


def test_report_renders_bundle_with_zero_reruns(finished_store, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run_cli("report", "--store", finished_store, "--out", out) == 0
    stdout = capsys.readouterr().out
    assert "2 scenario series + REPORT.md + report.html" in stdout
    assert sorted(os.listdir(out)) == ["REPORT.md", "report.html", "series"]
    assert len(os.listdir(os.path.join(out, "series"))) == 2
    with open(os.path.join(out, "REPORT.md")) as handle:
        report_md = handle.read()
    assert "# Campaign report" in report_md
    assert "Table 2. Statistic for Dominance" in report_md
    assert "Table 3. Statistic for Outperformance" in report_md


def test_report_defaults_to_store_subdirectory(tmp_path, run_campaign, capsys):
    store = str(tmp_path / "store")
    assert run_campaign(store) == 0
    assert run_cli("report", "--store", store) == 0
    capsys.readouterr()
    assert os.path.isfile(os.path.join(store, "report", "report.html"))


def _snapshot(directory):
    """Every file under ``directory``, by relative path, with its bytes."""
    files = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, directory)] = handle.read()
    return files


def test_report_leaves_the_store_untouched_and_first_record_wins(
    finished_store, tmp_path, capsys
):
    store = str(tmp_path / "store")
    shutil.copytree(finished_store, store)
    results = os.path.join(store, "results.jsonl")
    with open(results) as handle:
        first = json.loads(handle.readline())
    # A later duplicate of the first unit (it must lose), a malformed
    # line, and the torn tail of a killed writer.
    duplicate = dict(
        first,
        evaluated=first["evaluated"] + 7,
        accepted={name: first["evaluated"] + 7 for name in first["accepted"]},
    )
    with open(results, "a") as handle:
        handle.write(json.dumps(duplicate) + "\n")
        handle.write("{not json\n")
        handle.write('{"unit_id": "torn')
    before = _snapshot(store)

    out = str(tmp_path / "out")
    assert run_cli("report", "--store", store, "--out", out) == 0
    capsys.readouterr()
    assert _snapshot(store) == before  # the bundle went to --out only

    records = CampaignStore(store).load_records()
    assert records[first["unit_id"]] == first
    aggregate = aggregate_store(store)
    reports = {report.scenario.scenario_id: report for report in aggregate.scenarios}
    assert aggregate.completed_units == len(records)
    for record in records.values():
        index = record["point_index"]
        sweep = reports[record["scenario_id"]].sweep
        for name in aggregate.protocols:
            curve = sweep.curves[name]
            assert curve.utilizations[index] == record["utilization"]
            assert curve.accepted[index] == record["accepted"][name]
            assert curve.sampled[index] == record["evaluated"]
            assert (
                curve.generation_failures[index] == record["generation_failures"]
            )


def test_report_on_partial_store_is_watch_friendly(tmp_path, run_campaign, capsys):
    store = str(tmp_path / "store")
    out = str(tmp_path / "out")
    assert run_campaign(store, "--max-units", "3") == 3

    # Incomplete campaign: partial report, exit code 3 (poll again later).
    assert run_cli("report", "--store", store, "--out", out) == 3
    stdout = capsys.readouterr().out
    assert "campaign incomplete" in stdout
    assert "1 scenario series" in stdout

    # --strict refuses instead.
    assert run_cli("report", "--store", store, "--out", out, "--strict") == 2
    assert "campaign incomplete" in capsys.readouterr().err

    # After resuming, the same invocation converges to 0.
    assert run_cli("resume", "--store", store, "--quiet") == 0
    assert run_cli("report", "--store", store, "--out", out) == 0


def test_report_protocol_restriction_and_validation(finished_store, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert (
        run_cli(
            "report", "--store", finished_store, "--out", out,
            "--protocols", "FED-FP",
        )
        == 0
    )
    capsys.readouterr()
    series = os.listdir(os.path.join(out, "series"))[0]
    with open(os.path.join(out, "series", series)) as handle:
        header = handle.readline().strip()
    assert header == "utilization,normalized_utilization,FED-FP,generation_failures"

    # A protocol the campaign never ran is refused with a clear error.
    assert (
        run_cli(
            "report", "--store", finished_store, "--out", out,
            "--protocols", "LPP",
        )
        == 2
    )
    assert "LPP were not part of this campaign" in capsys.readouterr().err


def test_report_rejects_foreign_protocols_even_on_an_empty_store(
    tmp_path, run_campaign, capsys
):
    # The refusal must not depend on how far the campaign got — a watch
    # loop polling on exit codes needs the signal to be stable.
    store = str(tmp_path / "store")
    assert run_campaign(store, "--max-units", "0") == 3
    assert run_cli("report", "--store", store, "--protocols", "LPP") == 2
    assert "LPP were not part of this campaign" in capsys.readouterr().err


def test_report_rejects_an_empty_protocol_list(finished_store, tmp_path):
    import pytest

    with pytest.raises(SystemExit):  # argparse refuses --protocols ""
        run_cli("report", "--store", finished_store, "--protocols", "")


def test_report_of_missing_store_fails_cleanly(tmp_path, capsys):
    assert run_cli("report", "--store", str(tmp_path / "nope")) == 2
    assert "holds no campaign" in capsys.readouterr().err
