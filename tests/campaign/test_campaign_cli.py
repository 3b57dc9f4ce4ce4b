"""End-to-end CLI tests: run, interrupt, resume, status, hash guard."""

from __future__ import annotations

import collections
import os

import pytest

from repro.campaign import cli, faultinject
from repro.campaign.executor import build_protocols
from repro.campaign.planner import plan_from_manifest, shard_units
from repro.campaign.store import CampaignStore, StoreView
from repro.experiments.runner import SweepConfig, run_sweep
from repro.experiments.scenarios import figure2_scenarios
from repro.report.aggregate import aggregate_store

#: A cheap 2-scenario campaign: the two m=16 Fig. 2 scenarios on tiny DAGs.
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


def results_lines(store):
    with open(os.path.join(store, "results.jsonl"), "rb") as handle:
        return handle.readlines()


def test_fault_plan_is_scoped_to_its_own_run(tmp_path):
    """`run --fault-plan` leaves no plan behind in the calling process: a
    later plain run in the same process executes fault-free."""
    spec = faultinject.FaultSpec(kind=faultinject.FAULT_RAISE, times=0)
    plan = faultinject.write_plan(
        faultinject.FaultPlan(faults=(spec,)), str(tmp_path / "plan.json")
    )
    before = os.environ.get(faultinject.ENV_VAR)
    faulted = str(tmp_path / "faulted")
    assert run_cli(
        "run", "--store", faulted, *RUN_FLAGS,
        "--fault-plan", plan, "--max-attempts", "1",
    ) == 3
    assert len(StoreView.open(faulted).unresolved) == TOTAL_UNITS

    clean = str(tmp_path / "clean")
    assert run_cli("run", "--store", clean, *RUN_FLAGS) == 0
    assert not StoreView.open(clean).unresolved
    assert len(results_lines(clean)) == TOTAL_UNITS
    assert os.environ.get(faultinject.ENV_VAR) == before


def test_run_interrupt_resume_leaves_finished_units_untouched(tmp_path, capsys):
    store = str(tmp_path / "store")

    # "Kill" the campaign after 3 of 4 units.
    assert run_cli("run", "--store", store, *RUN_FLAGS, "--max-units", "3") == 3
    checkpointed = results_lines(store)
    assert len(checkpointed) == 3

    assert run_cli("status", "--store", store) == 0
    assert "3/4 complete" in capsys.readouterr().out

    # Resume executes only the missing unit: the raw bytes (contents AND
    # completed_at timestamps) of the finished units' records are untouched.
    assert run_cli("resume", "--store", store, "--quiet") == 0
    final = results_lines(store)
    assert len(final) == TOTAL_UNITS
    assert final[:3] == checkpointed

    # Resuming a complete campaign executes nothing and rewrites nothing.
    assert run_cli("resume", "--store", store, "--quiet") == 0
    assert results_lines(store) == final


def test_parallel_cli_run_is_bit_identical_to_serial_run_sweep(tmp_path):
    store = str(tmp_path / "store")
    assert run_cli("run", "--store", store, *RUN_FLAGS, "--workers", "4") == 0

    [loaded_a, loaded_c] = aggregate_store(store).complete_results()
    config = SweepConfig(
        samples_per_point=2,
        utilization_step_fraction=0.5,
        seed=2020,
    )
    figures = figure2_scenarios(num_vertices_range=(5, 8))
    for loaded, key in ((loaded_a, "a"), (loaded_c, "c")):
        serial = run_sweep(
            figures[key], protocols=build_protocols(["SPIN", "FED-FP"]), config=config
        )
        assert loaded.scenario == serial.scenario
        for name in ("SPIN", "FED-FP"):
            assert loaded.curves[name].utilizations == serial.curves[name].utilizations
            assert loaded.curves[name].accepted == serial.curves[name].accepted
            assert loaded.curves[name].sampled == serial.curves[name].sampled
            assert (
                loaded.curves[name].generation_failures
                == serial.curves[name].generation_failures
            )


def test_rerun_with_mismatched_config_is_refused(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert run_cli("run", "--store", store, *RUN_FLAGS, "--max-units", "1") == 3
    mismatched = [flag if flag != "2" else "5" for flag in RUN_FLAGS]
    assert run_cli("run", "--store", store, *mismatched) == 2
    assert "different campaign configuration" in capsys.readouterr().err
    # The original configuration still resumes fine.
    assert run_cli("run", "--store", store, *RUN_FLAGS) == 0


def test_status_of_a_quarantined_shard_store(tmp_path, capsys):
    """Pins every section of `status` on a shard store with a quarantined
    unit and recovery events."""
    store = str(tmp_path / "store")
    shard_flags = [*RUN_FLAGS, "--shard", "0/2"]
    assert run_cli("run", "--store", store, *shard_flags, "--max-units", "0") == 3
    plan = plan_from_manifest(CampaignStore(store).read_manifest())
    victim = shard_units(plan.units, 0, 2)[0]
    spec = faultinject.FaultSpec(
        kind=faultinject.FAULT_RAISE, times=0, unit_ids=(victim.unit_id,)
    )
    fault_plan = faultinject.write_plan(
        faultinject.FaultPlan(faults=(spec,)), str(tmp_path / "plan.json")
    )
    assert run_cli(
        "run", "--store", store, *shard_flags,
        "--fault-plan", fault_plan, "--max-attempts", "1",
    ) == 3
    capsys.readouterr()

    assert run_cli("status", "--store", store) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "shard:          0/2 (2 of 4 planned units)" in lines
    assert "units:          1/2 complete (50.0%)" in lines
    assert (
        "quarantined:    1 unit(s) (1× FaultInjected) — resume retries them"
        in lines
    )
    assert (
        "events:         9 in events.jsonl (1 unit completions, last seq 8)"
        in lines
    )
    assert (
        "recovery:       0 pool crash(es), 0 unit retry(ies), 1 quarantine(s)"
        in lines
    )
    assert "incomplete scenarios (1):" in lines
    assert f"  {victim.scenario.scenario_id}: 0/1" in lines


@pytest.fixture
def store_parses(monkeypatch):
    """Counts `CampaignStore.iter_records` calls per file name."""
    counts = collections.Counter()
    iter_records = CampaignStore.iter_records

    def counting(self, path=None):
        counts[os.path.basename(path or self.results_path)] += 1
        return iter_records(self, path)

    monkeypatch.setattr(CampaignStore, "iter_records", counting)
    return counts


@pytest.mark.parametrize("command", ["run", "resume", "status", "report", "profile"])
def test_each_command_parses_the_store_files_at_most_once(
    command, tmp_path, store_parses
):
    store = str(tmp_path / "store")
    if command == "run":
        argv = ["run", "--store", store, *RUN_FLAGS]
    else:
        assert run_cli("run", "--store", store, *RUN_FLAGS, "--max-units", "2") == 3
        store_parses.clear()
        argv = {
            "resume": ["resume", "--store", store, "--quiet"],
            "status": ["status", "--store", store],
            "report": ["report", "--store", store, "--out", str(tmp_path / "out")],
            "profile": ["profile", "--store", store],
        }[command]
    assert run_cli(*argv) in (0, 3)
    assert store_parses["results.jsonl"] == 1
    assert store_parses["quarantine.jsonl"] <= 1


def test_status_of_missing_store_fails_cleanly(tmp_path, capsys):
    assert run_cli("status", "--store", str(tmp_path / "nope")) == 2
    assert "holds no campaign" in capsys.readouterr().err


def test_profile_of_missing_store_fails_cleanly(tmp_path, capsys):
    assert run_cli("profile", "--store", str(tmp_path / "nope")) == 2
    assert "holds no campaign" in capsys.readouterr().err


def test_cli_rejects_bad_arguments(tmp_path):
    with pytest.raises(SystemExit):
        run_cli("run", "--store", str(tmp_path), "--vertices", "oops")
    with pytest.raises(SystemExit):
        run_cli("run", "--store", str(tmp_path), "--protocols", "NOPE")
    assert (
        run_cli("run", "--store", str(tmp_path / "s"), *RUN_FLAGS, "--filter", "m=99")
        == 2
    )


def test_cli_rejects_duplicate_protocols_and_bad_step(tmp_path):
    with pytest.raises(SystemExit):
        run_cli("run", "--store", str(tmp_path / "s"), "--protocols", "SPIN,SPIN")
    # step <= 0 would loop forever in the planner; SweepConfig refuses it.
    assert (
        run_cli("run", "--store", str(tmp_path / "s"), *RUN_FLAGS, "--step", "0")
        == 2
    )


def test_cli_rejects_non_positive_limit(tmp_path):
    assert (
        run_cli("run", "--store", str(tmp_path / "s"), *RUN_FLAGS, "--limit", "-1")
        == 2
    )


def test_cli_simulate_mode_names_the_unsimulatable_protocol(tmp_path, capsys):
    # FED-FP is the only protocol left without runtime locking rules; the
    # simulate-mode rejection must name it (and only it) — SPIN and LPP
    # are part of the simulatable suite since the ProtocolBehavior refactor.
    flags = ["--grid", "fig2", "--filter", "m=16", "--samples", "1",
             "--step", "0.5", "--vertices", "5,8", "--seed", "2020",
             "--quiet", "--mode", "simulate"]
    code = run_cli("run", "--store", str(tmp_path / "s"), *flags,
                   "--protocols", "LPP,FED-FP")
    assert code == 2
    err = capsys.readouterr().err
    assert "FED-FP cannot be simulated" in err
    assert "LPP cannot" not in err
    assert "simulatable: DPCP-p-EP, DPCP-p-EN, SPIN, LPP" in err
