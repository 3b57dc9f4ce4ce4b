"""Simulate-mode campaign tests: planning, execution, budgets, resume."""

from __future__ import annotations

import json

import pytest

from repro.campaign import cli
from repro.campaign.executor import (
    UnitResult,
    build_protocols,
    execute_unit,
    plan_runner,
)
from repro.campaign.planner import (
    MODE_ANALYZE,
    MODE_SIMULATE,
    SIMULATABLE_PROTOCOLS,
    campaign_manifest,
    plan_campaign,
    plan_from_manifest,
    plan_scenario_units,
)
from repro.experiments.runner import SweepConfig
from repro.experiments.scenarios import figure2_scenarios
from repro.sim.validation import SimulationConfig

#: One cheap scenario for executor-level tests (tiny DAGs, coarse sweep).
SCENARIO = figure2_scenarios(num_vertices_range=(5, 8))["a"]
SWEEP = SweepConfig(samples_per_point=2, utilization_step_fraction=0.25, seed=2020)

#: CLI flags of the one-scenario simulate campaign used below (4 units).
SUBSET_FLAGS = [
    "--mode", "simulate",
    "--grid", "fig2",
    "--filter", "m=16,U=1.5",
    "--samples", "2",
    "--step", "0.25",
    "--vertices", "5,8",
    "--seed", "2020",
    "--sim-max-events", "150000",
    "--quiet",
]


def _strip_volatile(path):
    """Store records without their timing/timestamp fields, in unit order."""
    records = {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            record.pop("completed_at", None)
            record.pop("elapsed_seconds", None)
            records[record["unit_id"]] = record
    return dict(sorted(records.items()))


# --------------------------------------------------------------------------- #
# Planning
# --------------------------------------------------------------------------- #
def test_simulate_mode_defaults_to_the_simulatable_suite():
    plan = plan_campaign([SCENARIO], SWEEP, mode=MODE_SIMULATE)
    assert tuple(plan.protocol_names) == SIMULATABLE_PROTOCOLS
    assert set(SIMULATABLE_PROTOCOLS) == {"DPCP-p-EP", "DPCP-p-EN", "SPIN", "LPP"}
    assert plan.sim_config == SimulationConfig()


def test_simulate_mode_refuses_unsimulatable_protocols():
    # FED-FP is the only remaining protocol without runtime rules; the
    # error names the offender, not just the acceptable list.
    with pytest.raises(ValueError, match="FED-FP cannot be simulated"):
        plan_campaign([SCENARIO], SWEEP, ["DPCP-p-EP", "FED-FP"], mode=MODE_SIMULATE)


def test_simulate_mode_accepts_the_spin_and_lpp_baselines():
    plan = plan_campaign(
        [SCENARIO], SWEEP, ["DPCP-p-EP", "DPCP-p-EN", "SPIN", "LPP"],
        mode=MODE_SIMULATE,
    )
    assert plan.protocol_names == ["DPCP-p-EP", "DPCP-p-EN", "SPIN", "LPP"]


def test_analyze_mode_refuses_a_simulation_config():
    with pytest.raises(ValueError, match="only meaningful"):
        plan_campaign([SCENARIO], SWEEP, sim_config=SimulationConfig())


def test_unknown_mode_is_refused():
    with pytest.raises(ValueError, match="unknown campaign mode"):
        plan_campaign([SCENARIO], SWEEP, mode="replay")


def test_manifest_round_trips_mode_and_simulation_config():
    sim_config = SimulationConfig(hyperperiods=3, max_events=777)
    plan = plan_campaign([SCENARIO], SWEEP, mode=MODE_SIMULATE, sim_config=sim_config)
    manifest = campaign_manifest(plan)
    assert manifest["mode"] == MODE_SIMULATE
    rebuilt = plan_from_manifest(manifest)
    assert rebuilt.mode == MODE_SIMULATE
    assert rebuilt.sim_config == sim_config
    assert campaign_manifest(rebuilt)["config_hash"] == manifest["config_hash"]


def test_mode_and_simulation_config_enter_the_config_hash():
    analyze = campaign_manifest(plan_campaign([SCENARIO], SWEEP, ["DPCP-p-EP"]))
    simulate = campaign_manifest(
        plan_campaign([SCENARIO], SWEEP, ["DPCP-p-EP"], mode=MODE_SIMULATE)
    )
    retuned = campaign_manifest(
        plan_campaign(
            [SCENARIO], SWEEP, ["DPCP-p-EP"], mode=MODE_SIMULATE,
            sim_config=SimulationConfig(hyperperiods=4),
        )
    )
    hashes = {m["config_hash"] for m in (analyze, simulate, retuned)}
    assert len(hashes) == 3


def test_plan_runner_matches_the_mode():
    analyze = plan_campaign([SCENARIO], SWEEP, ["DPCP-p-EP"])
    simulate = plan_campaign([SCENARIO], SWEEP, ["DPCP-p-EP"], mode=MODE_SIMULATE)
    assert plan_runner(analyze) is execute_unit
    partial = plan_runner(simulate)
    assert partial.func is execute_unit
    assert partial.keywords == {
        "sim_config": simulate.sim_config,
        "telemetry": False,
    }


# --------------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------------- #
def test_simulation_unit_respects_the_event_budget():
    # A budget far below one run's event count: every accepted task set
    # must come back truncated — quickly, not after a multi-second run.
    unit = plan_scenario_units(SCENARIO, SWEEP)[0]
    protocols = build_protocols(["DPCP-p-EP"])
    result = execute_unit(unit, protocols, SimulationConfig(max_events=50))
    rollup = result.simulation["DPCP-p-EP"]
    assert result.accepted["DPCP-p-EP"] == rollup.simulated > 0
    assert rollup.truncated == rollup.simulated
    assert rollup.rule_failures == 0
    assert rollup.events <= rollup.simulated * (50 + 512)


def test_simulation_unit_record_round_trips():
    unit = plan_scenario_units(SCENARIO, SWEEP)[0]
    protocols = build_protocols(["DPCP-p-EP"])
    result = execute_unit(unit, protocols, SimulationConfig(max_events=50))
    record = result.to_record()
    rebuilt = UnitResult.from_record(json.loads(json.dumps(record)))
    assert rebuilt.to_record() == {
        k: v for k, v in record.items() if k != "completed_at"
    }
    assert rebuilt.simulation["DPCP-p-EP"].truncated > 0


def test_simulation_unit_acceptance_matches_the_analyze_runner():
    # Simulate mode must not change the acceptance counts: same seeds, same
    # analysis path, only extra validation on top.
    unit = plan_scenario_units(SCENARIO, SWEEP)[0]
    protocols = build_protocols(["DPCP-p-EP", "DPCP-p-EN"])
    analyzed = execute_unit(unit, protocols)
    assert analyzed.simulation is None
    simulated = execute_unit(
        unit, build_protocols(["DPCP-p-EP", "DPCP-p-EN"]),
        SimulationConfig(max_events=50),
    )
    assert simulated.accepted == analyzed.accepted
    assert simulated.evaluated == analyzed.evaluated
    assert simulated.generation_failures == analyzed.generation_failures


# --------------------------------------------------------------------------- #
# CLI: parallel determinism and resume from a killed store
# --------------------------------------------------------------------------- #
def test_simulate_campaign_is_parallel_deterministic_and_resumable(tmp_path):
    serial = str(tmp_path / "serial")
    assert cli.main(["run", "--store", serial, *SUBSET_FLAGS]) == 0

    # Kill the campaign after 2 of 4 units, then resume with 2 workers.
    resumed = str(tmp_path / "resumed")
    assert cli.main(["run", "--store", resumed, *SUBSET_FLAGS,
                     "--max-units", "2"]) == 3
    assert len(_strip_volatile(f"{resumed}/results.jsonl")) == 2
    assert cli.main(["resume", "--store", resumed, "--workers", "2",
                     "--quiet"]) == 0

    assert _strip_volatile(f"{serial}/results.jsonl") == _strip_volatile(
        f"{resumed}/results.jsonl"
    )


def test_cli_refuses_unsimulatable_protocols(tmp_path, capsys):
    store = str(tmp_path / "store")
    code = cli.main(["run", "--store", store, *SUBSET_FLAGS,
                     "--protocols", "SPIN,FED-FP"])
    assert code == 2
    err = capsys.readouterr().err
    assert "FED-FP cannot be simulated" in err
    # SPIN is simulatable now — only the offender is named.
    assert "SPIN cannot" not in err
