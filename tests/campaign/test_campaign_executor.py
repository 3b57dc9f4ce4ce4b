"""Executor tests: parallel/serial determinism, checkpointing, assembly."""

from __future__ import annotations

import pytest

from repro.analysis import DpcpPEnTest, FedFpTest, SpinTest
from repro.campaign.executor import (
    UnitResult,
    assemble_sweep,
    build_protocols,
    execute_units,
)
from repro.campaign.planner import campaign_manifest, plan_campaign
from repro.campaign.store import CampaignStore
from repro.experiments.runner import SweepConfig, run_campaign, run_sweep
from repro.experiments.scenarios import Scenario


@pytest.fixture(scope="module")
def scenarios():
    base = Scenario(
        platform_size=8,
        resource_count_range=(2, 3),
        average_utilization=1.5,
        access_probability=0.5,
        request_count_range=(1, 5),
        cs_length_range=(15.0, 50.0),
        num_vertices_range=(6, 10),
    )
    from dataclasses import replace

    return [base, replace(base, access_probability=0.75)]


@pytest.fixture(scope="module")
def config():
    return SweepConfig(samples_per_point=3, utilization_step_fraction=0.25, seed=7)


def protocols():
    return [DpcpPEnTest(), SpinTest(), FedFpTest()]


def curves_of(sweep):
    return {
        name: (
            curve.utilizations,
            curve.accepted,
            curve.sampled,
            curve.generation_failures,
        )
        for name, curve in sweep.curves.items()
    }


def test_workers1_matches_serial_run_sweep(scenarios, config):
    serial = run_sweep(scenarios[0], protocols=protocols(), config=config)
    plan = plan_campaign([scenarios[0]], config, [t.name for t in protocols()])
    results = execute_units(plan.units, protocols(), workers=1)
    assembled = assemble_sweep(scenarios[0], plan.protocol_names, results)
    assert curves_of(assembled) == curves_of(serial)


def test_workers4_is_bit_identical_to_workers1(scenarios, config):
    names = [t.name for t in protocols()]
    plan = plan_campaign(scenarios, config, names)
    serial = execute_units(plan.units, protocols(), workers=1)
    parallel = execute_units(plan.units, protocols(), workers=4, chunk_size=1)

    def payload(result):
        record = result.to_record()
        del record["elapsed_seconds"]  # wall-clock metadata, not results
        return record

    assert [payload(r) for r in serial] == [payload(r) for r in parallel]
    for scenario in scenarios:
        a, b = (
            assemble_sweep(
                scenario,
                names,
                [r for r in results if r.scenario_id == scenario.scenario_id],
            )
            for results in (serial, parallel)
        )
        assert curves_of(a) == curves_of(b)


def test_store_checkpoints_and_skips_finished_units(scenarios, config, tmp_path):
    plan = plan_campaign(scenarios, config, ["SPIN", "FED-FP"])
    tests = build_protocols(plan.protocol_names)
    store = CampaignStore(str(tmp_path))
    store.initialize(campaign_manifest(plan))

    partial = execute_units(plan.units, tests, store=store, max_units=3)
    assert len(partial) == 3
    assert len(store.load_records()) == 3

    progressed = []
    complete = execute_units(
        plan.units,
        tests,
        store=store,
        progress=lambda done, total, result: progressed.append(result),
    )
    assert len(complete) == len(plan.units)
    # The first progress call restores the checkpointed units in bulk
    # (result=None); only the remaining units were actually executed.
    assert progressed[0] is None
    assert len([r for r in progressed if r is not None]) == len(plan.units) - 3
    assert len(store.load_records()) == len(plan.units)


def test_unit_result_record_roundtrip():
    result = UnitResult(
        unit_id="s:p00",
        scenario_id="s",
        point_index=0,
        utilization=2.0,
        accepted={"SPIN": 1},
        evaluated=3,
        generation_failures=1,
        elapsed_seconds=0.25,
    )
    assert UnitResult.from_record(result.to_record()) == result


def test_build_protocols_rejects_unknown_names():
    with pytest.raises(ValueError):
        build_protocols(["SPIN", "NOPE"])


def test_duplicate_protocols_are_refused(scenarios, config):
    """Duplicate names would double-count into one accepted slot."""
    with pytest.raises(ValueError, match="duplicate"):
        build_protocols(["SPIN", "SPIN"])
    plan = plan_campaign([scenarios[0]], config, ["SPIN"])
    with pytest.raises(ValueError, match="duplicate"):
        execute_units(plan.units, [SpinTest(), SpinTest()])
    with pytest.raises(ValueError, match="duplicate"):
        plan_campaign([scenarios[0]], config, ["SPIN", "SPIN"])


def test_negative_max_units_and_chunk_size_are_refused(scenarios, config):
    plan = plan_campaign([scenarios[0]], config, ["SPIN"])
    with pytest.raises(ValueError, match="max_units"):
        execute_units(plan.units, build_protocols(["SPIN"]), max_units=-3)
    with pytest.raises(ValueError, match="chunk_size"):
        execute_units(plan.units, build_protocols(["SPIN"]), chunk_size=0)


def test_run_campaign_returns_independent_sweeps_for_duplicate_scenarios(
    scenarios, config
):
    duplicated = [scenarios[0], scenarios[0]]
    first, second = run_campaign(duplicated, protocols=protocols(), config=config)
    assert first is not second
    assert curves_of(first) == curves_of(second)
