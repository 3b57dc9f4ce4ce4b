"""Shared fixtures for the reporting tests: one tiny fixed-seed campaign."""

from __future__ import annotations

import pytest

from repro.campaign import cli, faultinject
from repro.campaign.store import CampaignStore

#: Flags of the deterministic reporting fixture campaign: the two m=16
#: Fig. 2 scenarios on tiny DAGs, SPIN + FED-FP only — cheap, but with at
#: least one generation failure so NaN handling is exercised end to end.
CAMPAIGN_FLAGS = [
    "--grid", "fig2",
    "--filter", "m=16",
    "--samples", "2",
    "--step", "0.5",
    "--vertices", "5,8",
    "--protocols", "SPIN,FED-FP",
    "--seed", "2020",
    "--quiet",
]

#: 2 scenarios x 2 utilization points.
CAMPAIGN_UNITS = 4

#: Flags of the deterministic *simulate-mode* fixture campaign: all four
#: Fig. 2 scenarios (x 4 utilization points) on tiny DAGs, the full
#: simulatable suite (no ``--protocols`` — the default covers DPCP-p
#: EP/EN, SPIN and LPP), and an event budget small enough that one run
#: truncates (exercising that path deterministically — wall-clock budgets
#: would not be reproducible).
SIM_CAMPAIGN_FLAGS = [
    "--mode", "simulate",
    "--grid", "fig2",
    "--samples", "2",
    "--step", "0.25",
    "--vertices", "5,8",
    "--seed", "2020",
    "--sim-max-events", "150000",
    "--quiet",
]


def _run_campaign(store: str, *extra: str) -> int:
    return cli.main(["run", "--store", store, *CAMPAIGN_FLAGS, *extra])


@pytest.fixture
def run_campaign():
    """Run the fixture campaign into a store (extra flags appended)."""
    return _run_campaign


@pytest.fixture(scope="session")
def finished_store(tmp_path_factory) -> str:
    """A completed fixture campaign store (session-scoped, read-only).

    Tests that mutate the store (appended lines, resumes) must copy it or run
    their own campaign instead.
    """
    store = str(tmp_path_factory.mktemp("report-fixture") / "store")
    assert _run_campaign(store) == 0
    return store


@pytest.fixture(scope="session")
def simulate_store(tmp_path_factory) -> str:
    """A completed simulate-mode fixture campaign (session-scoped, read-only).

    Four scenarios, fixed seed, event-budget truncation only — the store
    (and everything rendered from it) is byte-deterministic.
    """
    store = str(tmp_path_factory.mktemp("simulate-fixture") / "store")
    assert cli.main(["run", "--store", store, *SIM_CAMPAIGN_FLAGS]) == 0
    return store


@pytest.fixture(scope="session")
def faulted_store(tmp_path_factory, finished_store) -> str:
    """The fixture campaign with two units quarantined (session-scoped, read-only).

    A ``raise`` fault plan pins the first and last unit and ``--max-attempts
    1`` quarantines them at once, so the store holds half of each scenario
    and two quarantine records.
    """
    root = tmp_path_factory.mktemp("faulted-fixture")
    unit_ids = list(CampaignStore(finished_store).load_records())
    spec = faultinject.FaultSpec(
        kind=faultinject.FAULT_RAISE, times=0, unit_ids=(unit_ids[0], unit_ids[-1])
    )
    plan = faultinject.write_plan(
        faultinject.FaultPlan(faults=(spec,)), str(root / "plan.json")
    )
    store = str(root / "store")
    assert _run_campaign(store, "--fault-plan", plan, "--max-attempts", "1") == 3
    return store
