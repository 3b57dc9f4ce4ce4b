"""Work-unit planner: decompose a campaign into independent work units.

A *work unit* is one ``(scenario, utilization point)`` pair together with the
integer seed of its random stream.  Seeds are derived by child-stream
spawning from the campaign seed exactly as the serial sweep in
:mod:`repro.experiments.runner` derives its per-point generators, so
executing the units in any order — or in parallel across processes — yields
curves bit-identical to a serial :func:`~repro.experiments.runner.run_sweep`
with the same seed.

The planner also owns the *manifest*: a JSON-serialisable description of the
campaign (scenarios, sweep configuration, protocol names) whose hash guards
the on-disk store against mixing results from mismatched configurations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.dpcp_p import DpcpPEnTest, DpcpPEpTest
from ..analysis.fedfp import FedFpTest
from ..analysis.interfaces import SchedulabilityTest
from ..analysis.lpp import LppTest
from ..analysis.spin import SpinTest
from ..experiments.runner import SweepConfig
from ..experiments.scenarios import Scenario, figure2_scenarios, full_grid
from ..sim.validation import SimulationConfig
from ..utils.rng import ensure_rng, spawn_seeds

#: Version of the store layout / manifest schema.  Bumped on incompatible
#: changes so that old stores are rejected instead of silently misread.
#: Version 2: the DPCP-p analyses switched to the vectorized kernel engine
#: (PR 2); bounds can differ from the straight-line implementation at float
#: rounding level, so results must not be mixed with version-1 stores.
#: Version 3: SPIN and LPP switched to the compiled engine kernels (PR 3) —
#: the default baseline provenance changed (and SPIN dropped its dominated
#: off-path solve), so results must not be mixed with version-2 stores.
#: Version 4: campaigns gained a mode (``analyze`` | ``simulate``); the
#: manifest now carries ``mode`` (and, in simulate mode, the ``simulation``
#: config), both of which enter the config hash.
#: Version 5: the EP path enumeration keys on request codes alone (one
#: dominating row per code), so tasks that used to exceed the signature cap
#: and degrade to the EN bound now get their exact EP bound — DPCP-p-EP
#: verdicts changed, so results must not be mixed with version-4 stores.
FORMAT_VERSION = 5

#: Manifest version of *simulate-mode* stores.  Version 5: the simulator
#: became protocol-pluggable (SPIN and LPP joined
#: :data:`SIMULATABLE_PROTOCOLS`), validation rollups grew the
#: ``spin_exclusivity_violations`` counter, and each protocol now simulates
#: under its *own* runtime rules — simulate provenance changed, so resuming
#: a version-4 simulate store would mix incompatible evidence.  Analyze-mode
#: provenance is untouched: analyze stores stay on :data:`FORMAT_VERSION`
#: and old analyze stores still resume.  Version 6: the code-keyed EP
#: enumeration (analyze version 5) changed which task sets DPCP-p-EP
#: accepts, and with them the task sets simulate mode runs and their bounds.
SIMULATE_FORMAT_VERSION = 6

#: Campaign modes: ``analyze`` evaluates the schedulability tests only (the
#: Sec. VII acceptance-ratio experiments); ``simulate`` additionally runs
#: every analysis-accepted task set through the runtime simulator — under
#: the accepting protocol's own locking rules — and records
#: observed-vs-bound tightness plus invariant counters.
MODE_ANALYZE = "analyze"
MODE_SIMULATE = "simulate"
CAMPAIGN_MODES = (MODE_ANALYZE, MODE_SIMULATE)

#: Protocols whose accepted partitions the runtime simulator can execute.
#: The simulator implements the DPCP-p rules (Sec. III) plus the SPIN
#: (non-preemptive busy-wait) and LPP (local priority-ceiling semaphore)
#: baseline runtimes behind :class:`repro.sim.protocols.ProtocolBehavior`
#: strategies.  FED-FP ignores locking entirely — there are no runtime
#: rules to validate a bound against — so simulate-mode campaigns refuse
#: it by name instead of "validating" against the wrong runtime.
SIMULATABLE_PROTOCOLS = ("DPCP-p-EP", "DPCP-p-EN", "SPIN", "LPP")


def manifest_format_version(mode: str) -> int:
    """Store format version in force for ``mode``.

    Simulate-mode stores version independently of analyze-mode ones: a
    simulator-semantics change invalidates simulate evidence without
    touching analyze results (and vice versa), so each mode's stores are
    refused exactly when *their* provenance changed.
    """
    return SIMULATE_FORMAT_VERSION if mode == MODE_SIMULATE else FORMAT_VERSION

#: The single registry of the paper's protocol suite (Sec. VII-B): report
#: name → factory taking the EP path-signature cap.  Everything else —
#: :data:`KNOWN_PROTOCOLS`, :func:`repro.campaign.executor.build_protocols`,
#: :func:`repro.analysis.default_protocols` — derives from this mapping, so
#: adding or re-tuning a protocol is a one-place edit.
PROTOCOL_FACTORIES: Dict[str, Callable[[int], SchedulabilityTest]] = {
    "DPCP-p-EP": lambda cap: DpcpPEpTest(max_path_signatures=cap),
    "DPCP-p-EN": lambda cap: DpcpPEnTest(),
    "SPIN": lambda cap: SpinTest(),
    "LPP": lambda cap: LppTest(),
    "FED-FP": lambda cap: FedFpTest(),
}

#: Protocol names the campaign CLI can instantiate (insertion order is the
#: paper's table/figure order).
KNOWN_PROTOCOLS = tuple(PROTOCOL_FACTORIES)


@dataclass(frozen=True)
class WorkUnit:
    """One independently executable unit: a scenario at one utilization."""

    scenario: Scenario
    point_index: int
    utilization: float
    seed: int
    samples_per_point: int

    @property
    def unit_id(self) -> str:
        """Stable identifier used as the checkpoint key in the store."""
        return f"{self.scenario.scenario_id}:p{self.point_index:02d}"


@dataclass
class CampaignPlan:
    """A fully planned campaign: scenarios, config, and their work units."""

    scenarios: List[Scenario]
    config: SweepConfig
    protocol_names: List[str]
    units: List[WorkUnit] = field(default_factory=list)
    #: ``analyze`` or ``simulate`` (see :data:`CAMPAIGN_MODES`).
    mode: str = MODE_ANALYZE
    #: Simulation configuration; set exactly when ``mode == "simulate"``.
    sim_config: Optional[SimulationConfig] = None

    @property
    def unit_ids(self) -> List[str]:
        """Identifiers of every planned unit (plan order)."""
        return [unit.unit_id for unit in self.units]


def plan_scenario_units(scenario: Scenario, config: SweepConfig) -> List[WorkUnit]:
    """Decompose one scenario sweep into per-utilization-point work units.

    Seed derivation mirrors the serial sweep: the campaign seed spawns one
    child seed per utilization point, and each unit spawns its per-sample
    streams from its own seed at execution time.
    """
    points = scenario.utilization_points(config.utilization_step_fraction)
    if not points:
        raise ValueError(
            f"scenario {scenario.scenario_id} yields no utilization points "
            f"at step fraction {config.utilization_step_fraction}"
        )
    seeds = spawn_seeds(ensure_rng(config.seed), len(points))
    return [
        WorkUnit(
            scenario=scenario,
            point_index=index,
            utilization=utilization,
            seed=seeds[index],
            samples_per_point=config.samples_per_point,
        )
        for index, utilization in enumerate(points)
    ]


def plan_campaign(
    scenarios: Sequence[Scenario],
    config: Optional[SweepConfig] = None,
    protocol_names: Optional[Sequence[str]] = None,
    mode: str = MODE_ANALYZE,
    sim_config: Optional[SimulationConfig] = None,
) -> CampaignPlan:
    """Plan a campaign over ``scenarios`` (units in scenario-major order).

    With ``mode="simulate"`` every protocol must be simulatable (see
    :data:`SIMULATABLE_PROTOCOLS`), the default protocol suite shrinks to
    those, and ``sim_config`` (defaulting to :class:`SimulationConfig`)
    becomes part of the plan; with ``mode="analyze"`` a ``sim_config`` is
    refused so manifests never carry dead configuration.
    """
    if mode not in CAMPAIGN_MODES:
        raise ValueError(
            f"unknown campaign mode {mode!r}; expected one of {CAMPAIGN_MODES}"
        )
    config = config or SweepConfig()
    if protocol_names is not None:
        names = list(protocol_names)
    elif mode == MODE_SIMULATE:
        names = list(SIMULATABLE_PROTOCOLS)
    else:
        names = list(KNOWN_PROTOCOLS)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate protocol names in {names}")
    if mode == MODE_SIMULATE:
        unsimulatable = [n for n in names if n not in SIMULATABLE_PROTOCOLS]
        if unsimulatable:
            raise ValueError(
                f"protocol(s) {', '.join(unsimulatable)} cannot be simulated — "
                f"FED-FP ignores locking, so it has no runtime rules to "
                f"validate a bound against "
                f"(simulatable: {', '.join(SIMULATABLE_PROTOCOLS)})"
            )
        sim_config = sim_config or SimulationConfig()
    elif sim_config is not None:
        raise ValueError("sim_config is only meaningful with mode='simulate'")
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("campaign needs at least one scenario")
    seen: Dict[str, Scenario] = {}
    for scenario in scenarios:
        if scenario.scenario_id in seen:
            raise ValueError(f"duplicate scenario {scenario.scenario_id}")
        seen[scenario.scenario_id] = scenario
    units: List[WorkUnit] = []
    for scenario in scenarios:
        units.extend(plan_scenario_units(scenario, config))
    return CampaignPlan(
        scenarios=scenarios,
        config=config,
        protocol_names=names,
        units=units,
        mode=mode,
        sim_config=sim_config,
    )


def shard_units(
    units: Sequence[WorkUnit], index: int, count: int
) -> List[WorkUnit]:
    """The deterministic slice of ``units`` owned by shard ``index``/``count``.

    Round-robin by plan position (``units[index::count]``): every shard
    gets an interleaved, near-equal share of each scenario's utilization
    points, so the per-shard compute load is balanced even though low- and
    high-utilization points cost very different amounts of analysis.  The
    slice depends only on plan order — which is itself derived
    deterministically from the manifest — so any host can recompute its
    own shard (or a lost host's) from the manifest alone.
    """
    if count < 1:
        raise ValueError(f"shard count must be at least 1, got {count}")
    if not 0 <= index < count:
        raise ValueError(
            f"shard index must be in [0, {count}), got {index} "
            "(shards are 0-based: the first of N is 0/N)"
        )
    return list(units)[index::count]


# --------------------------------------------------------------------------- #
# Manifest (de)serialisation and hashing
# --------------------------------------------------------------------------- #
def scenario_to_dict(scenario: Scenario) -> dict:
    """JSON-serialisable description of a scenario."""
    return {
        "platform_size": scenario.platform_size,
        "resource_count_range": list(scenario.resource_count_range),
        "average_utilization": scenario.average_utilization,
        "access_probability": scenario.access_probability,
        "request_count_range": list(scenario.request_count_range),
        "cs_length_range": list(scenario.cs_length_range),
        "num_vertices_range": list(scenario.num_vertices_range),
        "edge_probability": scenario.edge_probability,
    }


def scenario_from_dict(data: dict) -> Scenario:
    """Rebuild a :class:`Scenario` from :func:`scenario_to_dict` output."""
    return Scenario(
        platform_size=int(data["platform_size"]),
        resource_count_range=tuple(data["resource_count_range"]),
        average_utilization=float(data["average_utilization"]),
        access_probability=float(data["access_probability"]),
        request_count_range=tuple(data["request_count_range"]),
        cs_length_range=tuple(data["cs_length_range"]),
        num_vertices_range=tuple(data["num_vertices_range"]),
        edge_probability=float(data["edge_probability"]),
    )


def config_to_dict(config: SweepConfig) -> dict:
    """JSON-serialisable description of a sweep configuration."""
    return {
        "samples_per_point": config.samples_per_point,
        "utilization_step_fraction": config.utilization_step_fraction,
        "max_path_signatures": config.max_path_signatures,
        "seed": config.seed,
    }


def config_from_dict(data: dict) -> SweepConfig:
    """Rebuild a :class:`SweepConfig` from :func:`config_to_dict` output."""
    return SweepConfig(
        samples_per_point=int(data["samples_per_point"]),
        utilization_step_fraction=float(data["utilization_step_fraction"]),
        max_path_signatures=int(data["max_path_signatures"]),
        seed=None if data["seed"] is None else int(data["seed"]),
    )


def config_hash(manifest: dict) -> str:
    """Hash of the configuration part of a manifest.

    Only the fields that determine the results enter the hash, so cosmetic
    manifest additions (timestamps, notes) never invalidate a store.
    """
    payload = {
        "format_version": manifest["format_version"],
        "scenarios": manifest["scenarios"],
        "sweep_config": manifest["sweep_config"],
        "protocols": manifest["protocols"],
        "mode": manifest["mode"],
        "simulation": manifest.get("simulation"),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def campaign_manifest(
    plan: CampaignPlan,
    workers: Optional[int] = None,
    shard: Optional[Tuple[int, int]] = None,
) -> dict:
    """Build the manifest persisted alongside a campaign's results.

    ``workers`` records the launch's worker-process count as a purely
    informational key (``status`` uses it for a parallel ETA).  ``shard``
    — an ``(index, count)`` pair — marks the store as holding one shard of
    the campaign grid.  Both are deliberately **outside**
    :func:`config_hash`: results are identical at any worker count, and
    every shard of a campaign shares one configuration, so ``campaign
    merge`` can verify shard stores belong together by comparing hashes.
    """
    if plan.config.seed is None:
        raise ValueError(
            "a persisted campaign requires a concrete seed (SweepConfig.seed "
            "is None); otherwise resumed runs could not reproduce the streams"
        )
    manifest = {
        "format_version": manifest_format_version(plan.mode),
        "scenarios": [scenario_to_dict(s) for s in plan.scenarios],
        "sweep_config": config_to_dict(plan.config),
        "protocols": list(plan.protocol_names),
        "mode": plan.mode,
        "total_units": len(plan.units),
    }
    if plan.sim_config is not None:
        manifest["simulation"] = plan.sim_config.to_dict()
    manifest["config_hash"] = config_hash(manifest)
    if workers is not None:
        manifest["workers"] = int(workers)
    if shard is not None:
        index, count = shard
        # Validate through shard_units so manifest and execution agree on
        # what a legal shard spec is.
        shard_units(plan.units, index, count)
        manifest["shard"] = {"index": int(index), "count": int(count)}
    return manifest


def manifest_shard(manifest: dict) -> Optional[Tuple[int, int]]:
    """The ``(index, count)`` shard spec of a manifest, or ``None``."""
    shard = manifest.get("shard")
    if shard is None:
        return None
    return int(shard["index"]), int(shard["count"])


def plan_from_manifest(manifest: dict) -> CampaignPlan:
    """Rebuild the full campaign plan (including unit seeds) from a manifest."""
    scenarios = [scenario_from_dict(d) for d in manifest["scenarios"]]
    config = config_from_dict(manifest["sweep_config"])
    mode = manifest["mode"]
    sim_config = (
        SimulationConfig.from_dict(manifest["simulation"])
        if manifest.get("simulation") is not None
        else None
    )
    return plan_campaign(
        scenarios, config, manifest["protocols"], mode=mode, sim_config=sim_config
    )


# --------------------------------------------------------------------------- #
# Scenario selection (grids and filter expressions)
# --------------------------------------------------------------------------- #
#: Filter keys understood by :func:`parse_filter` → scenario attribute.
FILTER_KEYS = {
    "m": "platform_size",
    "nr": "resource_count_range",
    "U": "average_utilization",
    "pr": "access_probability",
    "N": "request_count_range",
    "L": "cs_length_range",
}


def _parse_range(text: str) -> Tuple[float, float]:
    for separator in ("-", "_", ":"):
        if separator in text:
            low, high = text.split(separator, 1)
            return float(low), float(high)
    raise ValueError(f"expected a range like '4-8', got {text!r}")


def parse_filter(expression: str) -> dict:
    """Parse a filter expression like ``m=16,pr=0.5,nr=4-8``.

    Supported keys: ``m`` (platform size), ``nr`` (resource-count range),
    ``U`` (average utilization), ``pr`` (access probability), ``N``
    (request-count range, either the upper bound or ``lo-hi``), ``L``
    (critical-section length range ``lo-hi``).  Terms combine with AND.
    """
    criteria: dict = {}
    for term in expression.split(","):
        term = term.strip()
        if not term:
            continue
        if "=" not in term:
            raise ValueError(f"filter term {term!r} is not of the form key=value")
        key, value = (part.strip() for part in term.split("=", 1))
        if key not in FILTER_KEYS:
            raise ValueError(
                f"unknown filter key {key!r}; valid keys: {', '.join(FILTER_KEYS)}"
            )
        if key == "m":
            criteria[key] = int(value)
        elif key in ("U", "pr"):
            criteria[key] = float(value)
        elif key == "N" and "-" not in value and "_" not in value and ":" not in value:
            # Bare upper bound: N=50 matches any request range ending at 50.
            criteria[key] = int(value)
        else:
            criteria[key] = _parse_range(value)
    return criteria


def _matches(scenario: Scenario, criteria: dict) -> bool:
    for key, expected in criteria.items():
        actual = getattr(scenario, FILTER_KEYS[key])
        if key == "N" and isinstance(expected, int):
            if scenario.request_count_range[1] != expected:
                return False
        elif isinstance(expected, tuple):
            if tuple(float(v) for v in actual) != tuple(float(v) for v in expected):
                return False
        elif actual != expected:
            return False
    return True


def select_scenarios(
    scenarios: Sequence[Scenario], expression: Optional[str] = None
) -> List[Scenario]:
    """Scenarios matching a filter expression (all of them when ``None``)."""
    if not expression:
        return list(scenarios)
    criteria = parse_filter(expression)
    return [s for s in scenarios if _matches(s, criteria)]


def grid_scenarios(
    grid: str, num_vertices_range: Tuple[int, int] = (10, 100)
) -> List[Scenario]:
    """Named scenario grids exposed by the CLI (``full`` or ``fig2``)."""
    if grid == "full":
        return full_grid(num_vertices_range=num_vertices_range)
    if grid == "fig2":
        figures = figure2_scenarios(num_vertices_range=num_vertices_range)
        return [figures[key] for key in sorted(figures)]
    raise ValueError(f"unknown grid {grid!r}; expected 'full' or 'fig2'")
