"""Command-line interface of the campaign engine.

::

    python -m repro.campaign run    --store DIR [selection/config options]
    python -m repro.campaign resume --store DIR [--workers N]
    python -m repro.campaign status --store DIR
    python -m repro.campaign merge  --into DIR SHARD_DIR [SHARD_DIR ...]
    python -m repro.campaign report --store DIR [--out DIR]
    python -m repro.campaign export --store DIR [--out DIR]

``run`` plans a campaign, writes the manifest, and executes it; re-running
against an existing store with the same configuration simply resumes it,
while a mismatched configuration is refused.  ``run --mode simulate``
additionally pushes every analysis-accepted task set through the DPCP-p
runtime simulator (bound-tightness / invariant validation; see
``docs/validation.md``).  ``run --shard I/N`` executes the deterministic
I-th slice of the work-unit grid into its own store (one directory per
shard, possibly one host per shard); ``merge`` recombines any set of
partial shard stores into one store the other commands consume unchanged.
``resume`` needs no configuration flags at all — everything is recovered
from the manifest.  ``report`` renders the full deliverable bundle
(``REPORT.md``, ``report.html``, per-scenario CSVs) from the store through
the cached reporting aggregator — zero analysis re-runs.  Exit codes are
watch-friendly: 0 = complete report, 3 = incomplete campaign or
quarantined units (partial report written; poll/resume and re-run),
2 = error.  Fault handling — per-unit retry/quarantine, pool respawn,
deadlines — is documented in ``docs/robustness.md``.  See EXPERIMENTS.md
for a walk-through.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional, Sequence, Tuple

from ..analysis.dpcp_p import DEFAULT_MAX_PATH_SIGNATURES
from ..experiments.runner import SweepConfig
from ..obs.events import CampaignFinished, CampaignStarted
from ..obs.log import LOG_LEVELS, configure_logging, get_logger
from ..obs.sink import EventSink, events_path, iter_event_records
from ..sim.validation import SimulationConfig
from . import faultinject
from .executor import RetryPolicy, build_protocols, execute_units, plan_runner
from .merge import merge_stores
from .progress import ProgressPrinter
from .planner import (
    CAMPAIGN_MODES,
    KNOWN_PROTOCOLS,
    MODE_ANALYZE,
    MODE_SIMULATE,
    SIMULATABLE_PROTOCOLS,
    CampaignPlan,
    campaign_manifest,
    grid_scenarios,
    manifest_shard,
    plan_campaign,
    plan_from_manifest,
    select_scenarios,
    shard_units,
)
from .store import CampaignStore, StoreError


def _parse_vertices(text: str) -> Tuple[int, int]:
    try:
        low, high = (int(part) for part in text.split(",", 1))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LO,HI (e.g. 10,100), got {text!r}"
        )
    if not 0 < low <= high:
        raise argparse.ArgumentTypeError(f"invalid vertex range {text!r}")
    return low, high


def _parse_protocols(text: str) -> List[str]:
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        # An empty list would select nothing and render degenerate
        # (header-only) deliverables with a success exit code.
        raise argparse.ArgumentTypeError(
            f"expected at least one protocol, got {text!r}; "
            f"known: {', '.join(KNOWN_PROTOCOLS)}"
        )
    for name in names:
        if name not in KNOWN_PROTOCOLS:
            raise argparse.ArgumentTypeError(
                f"unknown protocol {name!r}; known: {', '.join(KNOWN_PROTOCOLS)}"
            )
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"duplicate protocol names in {text!r}")
    return names


def _parse_shard(text: str) -> Tuple[int, int]:
    try:
        index, count = (int(part) for part in text.split("/", 1))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected I/N (e.g. 0/4), got {text!r}"
        )
    if count < 1 or not 0 <= index < count:
        raise argparse.ArgumentTypeError(
            f"invalid shard spec {text!r}: need 0 <= I < N (shards are 0-based)"
        )
    return index, count


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.campaign`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Parallel, resumable schedulability-experiment campaigns.",
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="info",
        help="verbosity of the repro.* loggers (stderr)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit log records as JSON lines instead of plain text",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_store(sub):
        sub.add_argument("--store", required=True, help="campaign store directory")

    def add_execution(sub):
        sub.add_argument(
            "--workers",
            type=int,
            default=1,
            help="worker processes (1 = in-process execution)",
        )
        sub.add_argument(
            "--chunk-size",
            type=int,
            default=None,
            help="work units per dispatch to a worker (default: auto)",
        )
        sub.add_argument(
            "--max-units",
            type=int,
            default=None,
            help="stop after executing this many new units (smoke testing / "
            "interrupt simulation)",
        )
        sub.add_argument(
            "--quiet", action="store_true", help="suppress progress output"
        )
        sub.add_argument(
            "--no-telemetry",
            action="store_true",
            help="disable the out-of-band telemetry/event stream "
            "(events.jsonl); result bytes are identical either way",
        )
        sub.add_argument(
            "--max-attempts",
            type=int,
            default=RetryPolicy.max_attempts,
            metavar="N",
            help="executions per unit before it is quarantined to "
            "quarantine.jsonl (failures never abort the campaign)",
        )
        sub.add_argument(
            "--unit-deadline",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-unit wall-clock deadline; overruns become 'timeout' "
            "errors (POSIX only)",
        )
        sub.add_argument(
            "--fault-plan",
            default=None,
            metavar="PATH",
            help="fault-injection plan JSON for chaos testing (exported as "
            f"{faultinject.ENV_VAR} to this run and its workers)",
        )

    run = commands.add_parser("run", help="plan and execute a campaign")
    add_store(run)
    run.add_argument(
        "--mode",
        choices=CAMPAIGN_MODES,
        default=MODE_ANALYZE,
        help="'analyze' evaluates the schedulability tests only; 'simulate' "
        "additionally runs every accepted task set through the DPCP-p "
        "runtime simulator and records bound-tightness/invariant evidence",
    )
    sim_defaults = SimulationConfig()
    run.add_argument(
        "--sim-hyperperiods",
        type=int,
        default=sim_defaults.hyperperiods,
        metavar="N",
        help="simulate mode: capped hyperperiods of jobs to release per run",
    )
    run.add_argument(
        "--sim-max-events",
        type=int,
        default=sim_defaults.max_events,
        metavar="N",
        help="simulate mode: event budget per simulation run (0 = unlimited); "
        "exhaustion truncates the run instead of hanging",
    )
    run.add_argument(
        "--sim-wall-clock",
        type=float,
        default=sim_defaults.wall_clock_seconds,
        metavar="SECONDS",
        help="simulate mode: wall-clock budget per simulation run (default: "
        "off — a wall-clock cut is not reproducible across machines)",
    )
    run.add_argument(
        "--grid",
        choices=("full", "fig2"),
        default="full",
        help="scenario grid: the 216-scenario full grid or the four Fig. 2 "
        "scenarios",
    )
    run.add_argument(
        "--filter",
        dest="filter_expression",
        default=None,
        metavar="EXPR",
        help="scenario filter, e.g. 'm=16,pr=0.5' (keys: m, nr, U, pr, N, L)",
    )
    run.add_argument(
        "--limit", type=int, default=None, help="keep only the first N scenarios"
    )
    defaults = SweepConfig()
    run.add_argument(
        "--samples",
        type=int,
        default=defaults.samples_per_point,
        help="task sets per utilization point",
    )
    run.add_argument(
        "--step",
        type=float,
        default=defaults.utilization_step_fraction,
        help="utilization step as a fraction of the platform size",
    )
    run.add_argument(
        "--seed", type=int, default=defaults.seed, help="campaign seed"
    )
    run.add_argument(
        "--vertices",
        type=_parse_vertices,
        default=(10, 100),
        metavar="LO,HI",
        help="DAG vertex-count range (downscale for quick runs, see "
        "EXPERIMENTS.md)",
    )
    run.add_argument(
        "--protocols",
        type=_parse_protocols,
        default=None,
        metavar="A,B,...",
        help=f"protocols to evaluate (default: {','.join(KNOWN_PROTOCOLS)}; "
        f"simulate mode defaults to {','.join(SIMULATABLE_PROTOCOLS)})",
    )
    run.add_argument(
        "--max-path-signatures",
        type=int,
        default=DEFAULT_MAX_PATH_SIGNATURES,
        help="cap on enumerated path signatures for the EP analysis",
    )
    run.add_argument(
        "--shard",
        type=_parse_shard,
        default=None,
        metavar="I/N",
        help="execute only the deterministic I-th of N slices of the "
        "work-unit grid (one store directory per shard; recombine with "
        "'merge')",
    )
    add_execution(run)

    resume = commands.add_parser(
        "resume", help="continue an interrupted campaign from its store"
    )
    add_store(resume)
    add_execution(resume)

    status = commands.add_parser("status", help="progress report of a store")
    add_store(status)

    merge = commands.add_parser(
        "merge",
        help="merge partial shard stores of one campaign into a single store",
    )
    merge.add_argument(
        "sources",
        nargs="+",
        metavar="SHARD_DIR",
        help="partial store directories to merge (shards of one campaign)",
    )
    merge.add_argument(
        "--into",
        required=True,
        metavar="DIR",
        help="destination store directory (fresh, or the same campaign)",
    )

    profile = commands.add_parser(
        "profile",
        help="compute-profile of a store: time by phase/protocol/scenario, "
        "slowest units, solver-iteration histogram (from events.jsonl)",
    )
    add_store(profile)
    profile.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="K",
        help="number of slowest work units to list",
    )
    profile.add_argument(
        "--json",
        action="store_true",
        help="emit the raw profile as JSON instead of tables",
    )

    report = commands.add_parser(
        "report",
        help="render the full report bundle (Markdown, HTML, CSVs) from a store",
    )
    add_store(report)
    report.add_argument(
        "--out", default=None, help="output directory (default: <store>/report)"
    )
    report.add_argument(
        "--strict",
        action="store_true",
        help="fail instead of reporting only the complete scenarios",
    )
    report.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the on-disk aggregation cache",
    )
    report.add_argument(
        "--protocols",
        type=_parse_protocols,
        default=None,
        metavar="A,B,...",
        help="restrict/order the reported protocols (default: the campaign's)",
    )

    export = commands.add_parser(
        "export", help="render CSV series and tables from a store"
    )
    add_store(export)
    export.add_argument(
        "--out", default=None, help="output directory (default: <store>/export)"
    )
    export.add_argument(
        "--strict",
        action="store_true",
        help="fail instead of skipping scenarios with incomplete sweeps",
    )
    return parser


def _execute(
    plan: CampaignPlan,
    store: CampaignStore,
    args: argparse.Namespace,
    manifest: Optional[dict] = None,
) -> int:
    protocols = build_protocols(
        plan.protocol_names, plan.config.max_path_signatures
    )
    # A sharded store executes only its deterministic slice of the grid;
    # the shard spec lives in the manifest, so resume needs no flags.
    shard = manifest_shard(manifest or {})
    units = shard_units(plan.units, *shard) if shard else plan.units
    if getattr(args, "fault_plan", None):
        # Chaos testing: the environment crosses the process-pool boundary,
        # so every worker sees the same plan (docs/robustness.md).
        os.environ[faultinject.ENV_VAR] = args.fault_plan
    retry = RetryPolicy(max_attempts=args.max_attempts)
    printer = None if args.quiet else ProgressPrinter()
    telemetry = not getattr(args, "no_telemetry", False)
    sink = EventSink(store.directory) if telemetry else None
    started_at = time.monotonic()
    if sink is not None:
        try:
            sink.emit(
                CampaignStarted(
                    config_hash=(manifest or {}).get("config_hash", ""),
                    mode=plan.mode,
                    total_units=len(units),
                    workers=args.workers,
                    protocols=tuple(plan.protocol_names),
                )
            )
        except OSError as error:
            # An unwritable store directory must not fail the campaign;
            # results checkpointing will surface real storage problems.
            get_logger("campaign.cli").warning(
                "event stream unavailable (%s); continuing without telemetry",
                error,
            )
            sink = None
    try:
        results = execute_units(
            units,
            protocols,
            workers=args.workers,
            store=store,
            progress=printer,
            chunk_size=args.chunk_size,
            max_units=args.max_units,
            runner=plan_runner(plan, telemetry=telemetry),
            events=sink,
            retry=retry,
            unit_deadline=args.unit_deadline,
        )
        if sink is not None:
            try:
                sink.emit(
                    CampaignFinished(
                        completed=len(results),
                        total=len(units),
                        elapsed_seconds=round(time.monotonic() - started_at, 6),
                    )
                )
            except OSError as error:
                get_logger("campaign.cli").warning(
                    "campaign-finished event emission failed (%s)", error
                )
    finally:
        if printer is not None:
            printer.finish()
        if sink is not None:
            sink.close()
    total = len(units)
    failures = sum(result.generation_failures for result in results)
    shard_label = f" (shard {shard[0]}/{shard[1]})" if shard else ""
    print(
        f"{len(results)}/{total} units complete{shard_label} "
        f"({failures} failed task-set draws) in store {store.directory}"
    )
    unresolved = store.unresolved_quarantine()
    if unresolved:
        kinds = sorted({
            str(record.get("error_kind")) for record in unresolved.values()
        })
        print(
            f"{len(unresolved)} unit(s) quarantined ({', '.join(kinds)}) — "
            f"see {store.quarantine_path}; resume retries them"
        )
    if len(results) < total:
        print("campaign incomplete — continue with: "
              f"python -m repro.campaign resume --store {store.directory}")
        return 3
    return 3 if unresolved else 0


# --------------------------------------------------------------------------- #
# Commands
# --------------------------------------------------------------------------- #
def _cmd_run(args: argparse.Namespace) -> int:
    scenarios = grid_scenarios(args.grid, num_vertices_range=args.vertices)
    scenarios = select_scenarios(scenarios, args.filter_expression)
    if args.limit is not None:
        if args.limit < 1:
            raise ValueError(f"--limit must be at least 1, got {args.limit}")
        scenarios = scenarios[: args.limit]
    if not scenarios:
        print("no scenarios match the selection", file=sys.stderr)
        return 2
    config = SweepConfig(
        samples_per_point=args.samples,
        utilization_step_fraction=args.step,
        max_path_signatures=args.max_path_signatures,
        seed=args.seed,
    )
    sim_config = None
    if args.mode == MODE_SIMULATE:
        sim_config = SimulationConfig(
            hyperperiods=args.sim_hyperperiods,
            max_events=args.sim_max_events if args.sim_max_events else None,
            wall_clock_seconds=args.sim_wall_clock,
        )
    plan = plan_campaign(
        scenarios, config, args.protocols, mode=args.mode, sim_config=sim_config
    )
    store = CampaignStore(args.store)
    manifest = campaign_manifest(plan, workers=args.workers, shard=args.shard)
    resuming = store.exists()
    manifest = store.initialize(manifest)
    log = get_logger("campaign.cli")
    if resuming:
        log.info("store %s already holds this campaign — resuming", args.store)
    log.info(
        "campaign: %d scenarios, %d work units, %d protocols, mode=%s, "
        "workers=%d%s",
        len(scenarios),
        len(plan.units),
        len(plan.protocol_names),
        plan.mode,
        args.workers,
        f", shard {args.shard[0]}/{args.shard[1]}" if args.shard else "",
    )
    return _execute(plan, store, args, manifest=manifest)


def _cmd_resume(args: argparse.Namespace) -> int:
    store = CampaignStore(args.store)
    manifest = store.read_manifest()
    plan = plan_from_manifest(manifest)
    shard = manifest_shard(manifest)
    units = shard_units(plan.units, *shard) if shard else plan.units
    pending = len(store.pending_ids([unit.unit_id for unit in units]))
    get_logger("campaign.cli").info(
        "resuming campaign in %s: %d/%d units already complete",
        args.store,
        len(units) - pending,
        len(units),
    )
    return _execute(plan, store, args, manifest=manifest)


def _cmd_merge(args: argparse.Namespace) -> int:
    report = merge_stores(args.sources, args.into)
    duplicate_note = (
        f", {report.duplicates} duplicate(s) verified equal"
        if report.duplicates
        else ""
    )
    print(
        f"merged {len(report.sources)} store(s) into {report.destination}: "
        f"{report.units}/{report.total_units} units "
        f"({report.written} newly written{duplicate_note})"
    )
    if report.healed:
        print(f"{report.healed} quarantined unit(s) healed by a completed record")
    if report.quarantined:
        print(
            f"{report.quarantined} unit(s) still quarantined — see "
            f"{CampaignStore(report.destination).quarantine_path}"
        )
    if not report.complete:
        print(
            f"merged store incomplete — run the missing shards or continue "
            f"with: python -m repro.campaign resume --store {report.destination}"
        )
        return 3
    return 3 if report.quarantined else 0


def _cmd_status(args: argparse.Namespace) -> int:
    store = CampaignStore(args.store)
    manifest = store.read_manifest()
    plan = plan_from_manifest(manifest)
    shard = manifest_shard(manifest)
    units = shard_units(plan.units, *shard) if shard else plan.units
    unit_ids = [unit.unit_id for unit in units]
    records = store.load_records()
    done = sum(1 for unit_id in unit_ids if unit_id in records)
    total = len(units)
    failures = sum(record.get("generation_failures", 0) for record in records.values())
    elapsed = sum(record.get("elapsed_seconds", 0.0) for record in records.values())
    print(f"store:          {store.directory}")
    print(f"config hash:    {manifest['config_hash'][:16]}…")
    print(f"mode:           {manifest['mode']}")
    if shard:
        print(f"shard:          {shard[0]}/{shard[1]} "
              f"({total} of {len(plan.units)} planned units)")
    print(f"protocols:      {', '.join(manifest['protocols'])}")
    print(f"scenarios:      {len(plan.scenarios)}")
    print(f"units:          {done}/{total} complete "
          f"({100.0 * done / total if total else 100.0:.1f}%)")
    print(f"failed draws:   {failures}")
    unresolved = store.unresolved_quarantine()
    if unresolved:
        kinds: dict = {}
        for record in unresolved.values():
            kind = str(record.get("error_kind"))
            kinds[kind] = kinds.get(kind, 0) + 1
        breakdown = ", ".join(
            f"{count}× {kind}" for kind, count in sorted(kinds.items())
        )
        print(f"quarantined:    {len(unresolved)} unit(s) ({breakdown}) — "
              "resume retries them")
    if done:
        mean = elapsed / done
        print(f"unit time:      {mean:.2f}s mean, {elapsed:.1f}s total compute")
        if done < total:
            left = total - done
            serial = mean * left
            print(f"serial ETA:     {serial:.1f}s ({left} units left)")
            # The manifest records the launch's worker count (informational,
            # outside the config hash); quote the ETA the user will actually
            # see at that parallelism, not just the serial-compute figure.
            workers = int(manifest.get("workers") or 1)
            if workers > 1:
                print(
                    f"parallel ETA:   {serial / workers:.1f}s "
                    f"at {workers} workers (manifest)"
                )
    events_file = events_path(store.directory)
    event_count = 0
    unit_events = 0
    recovery = {"pool_crashed": 0, "unit_retried": 0, "unit_quarantined": 0}
    last_seq = None
    for record, _ in iter_event_records(events_file):
        event_count += 1
        event_type = record.get("type")
        if event_type == "unit_finished":
            unit_events += 1
        if event_type in recovery:
            recovery[event_type] += 1
        seq = record.get("seq")
        if isinstance(seq, int):
            last_seq = seq if last_seq is None else max(last_seq, seq)
    if event_count:
        print(
            f"events:         {event_count} in events.jsonl "
            f"({unit_events} unit completions, last seq "
            f"{last_seq if last_seq is not None else 'n/a'})"
        )
        if any(recovery.values()):
            print(
                f"recovery:       {recovery['pool_crashed']} pool crash(es), "
                f"{recovery['unit_retried']} unit retry(ies), "
                f"{recovery['unit_quarantined']} quarantine(s)"
            )
        print(f"profile:        python -m repro.campaign profile "
              f"--store {store.directory}")
    incomplete = []
    for scenario in plan.scenarios:
        scenario_units = [
            unit.unit_id
            for unit in units
            if unit.scenario.scenario_id == scenario.scenario_id
        ]
        missing = sum(1 for unit_id in scenario_units if unit_id not in records)
        if missing:
            incomplete.append((scenario.scenario_id, missing, len(scenario_units)))
    if incomplete:
        print(f"incomplete scenarios ({len(incomplete)}):")
        for scenario_id, missing, count in incomplete[:10]:
            print(f"  {scenario_id}: {count - missing}/{count}")
        if len(incomplete) > 10:
            print(f"  … and {len(incomplete) - 10} more")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from ..obs.profile import load_profile, render_profile

    if args.top < 1:
        raise ValueError(f"--top must be at least 1, got {args.top}")
    profile = load_profile(args.store)
    if args.json:
        print(json.dumps(profile.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_profile(profile, top=args.top))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import os

    from ..report.aggregate import aggregate_store
    from ..report.bundle import write_report_bundle

    aggregate = aggregate_store(args.store, use_cache=not args.no_cache)
    if args.protocols:
        # Validate against the campaign up front: otherwise a protocol the
        # campaign never ran would pass silently while no scenario is
        # complete and flip to an error mid-campaign — useless for a watch
        # loop polling on the 0/3 exit codes.
        unknown = [p for p in args.protocols if p not in aggregate.protocols]
        if unknown:
            raise ValueError(
                f"protocol(s) {', '.join(unknown)} were not part of this "
                f"campaign (campaign protocols: "
                f"{', '.join(aggregate.protocols)})"
            )
    stats = aggregate.cache_stats
    if stats.hit:
        cache_line = (
            f"aggregation cache: hit ({stats.units_from_cache} units cached, "
            f"{stats.units_folded} folded from the store)"
        )
    else:
        cache_line = (
            f"aggregation cache: miss [{stats.miss_reason}] "
            f"({stats.units_folded} units folded from the store)"
        )
    print(cache_line)
    incomplete = aggregate.incomplete_reports()
    if incomplete and args.strict:
        raise ValueError(
            f"campaign incomplete ({aggregate.completed_units}/"
            f"{aggregate.total_units} units, {len(incomplete)} scenario(s) "
            "unfinished); resume it or drop --strict"
        )
    out_dir = args.out or os.path.join(args.store, "report")
    bundle = write_report_bundle(aggregate, out_dir, protocols=args.protocols)
    print(
        f"report: {len(bundle.series_csvs)} scenario series + REPORT.md + "
        f"report.html in {out_dir}"
    )
    if aggregate.mode == MODE_SIMULATE:
        totals = aggregate.validation_totals().values()
        simulated = sum(rollup.simulated for rollup in totals)
        violations = sum(rollup.violations for rollup in totals)
        failures = sum(rollup.rule_failures for rollup in totals)
        truncated = sum(rollup.truncated for rollup in totals)
        maxima = [
            rollup.ratio.maximum
            for rollup in totals
            if rollup.ratio.maximum is not None
        ]
        worst = f"{max(maxima):.3f}" if maxima else "n/a"
        print(
            f"validation: {simulated} simulated runs, worst observed/bound "
            f"{worst}, {violations} soundness violation(s), {failures} rule "
            f"failure(s), {truncated} truncated"
        )
    if incomplete:
        print(
            f"campaign incomplete — {len(incomplete)} scenario(s) omitted; "
            f"continue with: python -m repro.campaign resume --store {args.store}"
        )
        return 3
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    import os

    from ..experiments.figures import load_sweep_results, write_series_csv
    from ..experiments.runner import pairwise_statistics
    from ..experiments.tables import (
        render_dominance_table,
        render_outperformance_table,
    )

    results = load_sweep_results(args.store, allow_partial=not args.strict)
    if not results:
        print("no completed scenario sweeps to export yet", file=sys.stderr)
        return 2
    out_dir = args.out or os.path.join(args.store, "export")
    os.makedirs(out_dir, exist_ok=True)
    for result in results:
        path = os.path.join(out_dir, f"{result.scenario.scenario_id}.csv")
        write_series_csv(result, path)
    written = [f"{len(results)} series CSVs"]
    if len(results[0].protocols) >= 2:
        stats = pairwise_statistics(results)
        tables_path = os.path.join(out_dir, "tables.txt")
        with open(tables_path, "w") as handle:
            handle.write(render_dominance_table(stats) + "\n\n")
            handle.write(render_outperformance_table(stats) + "\n")
        written.append("tables.txt")
    skipped = None
    manifest = CampaignStore(args.store).read_manifest()
    if len(results) < len(manifest["scenarios"]):
        skipped = len(manifest["scenarios"]) - len(results)
    print(f"exported {' + '.join(written)} to {out_dir}")
    if skipped:
        print(f"skipped {skipped} incomplete scenario(s) — resume the campaign "
              "to complete them")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(level=args.log_level, json_lines=args.log_json)
    handlers = {
        "run": _cmd_run,
        "resume": _cmd_resume,
        "status": _cmd_status,
        "merge": _cmd_merge,
        "profile": _cmd_profile,
        "report": _cmd_report,
        "export": _cmd_export,
    }
    try:
        return handlers[args.command](args)
    except StoreError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("\ninterrupted — completed units are checkpointed; continue with "
              "'python -m repro.campaign resume'", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
