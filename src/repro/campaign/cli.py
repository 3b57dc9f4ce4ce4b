"""Command-line interface of the campaign engine.

::

    python -m repro.campaign run    --store DIR [selection/config options]
    python -m repro.campaign resume --store DIR [--workers N]
    python -m repro.campaign status --store DIR
    python -m repro.campaign merge  --into DIR SHARD_DIR [SHARD_DIR ...]
    python -m repro.campaign report --store DIR [--out DIR]

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
(``REPORT.md``, ``report.html``, per-scenario CSVs) from the store in one
stateless pass — zero analysis re-runs.  Exit codes are
watch-friendly: 0 = complete report, 3 = incomplete campaign or
quarantined units (partial report written; poll/resume and re-run),
2 = error.  Fault handling — per-unit retry/quarantine, pool respawn,
deadlines — is documented in ``docs/robustness.md``.  See EXPERIMENTS.md
for a walk-through.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

from ..analysis.dpcp_p import DEFAULT_MAX_PATH_SIGNATURES
from ..experiments.metrics import ValidationRollup
from ..experiments.runner import SweepConfig
from ..obs.log import LOG_LEVELS, configure_logging, get_logger
from ..sim.validation import SimulationConfig
from . import faultinject
from .executor import RetryPolicy, execute_campaign
from .merge import merge_stores
from .progress import ProgressPrinter
from .planner import (
    CAMPAIGN_MODES,
    KNOWN_PROTOCOLS,
    MODE_ANALYZE,
    MODE_SIMULATE,
    SIMULATABLE_PROTOCOLS,
    campaign_manifest,
    grid_scenarios,
    plan_campaign,
    select_scenarios,
)
from .store import CampaignStore, StoreError, StoreView


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
        help="cap on a task's distinct path request codes for the EP analysis",
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
        "--protocols",
        type=_parse_protocols,
        default=None,
        metavar="A,B,...",
        help="restrict/order the reported protocols (default: the campaign's)",
    )
    return parser


def _execute(view: StoreView, args: argparse.Namespace) -> int:
    printer = None if args.quiet else ProgressPrinter()
    previous_plan = os.environ.get(faultinject.ENV_VAR)
    if args.fault_plan:
        # Chaos testing: the environment crosses the process-pool boundary,
        # so every worker sees the same plan (docs/robustness.md).  A later
        # run in this process must not inherit it, hence the finally below.
        os.environ[faultinject.ENV_VAR] = args.fault_plan
    try:
        outcome = execute_campaign(
            view,
            workers=args.workers,
            progress=printer,
            retry=RetryPolicy(max_attempts=args.max_attempts),
            chunk_size=args.chunk_size,
            max_units=args.max_units,
            unit_deadline=args.unit_deadline,
            telemetry=not args.no_telemetry,
        )
    finally:
        if printer is not None:
            printer.finish()
        if args.fault_plan:
            if previous_plan is None:
                os.environ.pop(faultinject.ENV_VAR, None)
            else:
                os.environ[faultinject.ENV_VAR] = previous_plan
            faultinject.clear_plan_cache()
    store, shard = view.store, view.shard
    failures = sum(result.generation_failures for result in outcome.results)
    shard_label = f" (shard {shard[0]}/{shard[1]})" if shard else ""
    print(
        f"{len(outcome.results)}/{outcome.total} units complete{shard_label} "
        f"({failures} failed task-set draws) in store {store.directory}"
    )
    if outcome.unresolved:
        kinds = sorted({
            str(record.get("error_kind")) for record in outcome.unresolved.values()
        })
        print(
            f"{len(outcome.unresolved)} unit(s) quarantined ({', '.join(kinds)}) — "
            f"see {store.quarantine_path}; resume retries them"
        )
    if len(outcome.results) < outcome.total:
        print("campaign incomplete — continue with: "
              f"python -m repro.campaign resume --store {store.directory}")
    return outcome.exit_code


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
    return _execute(StoreView(store, manifest, plan), args)


def _cmd_resume(args: argparse.Namespace) -> int:
    view = StoreView.open(args.store)
    get_logger("campaign.cli").info(
        "resuming campaign in %s: %d/%d units already complete",
        args.store,
        view.done,
        len(view.units),
    )
    return _execute(view, args)


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
    from ..obs.profile import scan_events

    view = StoreView.open(args.store)
    store, manifest, plan, shard = view.store, view.manifest, view.plan, view.shard
    records, done, total = view.records.values(), view.done, len(view.units)
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
    print(f"failed draws:   {sum(r.get('generation_failures', 0) for r in records)}")
    if view.unresolved:
        kinds = collections.Counter(
            str(record.get("error_kind")) for record in view.unresolved.values()
        )
        breakdown = ", ".join(
            f"{count}× {kind}" for kind, count in sorted(kinds.items())
        )
        print(f"quarantined:    {len(view.unresolved)} unit(s) ({breakdown}) — "
              "resume retries them")
    if done:
        elapsed = sum(record.get("elapsed_seconds", 0.0) for record in records)
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
    events = scan_events(store.directory)
    counts = collections.Counter(events.event_counts)
    if counts:
        print(
            f"events:         {sum(counts.values())} in events.jsonl "
            f"({counts['unit_finished']} unit completions, last seq "
            f"{events.last_seq if events.last_seq is not None else 'n/a'})"
        )
        recovery = [counts[kind] for kind in (
            "pool_crashed", "unit_retried", "unit_quarantined")]
        if any(recovery):
            print("recovery:       {} pool crash(es), {} unit retry(ies), "
                  "{} quarantine(s)".format(*recovery))
        print(f"profile:        python -m repro.campaign profile "
              f"--store {store.directory}")
    incomplete = [row for row in view.scenario_progress if row[1] < row[2]]
    if incomplete:
        print(f"incomplete scenarios ({len(incomplete)}):")
        for scenario_id, scenario_done, count in incomplete[:10]:
            print(f"  {scenario_id}: {scenario_done}/{count}")
        if len(incomplete) > 10:
            print(f"  … and {len(incomplete) - 10} more")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
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
    from ..report.aggregate import aggregate_store
    from ..report.bundle import write_report_bundle

    aggregate = aggregate_store(args.store)
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
        total = ValidationRollup.merged(aggregate.validation_totals().values())
        worst = total.ratio.maximum
        worst_text = "n/a" if worst is None else f"{worst:.3f}"
        print(
            f"validation: {total.simulated} simulated runs, worst observed/bound "
            f"{worst_text}, {total.violations} soundness violation(s), "
            f"{total.rule_failures} rule failure(s), {total.truncated} truncated"
        )
    if incomplete:
        print(
            f"campaign incomplete — {len(incomplete)} scenario(s) omitted; "
            f"continue with: python -m repro.campaign resume --store {args.store}"
        )
        return 3
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
