#!/usr/bin/env python3
"""The repository benchmark: three workloads behind one command.

Usage::

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists and what it stresses):

* ``fig2-paper`` — paper-scale Fig. 2 campaigns (16-core panels) through
  the executor;
* ``grid-smalldag`` — a 24-scenario slice of the full grid, small DAGs;
* ``service-queries`` — a ``repro.service`` daemon under two closed-loop
  clients.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps each layer's entry points (``tracer.py``) and
reports per-layer metrics instead.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run from the repository root:
the program is imported from ``src/``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: stores, daemon data, trace files.
OUT = os.path.join(ROOT, ".perfbench-out")

CAMPAIGN_WORKLOADS = ("fig2-paper", "grid-smalldag")
SERVICE_WORKLOAD = "service-queries"
WORKLOADS = CAMPAIGN_WORKLOADS + (SERVICE_WORKLOAD,)

#: Extra set-ups measured before and again after the timed loop of an
#: untraced run (so they sample different moments of a noisy host);
#: ``setup_s`` is the median of these and the run's own set-up.
SETUP_PROBES_EACH_SIDE = 3
#: Queries drawn for the service stream (more than any run can send).
STREAM_LENGTH = 20000

#: Layers of the analysis and campaign stack, each reported as
#: ``<layer>.self_s``.
CAMPAIGN_LAYERS = (
    "generation", "paths", "dpcp_p.ep", "dpcp_p.en", "dpcp_p.partition",
    "engine.tables", "engine.solver", "baselines", "campaign.executor",
    "campaign.store",
)

#: Layers a traced run must see called on each workload.  A refactor that
#: moves a call away from the wrapped entry points fails the run instead
#: of reporting 0 s for the layer.
REQUIRED_LAYERS = {
    "fig2-paper": CAMPAIGN_LAYERS,
    "grid-smalldag": CAMPAIGN_LAYERS,
    "service-queries": (
        "generation", "paths", "engine.tables", "engine.solver", "baselines",
        "service.wave",
    ),
}


def percentile(values, q):
    """The ``q``-th percentile (``statistics.quantiles``, inclusive)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(numerator, denominator):
    """``numerator / denominator``, 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def host_note(speed):
    """One line on the host-speed samples behind the scaled timings."""
    return (
        f"host speed: reference loop median {statistics.median(speed.samples) * 1e3:.3f} ms "
        f"over {len(speed.samples)} samples; timings scaled by {speed.scale():.4f}"
    )


def probe_setup(workload, seed, directory):
    """One campaign set-up timed in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    output = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
         str(seed), directory],
        check=True, capture_output=True, text=True, env=env, timeout=120,
    ).stdout
    return float(output.split()[-1])


def layer_metrics(totals, wall, drawn):
    """Per-layer metrics shared by every workload, from tracer totals."""
    self_s, calls, counts = totals["self_s"], totals["calls"], totals["counts"]
    metrics = {f"{layer}.self_s": (self_s.get(layer, 0.0), "s") for layer in CAMPAIGN_LAYERS}
    metrics.update({
        "generation.calls": (calls.get("generation", 0), "count"),
        "generation.failed_frac": (
            ratio(counts.get("generation.failures", 0), calls.get("generation", 0)),
            "ratio",
        ),
        "paths.enumerations": (counts.get("paths.enumerations", 0), "count"),
        "paths.signatures": (counts.get("paths.signatures", 0), "count"),
        "paths.truncated_frac": (
            ratio(counts.get("paths.truncated", 0), counts.get("paths.enumerations", 0)),
            "ratio",
        ),
        "dpcp_p.partition.passes": (
            ratio(
                counts.get("dpcp_p.partition.passes", 0),
                counts.get("dpcp_p.partition.tests", 0),
            ),
            "1/test",
        ),
        "engine.solver.calls": (calls.get("engine.solver", 0), "count"),
        "campaign.store.appends": (calls.get("campaign.store", 0), "count"),
        "trace.spans": (totals["spans"], "count"),
        "traced.s_per_1k_tasksets": (ratio(wall, drawn) * 1000.0, "s"),
    })
    return metrics


def require_layers(workload, totals):
    """Fail loudly when a layer this workload exercises recorded no calls."""
    silent = [
        layer for layer in REQUIRED_LAYERS[workload]
        if not totals["calls"].get(layer)
    ]
    if silent:
        raise RuntimeError(
            f"traced layer(s) {', '.join(silent)} recorded no calls on "
            f"{workload}; the wrapped entry points no longer see this work"
        )


# --------------------------------------------------------------------------- #
# Campaign workloads
# --------------------------------------------------------------------------- #
def run_campaigns(args, work):
    """Run whole campaigns until another would overrun ``--seconds``."""
    import campaigns
    from hostspeed import HostSpeed
    from tracer import Tracer

    first = campaigns.set_up(
        args.workload, campaigns.campaign_seed(args.seed), os.path.join(work, "c0")
    )
    setups = [time.perf_counter() - STARTED]

    def probe_setups():
        if args.trace:
            return []
        return [
            probe_setup(
                args.workload, campaigns.campaign_seed(args.seed),
                os.path.join(work, f"probe{len(setups) + index}"),
            )
            for index in range(SETUP_PROBES_EACH_SIDE)
        ]

    setups += probe_setups()
    expected = campaigns.load_expected(args.workload)
    tracer = Tracer() if args.trace else None
    speed = HostSpeed()
    runs, checks = [], []
    campaign = first
    loop_started = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        while True:
            run = campaigns.execute(campaign, on_unit=speed.sample)
            runs.append(run)
            checks.append(campaigns.check(run, campaign, expected))
            elapsed = time.perf_counter() - loop_started
            if (
                len(runs) >= campaigns.MIN_CAMPAIGNS[args.workload]
                and elapsed + elapsed / len(runs) > args.seconds
            ):
                break
            campaign = campaigns.set_up(
                args.workload,
                campaigns.campaign_seed(args.seed + len(runs)),
                os.path.join(work, f"c{len(runs)}"),
            )
    finally:
        if tracer is not None:
            tracer.uninstall()
    setups += probe_setups()

    timed = sum(run.seconds for run in runs) - speed.spent
    seconds = timed * speed.scale()
    drawn = sum(run.drawn for run in runs)
    attempted = sum(run.units for run in runs)
    # A quarantined unit has no record in results.jsonl, so it is mismatched.
    failed = sum(len(result["mismatched"]) for result in checks)
    notes = [
        f"campaigns: {len(runs)} (seeds {', '.join(str(run.seed) for run in runs)})",
        f"units: {attempted}, task sets drawn: {drawn}, timed: {timed:.3f} s",
        host_note(speed),
    ]
    delta = {}
    for result in checks:
        for name, change in result["acceptance_delta"].items():
            delta[name] = delta.get(name, 0) + change
        if result["mismatched"]:
            notes.append(f"mismatched units: {', '.join(result['mismatched'][:5])}")
    if any(result["bumped"] for result in checks):
        notes.append(
            "store FORMAT_VERSION differs from the recorded counts; acceptance "
            f"delta vs recorded: {json.dumps(delta, sort_keys=True)}"
        )

    if tracer is not None:
        totals = tracer.totals()
        require_layers(args.workload, totals)
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.npz"))
        metrics = layer_metrics(totals, seconds, drawn)
        attributed = sum(totals["self_s"].values())
        metrics["unattributed.self_s"] = (max(timed - attributed, 0.0), "s")
        metrics.update(_no_service_metrics())
        return attempted, failed, metrics, notes

    notes.append(f"set-ups: {len(setups)}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "s_per_1k_tasksets": (seconds / drawn * 1000.0, "s"),
        "queries_per_s": (drawn / seconds, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return attempted, failed, metrics, notes


def _no_service_metrics():
    """Service-layer metrics of a workload that starts no daemon."""
    return {
        "service.cache_hit_frac": (0.0, "ratio"),
        "service.coalesce_hits": (0, "count"),
        "service.wave_width_mean": (0.0, "count"),
        "service.exec_ms_mean": (0.0, "ms"),
        "service.queue_wait_ms_mean": (0.0, "ms"),
        "service.wire_ms_mean": (0.0, "ms"),
        "service.cache_entries": (0, "count"),
    }


# --------------------------------------------------------------------------- #
# Service workload
# --------------------------------------------------------------------------- #
def run_service(args, work):
    """Closed-loop queries against a daemon subprocess for ``--seconds``."""
    import service_workload as service

    stream = service.query_stream(args.seed, STREAM_LENGTH)
    setups = []

    def probe_setups():
        for _ in range(0 if args.trace else SETUP_PROBES_EACH_SIDE):
            probe = service.Daemon(SRC, os.path.join(work, f"probe{len(setups)}"))
            probe.stop()
            setups.append(probe.setup_s)

    probe_setups()
    trace_out = None
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        trace_out = os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json")
    daemon = service.Daemon(SRC, os.path.join(work, "daemon"), trace_out)
    setups.append(daemon.setup_s)
    try:
        answers, wall = service.closed_loop(daemon, stream, args.seconds)
        stats = daemon.client.stats().counters
        rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    probe_setups()
    problems = service.check(stream, answers)

    executed = [a for a in answers if not (a.cached or a.coalesced or a.error)]
    drawn = sum(
        a.result["evaluated"] + a.result["generation_failures"] for a in executed
    )
    latencies = [answer.latency for answer in answers]
    counters, timers = stats["counters"], stats["timers"]
    notes = [
        f"queries: {len(answers)} ({len(executed)} executed, "
        f"{sum(a.cached for a in answers)} cached, "
        f"{sum(a.coalesced for a in answers)} coalesced), wall {wall:.3f} s",
        f"task sets drawn by the daemon: {drawn}; set-ups: {len(setups)}",
        # Printed, not bounded: the latency mix (waves, coalescing, cache
        # hits) moves these percentiles by more than 25 % between seeds.
        "client latency: "
        + ", ".join(
            f"p{q} {percentile(latencies, q) * 1000.0:.1f} ms" for q in (50, 90, 99)
        )
        + f" ({len(latencies)} samples, {int(len(latencies) * 0.01)} beyond p99)",
    ]
    notes.extend(problems[:5])

    if args.trace:
        with open(trace_out) as handle:
            totals = json.load(handle)
        require_layers(args.workload, totals)
        metrics = layer_metrics(totals, wall, drawn)
        metrics["unattributed.self_s"] = (totals["self_s"].get("service.wave", 0.0), "s")
        waves = timers.get("service.wave.seconds", {"count": 0, "total": 0.0})
        jobs = timers.get("service.job.query.seconds", {"count": 0, "total": 0.0})
        exec_s = ratio(waves["total"], waves["count"])
        job_s = ratio(jobs["total"], jobs["count"])
        client_s = ratio(sum(a.latency for a in executed), len(executed))
        metrics.update({
            "service.cache_hit_frac": (
                ratio(counters.get("service.cache.hits", 0), len(answers)), "ratio"),
            "service.coalesce_hits": (counters.get("service.coalesce.hits", 0), "count"),
            "service.wave_width_mean": (
                ratio(counters.get("service.queries", 0), waves["count"]), "count"),
            "service.exec_ms_mean": (exec_s * 1000.0, "ms"),
            "service.queue_wait_ms_mean": ((job_s - exec_s) * 1000.0, "ms"),
            "service.wire_ms_mean": ((client_s - job_s) * 1000.0, "ms"),
            "service.cache_entries": (stats.get("cache_entries", 0), "count"),
        })
        return len(answers), len(problems), metrics, notes

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "s_per_1k_tasksets": (wall / drawn * 1000.0, "s"),
        "queries_per_s": (len(answers) / wall, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return len(answers), len(problems), metrics, notes


# --------------------------------------------------------------------------- #
def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program under {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(OUT, f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        if args.workload == SERVICE_WORKLOAD:
            attempted, failed, metrics, notes = run_service(args, work)
        else:
            attempted, failed, metrics, notes = run_campaigns(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>14.6f} {unit}")
    print(f"{'failed_frac':<28} {ratio(failed, attempted):>14.6f} ratio "
          f"({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
