"""Record the per-unit counts the campaign workloads are checked against.

Usage::

    python3 perfbench/record_expected.py [--workers N] [WORKLOAD ...]

Runs every pool campaign (``campaigns.POOL_SIZE`` seeds) of each campaign
workload and writes ``perfbench/expected/<workload>.json`` with the
store ``FORMAT_VERSION`` in force.  Re-record only when a change is meant
to alter results (a ``FORMAT_VERSION`` bump); until then the benchmark
reports the acceptance delta against these counts.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import campaigns  # noqa: E402
from repro.campaign.executor import build_protocols, execute_units  # noqa: E402
from repro.campaign.planner import FORMAT_VERSION  # noqa: E402


def record(workload: str, workers: int) -> dict:
    """Counts of every unit of every pool campaign of ``workload``."""
    recorded = {}
    for index in range(campaigns.POOL_SIZE):
        seed = campaigns.campaign_seed(index)
        plan, units = campaigns.WORKLOADS[workload](seed)
        protocols = build_protocols(plan.protocol_names, plan.config.max_path_signatures)
        results = execute_units(units, protocols, workers=workers)
        if len(results) != len(units):
            raise RuntimeError(f"{workload} seed {seed}: units failed to run")
        recorded[str(seed)] = {
            result.unit_id: campaigns.record_of(result.to_record())
            for result in results
        }
        print(f"{workload}: seed {seed} recorded ({len(results)} units)", flush=True)
    return {"workload": workload, "format_version": FORMAT_VERSION, "campaigns": recorded}


def write(payload: dict, path: str) -> None:
    """Write ``payload`` as JSON with one line per pool campaign."""
    head = {key: value for key, value in payload.items() if key != "campaigns"}
    lines = [
        f"  {json.dumps(seed)}: {json.dumps(units, sort_keys=True, separators=(',', ':'))}"
        for seed, units in sorted(payload["campaigns"].items())
    ]
    with open(path, "w") as handle:
        handle.write(json.dumps(head, sort_keys=True)[:-1])
        handle.write(', "campaigns": {\n' + ",\n".join(lines) + "\n}}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=sorted(campaigns.WORKLOADS))
    args = parser.parse_args()
    directory = os.path.join(campaigns.HERE, "expected")
    os.makedirs(directory, exist_ok=True)
    for workload in args.workloads:
        write(record(workload, args.workers), os.path.join(directory, f"{workload}.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
