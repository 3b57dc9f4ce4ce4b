#!/usr/bin/env python3
"""Reporting quickstart: campaign store → aggregation → full bundle.

Demonstrates the reporting subsystem (see DESIGN.md, "Reporting") on a
reduced campaign, entirely through library entry points:

1. run a small fixed-seed campaign into a store;
2. aggregate the store: every work unit is folded from the JSONL, and
   nothing is written back;
3. write the full report bundle (REPORT.md, report.html, per-scenario
   CSVs) and show where each artifact landed.

Run with:  PYTHONPATH=src python examples/report_from_store.py
"""

from __future__ import annotations

import os
import shutil
import tempfile

from repro.campaign import cli
from repro.report import aggregate_store, write_report_bundle


def main() -> None:
    """Run the demo campaign and render its report bundle."""
    store = os.path.join(tempfile.mkdtemp(prefix="repro-report-"), "demo")

    print("=== 1. run a small campaign (two m=16 Fig. 2 scenarios) ===")
    cli.main([
        "run", "--store", store,
        "--grid", "fig2",
        "--filter", "m=16",
        "--samples", "3",
        "--step", "0.25",
        "--vertices", "5,10",
        "--seed", "2020",
        "--quiet",
    ])

    print("\n=== 2. aggregate: every unit folded from results.jsonl ===")
    aggregate = aggregate_store(store)
    print(f"  units: {aggregate.completed_units}/{aggregate.total_units}")
    print(f"  weighted acceptance: "
          f"{ {p: round(r, 3) for p, r in aggregate.weighted_acceptance().items()} }")

    print("\n=== 3. write the report bundle ===")
    bundle = write_report_bundle(aggregate, os.path.join(store, "report"))
    for path in bundle.paths:
        print(f"  {path}")

    print("\n(deleting the demo store)")
    shutil.rmtree(os.path.dirname(store))


if __name__ == "__main__":
    main()
