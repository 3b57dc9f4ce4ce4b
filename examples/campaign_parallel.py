#!/usr/bin/env python3
"""Campaign quickstart: run → interrupt → resume → report on a reduced grid.

Demonstrates the campaign engine (see EXPERIMENTS.md, "Running campaigns")
end to end, entirely through the same entry points the
``python -m repro.campaign`` CLI uses:

1. plan a 2-scenario campaign on a reduced grid and execute only part of it
   (simulating an interrupted run — Ctrl-C, kill, power loss);
2. show that the completed work units are checkpointed in the store;
3. resume with two worker processes — finished units are *not* re-executed;
4. render the report bundle — ``REPORT.md`` (with the dominance and
   outperformance tables), ``report.html`` and one CSV series per scenario.

Run with:  PYTHONPATH=src python examples/campaign_parallel.py
"""

from __future__ import annotations

import os
import shutil
import tempfile

from repro.campaign import cli


def main() -> None:
    store = os.path.join(tempfile.mkdtemp(prefix="repro-campaign-"), "demo")
    run_flags = [
        "--store", store,
        "--grid", "fig2",          # the four Fig. 2 scenarios ...
        "--filter", "m=16",        # ... restricted to the two m=16 ones
        "--samples", "3",
        "--step", "0.25",
        "--vertices", "5,10",
        "--protocols", "DPCP-p-EN,SPIN,FED-FP",
        "--seed", "2020",
    ]

    print("=== 1. run, 'interrupted' after 3 of 8 work units ===")
    cli.main(["run", *run_flags, "--max-units", "3", "--quiet"])

    print("\n=== 2. the store has checkpointed the finished units ===")
    cli.main(["status", "--store", store])

    print("\n=== 3. resume with 2 workers (finished units are skipped) ===")
    cli.main(["resume", "--store", store, "--workers", "2", "--quiet"])

    print("\n=== 4. render the report bundle from the store ===")
    report_dir = os.path.join(store, "report")
    cli.main(["report", "--store", store, "--out", report_dir])
    for root, _, names in sorted(os.walk(report_dir)):
        for name in sorted(names):
            print(f"  {os.path.join(root, name)}")

    print("\n(deleting the demo store)")
    shutil.rmtree(os.path.dirname(store))


if __name__ == "__main__":
    main()
