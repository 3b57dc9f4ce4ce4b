"""Time one campaign set-up in a fresh interpreter; prints seconds.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD CAMPAIGN_SEED STORE_DIR``

Measures from before the first ``repro`` import to an initialised store,
the same span ``run.py`` times in its own process.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import campaigns  # noqa: E402


def main() -> None:
    workload, seed, directory = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    campaign = campaigns.set_up(workload, seed, directory)
    elapsed = time.perf_counter() - STARTED
    campaign.sink.close()
    print(repr(elapsed))


if __name__ == "__main__":
    main()
