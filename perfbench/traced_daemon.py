"""Run ``python -m repro.service`` with the benchmark's tracer installed.

Usage: ``python3 perfbench/traced_daemon.py OUT.json serve [serve options]``

Once the daemon has shut down, the per-layer totals go to ``OUT.json``
and the spans to ``OUT.json.spans.npz``.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from tracer import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from repro.service.__main__ import main as service_main

    code = service_main(argv)
    tracer.write_spans(out + ".spans.npz")
    with open(out, "w") as handle:
        json.dump(tracer.totals(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
