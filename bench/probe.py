"""One cold start: import the CLI package and build a workload's inputs.

Usage: python3 bench/probe.py <workload> <seed>

Prints time.monotonic() at the moment the first operation could run.  On
Linux that clock is shared by all processes, so the parent that spawned
this interpreter subtracts its own start reading to get the set-up time.
"""

import os
import sys
import time

here = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
os.environ.pop("ELEPHANTINE_TRUNCATION", None)

import elephantine.cli  # noqa: E402,F401  (what every CLI call pays)
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print(repr(time.monotonic()))
