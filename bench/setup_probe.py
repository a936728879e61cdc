"""Child process behind setup_s: a fresh interpreter imports bridgepot and
builds one workload's inputs, then prints CLOCK_MONOTONIC.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports bridgepot)

workloads.build(sys.argv[1], int(sys.argv[2]))
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
