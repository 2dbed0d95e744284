"""Time a fresh process's set-up: package import, config parse, instance build
and initial state for every job of a workload. Prints the seconds taken.

Usage: python3 perfbench/setup_probe.py <src-dir> '<jobs as JSON>'
"""

import json
import sys
import time

src, payload = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, src)

t0 = time.perf_counter()
from twonorm import cli  # noqa: E402  (the import is what is being timed)

for job in payload:
    config = cli.parse_config(job["config"])
    instance = cli.build_instance(config)
    amplitude = job["amplitudes"][0] if job["amplitudes"] else None
    cli.build_initial_state(config, instance, amplitude_override=amplitude)
print(repr(time.perf_counter() - t0))
