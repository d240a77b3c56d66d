"""Time clbench's set-up in this fresh interpreter: import the package, then
load, build and validate each given manifest once. Prints the seconds.

    python3 perfbench/setup_probe.py MANIFEST.json [MANIFEST.json ...]
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

start = time.perf_counter()
from clbench import scenarios  # noqa: E402

for path in sys.argv[1:]:
    report = scenarios.validate_stream(scenarios.build_stream(scenarios.load_manifest(path)))
    if not report.ok:
        sys.exit(f"{path}: stream validation failed: {report.violations}")
print(time.perf_counter() - start)
