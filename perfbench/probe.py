"""Set-up probe: one fresh interpreter doing one workload's set-up.

``run.py`` times this script from spawn to exit; that wall time is one
``setup_s`` sample.  The probe itself reports its phases as one JSON
line on stdout::

    python3 perfbench/probe.py WORKLOAD SEED SIZE
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv) -> int:
    name, seed, size_name = argv[0], int(argv[1]), argv[2]
    started = time.perf_counter()
    import repro.cli  # noqa: F401 -- the import being timed

    import_s = time.perf_counter() - started
    from workloads import SIZES, WORKLOADS

    phases = WORKLOADS[name]().setup(seed, SIZES[size_name])
    print(json.dumps({"import_s": import_s, **phases}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
