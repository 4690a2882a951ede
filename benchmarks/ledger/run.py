"""The ``BENCHMARK.json`` command (see ``cli.driver_main``).

Run as a script from the root of a checkout, so the package is imported
through the repo root rather than through this file's own directory.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path[0] = str(Path(__file__).resolve().parents[2])
    from benchmarks.ledger.cli import driver_main

    sys.exit(driver_main())
