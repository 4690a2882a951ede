"""The repo benchmark: whole-experiment workloads plus an outside-in layer ledger.

See ``README.md`` next to this file.  Entry points::

    PYTHONPATH=src python -m benchmarks.ledger run [--seed 2] [--out result.json]
    PYTHONPATH=src python -m benchmarks.ledger compare A.json B.json
    python3 benchmarks/ledger/run.py --workload survey-burst --seed 2 \\
        --seconds 24 --trace 0

Importing this package imports nothing of ``repro`` and starts nothing.
"""
