"""Command lines of the benchmark.

* ``python -m benchmarks.ledger run`` — all four workloads, repeats
  interleaved round-robin, then the traced repeats; prints every metric and
  optionally writes the result JSON plus ``trace-<workload>.jsonl``.
* ``python -m benchmarks.ledger compare A.json B.json`` — see ``compare.py``.
* ``python -m benchmarks.ledger manifest`` — prints ``BENCHMARK.json``.
* ``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
  --trace 0|1`` — the driver contract: one workload, time-bounded, one JSON
  object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

from . import compare
from .harness import Ledger, format_table, prepare
from .spec import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS, manifest

__all__ = ["main", "driver_main"]

#: traced repeats per workload of one ``run``
TRACED_REPEATS = 3

#: fewest untraced repeats (or untraced/traced pairs) of one driver run
MIN_REPEATS = 3
MIN_PAIRS = 2


def _run(args: argparse.Namespace) -> int:
    host = prepare()
    ledger = Ledger(args.seed)
    out = Path(args.out) if args.out else None
    # round-robin, so a slow minute on the box is spread over the workloads,
    # and each traced repeat next to an untraced one of the same workload
    for index in range(max(w.repeats for w in WORKLOADS.values())):
        for name, workload in WORKLOADS.items():
            if index >= workload.repeats:
                continue
            ledger.repeat(name)
            if index < TRACED_REPEATS:
                keep = out is not None and index == 0
                ledger.repeat(
                    name,
                    trace=True,
                    trace_out=out.parent / f"trace-{name}.jsonl" if keep else None,
                )
    doc = ledger.document(host)
    print(
        f"seed {args.seed}  python {host['python']}  numpy {host['numpy']}  "
        f"nproc {host['nproc']}  load {host['loadavg_1m']:.2f}  "
        f"native {host['native']}  commit {host['git_commit']}"
    )
    print(format_table(doc))
    if out is not None:
        out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if any(w["failed"] for w in doc["workloads"].values()) else 0


def _compare(args: argparse.Namespace) -> int:
    try:
        text, worse = compare.compare(
            json.loads(Path(args.a).read_text()), json.loads(Path(args.b).read_text())
        )
    except ValueError as refused:
        print(f"compare: {refused}", file=sys.stderr)
        return 2
    print(text)
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    """``python -m benchmarks.ledger``."""
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the workloads and print every metric")
    run.add_argument("--seed", type=int, default=2)
    run.add_argument("--out", help="result JSON; trace-<workload>.jsonl go next to it")
    run.set_defaults(fn=_run)
    cmp_ = sub.add_parser("compare", help="compare two result files of `run`")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(fn=_compare)
    man = sub.add_parser("manifest", help="print BENCHMARK.json")
    man.set_defaults(fn=lambda _args: print(json.dumps(manifest(), indent=2)) or 0)
    args = parser.parse_args(argv)
    return args.fn(args)


def driver_main(argv: list[str] | None = None) -> int:
    """``run.py``: one workload for ``--seconds``, result JSON on the last line."""
    parser = argparse.ArgumentParser(prog="benchmarks/ledger/run.py")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare()
    name = args.workload
    ledger = Ledger(args.seed)
    started = perf_counter()
    longest = 0.0
    if args.trace and WORKLOADS[name].twin:
        ledger.repeat(WORKLOADS[name].twin)  # base of the sharding overhead ratio
        started = perf_counter()
    rounds = 0
    while True:
        t0 = perf_counter()
        ledger.repeat(name)
        if args.trace:
            ledger.repeat(name, trace=True)
        rounds += 1
        longest = max(longest, perf_counter() - t0)
        enough = rounds >= (MIN_PAIRS if args.trace else MIN_REPEATS)
        if enough and perf_counter() - started + longest > args.seconds:
            break
    attempted, failed, problems = ledger.check(name)
    for problem in problems:
        print(f"!! {problem}")
    if not ledger.completed(name, trace=bool(args.trace)):
        raise SystemExit(f"{name}: no repeat succeeded, nothing to report")
    if args.trace:
        units = {metric: unit for metric, unit, _better in PER_LAYER}
        values = ledger.per_layer(name)
    else:
        units = {metric: unit for metric, unit, _better, _bound in END_TO_END}
        values = {m: s["median"] for m, s in ledger.end_to_end(name).items()}
    for metric, value in values.items():
        print(f"{metric:<44} {value:>16.6g} {units[metric]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": max(1, attempted),
                "failed": failed,
                "metrics": {
                    metric: {"value": value, "unit": units[metric]}
                    for metric, value in values.items()
                },
            }
        )
    )
    return 0
