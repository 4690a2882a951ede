"""Smoke test of the benchmark package (tier-1, a few seconds).

A 30-user miniature of each workload shape runs untraced and traced, in this
process.  Holds ``BENCHMARK.json`` and the code together by name, checks that
tracing cannot change an outcome, and that every patched attribute is put
back so the rest of the suite is unperturbed.
"""

from __future__ import annotations

import copy
from time import perf_counter

import pytest

from .child import run_experiment
from .compare import compare
from .harness import Ledger, format_table
from .spec import WORKLOADS, load_manifest, manifest
from .tracer import SHARD_SPANS, SPANS, target_owner

SEED = 3


def _targets():
    for targets in (*SPANS.values(), *SHARD_SPANS.values()):
        for module_name, class_name, attr in targets:
            yield target_owner(module_name, class_name), attr


def test_miniature_workloads_untraced_and_traced():
    committed = load_manifest()
    assert committed == manifest(), "BENCHMARK.json is not spec.manifest()"
    assert [w["name"] for w in committed["workloads"]] == list(WORKLOADS)

    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in _targets()]
    ledger = Ledger(SEED, mini=True)
    for name in WORKLOADS:
        for trace in (False, True):
            t0 = perf_counter()
            result = run_experiment(
                name, SEED, trace=trace, mini=True, require_native=False
            )
            result["wall_s"] = perf_counter() - t0
            result.pop("rows", None)
            ledger.add(name, result, trace)
        untraced, traced = ledger.untraced[name][0], ledger.traced[name][0]
        assert traced["digest"] == untraced["digest"], name
        assert traced["f1"] == untraced["f1"] > 0.0, name
        assert untraced["cycles"] >= untraced["horizon"] > 0

    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"

    for name in WORKLOADS:
        assert list(ledger.end_to_end(name)) == [
            m["name"] for m in committed["end_to_end"]
        ]
        layers = ledger.per_layer(name)
        assert list(layers) == [m["name"] for m in committed["per_layer"]]
        sharded = WORKLOADS[name].shards > 1
        assert (layers["simulation.sharding.run_s"] > 0.0) == sharded
        assert (layers["simulation.wire.frames"] > 0) == sharded
        assert (layers["core.node.begin_cycle.calls"] > 0) == (not sharded)
    lossy = ledger.per_layer("survey-lossy")
    assert lossy["core.node.receive_items.calls"] == 0
    assert lossy["core.node.receive_item.calls"] > 0
    assert lossy["simulation.engine.send_item.calls"] > 0
    shard2 = ledger.per_layer("synthetic-shard2")
    assert shard2["simulation.sharding.overhead_ratio"] > 0.0

    host = {"nproc": 2, "git_commit": None}
    doc = ledger.document(host)
    text = format_table(doc)
    for metric in (*committed["end_to_end"], *committed["per_layer"]):
        assert metric["name"] in text
    report, worse = compare(doc, doc)
    assert not worse and "identical" in report
    # at one seed f1 repeats exactly: a drop of 0.01 is worse, not "same"
    dropped = copy.deepcopy(doc)
    f1 = dropped["workloads"]["survey-burst"]["end_to_end"]["f1"]
    for key in ("median", "q1", "q3"):
        f1[key] -= 0.01
    f1["values"] = [value - 0.01 for value in f1["values"]]
    report, worse = compare(doc, dropped)
    assert worse and "1 differ" in report
    with pytest.raises(ValueError, match="seed"):
        compare(doc, {**doc, "seed": SEED + 1})
