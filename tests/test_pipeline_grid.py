"""The pipeline grid: ``reference`` ≡ ``fast`` ≡ ``fast`` without kernels.

The one end-to-end equivalence suite of the pipeline matrix.  Every
scenario runs once on the ``reference`` pipeline (per-pair scalar scoring,
one envelope at a time, dict views — the oracle) and once on each ``fast``
variant (with the native kernels, and with them switched off, which is the
no-compiler box), and everything a run can influence must come out
**bitwise identical**: event-log arrays, duplicate counts, traffic
counters, view rows in slot order, profiles, seen sets.  Each pipeline
must also have built the view store its tier selects.

The scenarios cover the four ledger workload shapes in miniature (flash
crowd, steady synthetic, 10 % loss, two shards) plus the paths only a
longer run reaches: churn (dead-target drops, revived nodes with aged
views) and mid-run cold-start joins.  The generated-input form of the
same claim is ``test_pipelines_agree_on_generated_runs`` in
``tests/test_property_invariants.py``.
"""

from __future__ import annotations

import pytest

from repro._native import native_available
from repro.api import RunConfig
from repro.core import WhatsUpConfig, WhatsUpSystem
from repro.datasets import survey_dataset, synthetic_dataset
from repro.experiments.scale import SCALES
from repro.gossip.views import View
from repro.network.transport import UniformLossTransport
from repro.simulation.churn import ChurnModel

#: ``fast-nokernel`` is the pipeline a box without the extension gets
PIPELINES = {
    "reference": RunConfig(mode="reference"),
    "fast": RunConfig(),
    "fast-nokernel": RunConfig(native=False),
}


def expected_store(pipeline: str) -> str:
    """The view store follows the tier: columns only with live kernels."""
    return "ArrayView" if pipeline == "fast" and native_available() else "View"


def _thirds_opinion(_nid, item) -> bool:
    """Deterministic joiner oracle (module-level: joiners get pickled)."""
    return item.item_id % 3 != 0


def full_state(system: WhatsUpSystem) -> dict:
    """Everything a pipeline could perturb, in comparable form."""
    log = system.engine.log
    arrays = log.arrays()
    stats = system.engine.stats
    nodes = sorted(system.nodes, key=lambda n: n.node_id)

    def rows(view):
        # slot/insertion order, not just membership: iteration order feeds
        # every downstream RNG draw
        return [(e.node_id, e.timestamp) for e in view.entries()]

    return {
        "log": {key: arrays[key].tolist() for key in sorted(arrays)},
        "duplicates": log.duplicates,
        "sent": {str(k): v for k, v in stats.sent.items()},
        "delivered": {str(k): v for k, v in stats.delivered.items()},
        "dropped": {str(k): v for k, v in stats.dropped.items()},
        "bytes": {str(k): v for k, v in stats.bytes_delivered.items()},
        "pending": system.engine.pending_item_messages(),
        "alive": [n.node_id for n in nodes if n.alive],
        "wup": {n.node_id: rows(n.wup.view) for n in nodes},
        "rps": {n.node_id: rows(n.rps.view) for n in nodes},
        "profiles": {n.node_id: sorted(n.profile.scores.items()) for n in nodes},
        "seen": {n.node_id: sorted(n.seen) for n in nodes},
    }


def run_pipeline(
    pipeline: str,
    dataset,
    *,
    f_like: int,
    seed: int,
    cycles: int | None = None,
    shards: int = 1,
    loss: float = 0.0,
    churn: dict | None = None,
    joins: int = 0,
) -> dict:
    """One fixed-seed run on *pipeline*; returns its :func:`full_state`.

    *cycles* ``None`` runs the publication window and drains.  *joins*
    cold-starts that many nodes halfway through.
    """
    store = expected_store(pipeline)
    churn_model = ChurnModel(**churn) if churn is not None else None
    system = WhatsUpSystem(
        dataset,
        WhatsUpConfig(f_like=f_like),
        seed=seed,
        transport=UniformLossTransport(loss) if loss else None,
        churn=churn_model,
        run_config=PIPELINES[pipeline].replace(shards=shards),
    )
    try:
        if joins:
            system.run(cycles // 2, drain=False)
            base = max(n.node_id for n in system.nodes) + 1
            for j in range(joins):
                system.join_node(base + j, opinion=_thirds_opinion, contact_id=j * 7)
            system.run(cycles - cycles // 2, drain=False)
        else:
            system.run(cycles, drain=cycles is None)
        arena = shards > 1 and bool(system.engine.state_map())
        state = full_state(system)
        views = [v for n in system.nodes for v in (n.rps.view, n.wup.view)]
    finally:
        system.close()
    assert {type(v).__name__ for v in views} == {store}, pipeline
    if store == "View":
        assert not arena, "dict views have no column block to map"
    if churn_model is not None:
        state["churn"] = (churn_model.total_kills, churn_model.total_rejoins)
    return state


def _mini_survey(seed: int, publish_cycles: int):
    return survey_dataset(
        n_base_users=30,
        n_base_items=24,
        n_topics=6,
        n_groups=3,
        topics_per_group=2,
        publish_cycles=publish_cycles,
        seed=seed,
    )


def _mini_synthetic(seed: int):
    return synthetic_dataset(
        n_users=30,
        n_communities=3,
        items_per_community=4,
        size_ratio=2.0,
        publish_cycles=5,
        seed=seed,
    )


def _delivers(ref: dict) -> bool:
    return len(ref["log"]["d_item"]) > 0


#: scenario -> (dataset builder, run_pipeline keywords, "the reference run
#: went through the paths the scenario names")
SCENARIOS = {
    "small-survey": (
        lambda: SCALES["small"].dataset("survey", seed=5),
        dict(f_like=8, seed=5, cycles=30),
        _delivers,
    ),
    "medium-survey-churn": (
        lambda: SCALES["medium"].dataset("survey", seed=11),
        dict(
            f_like=8,
            seed=11,
            cycles=18,
            churn=dict(kill_rate=0.04, rejoin_after=2, start_cycle=3),
        ),
        lambda ref: min(ref["churn"]) > 0,  # kills and rejoins
    ),
    "small-synthetic": (
        lambda: SCALES["small"].dataset("synthetic", seed=9),
        dict(f_like=6, seed=9, cycles=20),
        _delivers,
    ),
    # survey-burst's shape: several first receipts of one fan-out — one
    # shared in-flight object — in the same cycle's inboxes, next to the
    # duplicates that are dropped unforked
    "flash-crowd": (
        lambda: survey_dataset(
            n_base_users=60, n_base_items=40, publish_cycles=2, seed=9
        ),
        dict(f_like=16, seed=9),
        lambda ref: ref["duplicates"] > len(ref["log"]["d_item"])
        and ref["pending"] == 0,
    ),
    "coldstart-joins": (
        lambda: SCALES["small"].dataset("survey", seed=13),
        dict(f_like=8, seed=13, cycles=20, joins=3),
        _delivers,
    ),
    # survey-lossy's shape: loss draws force one envelope at a time on every
    # pipeline, so only the scoring tier and the store differ
    "lossy": (
        lambda: _mini_survey(3, 5),
        dict(f_like=16, seed=3, loss=0.1),
        lambda ref: ref["dropped"]["item"] > 0,
    ),
    # outcomes are salted by shard count by design, so the oracle is the
    # reference pipeline at the same count
    "shards2": (
        lambda: _mini_synthetic(4),
        dict(f_like=10, seed=4, shards=2),
        _delivers,
    ),
}


@pytest.fixture(scope="module", params=list(SCENARIOS))
def scenario(request):
    """``(name, dataset, keywords, reference state)`` of one scenario."""
    build, kwargs, exercised = SCENARIOS[request.param]
    dataset = build()
    reference = run_pipeline("reference", dataset, **kwargs)
    assert exercised(reference)
    return request.param, dataset, kwargs, reference


@pytest.mark.parametrize("pipeline", ["fast", "fast-nokernel"])
def test_pipelines_identical(scenario, pipeline):
    if pipeline == "fast" and not native_available():
        pytest.skip("native extension not built: fast is fast-nokernel")
    name, dataset, kwargs, reference = scenario
    got = run_pipeline(pipeline, dataset, **kwargs)
    for key in reference:
        assert got[key] == reference[key], f"{name}/{pipeline}: {key} differs"


def test_joiner_follows_the_systems_run_config():
    """``join_node`` builds and bootstraps the joiner under ``run_config``."""
    dataset = _mini_survey(3, 5)
    system = WhatsUpSystem(
        dataset,
        WhatsUpConfig(f_like=5),
        seed=3,
        run_config=RunConfig(mode="reference"),
    )
    system.run(3, drain=False)
    joiner = system.join_node(dataset.n_users, opinion=_thirds_opinion)
    assert type(joiner.rps.view) is View and type(joiner.wup.view) is View
