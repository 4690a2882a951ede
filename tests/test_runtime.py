"""What a simulation process pays the Python runtime for: nothing it skips.

:mod:`repro.utils.runtime` runs the cycle loops, system construction,
state adoption and the shard workers with automatic cyclic collection
paused.  That is sound only while the simulation creates no reference
cycles, so the first tests here hold every run — both pipelines, lossless
and 10 % loss, churn, cold-start joins, every system in the factory, shard
workers — to **zero** cyclic garbage, measured with ``gc.DEBUG_SAVEALL``
around build, run and teardown.  The rest pin the pause's own contract and
the import budget: a simulation process never loads networkx.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import RunConfig
from repro.core import WhatsUpConfig, WhatsUpNode, WhatsUpSystem
from repro.experiments.factory import SYSTEM_NAMES, build_system
from repro.utils.runtime import collector_paused
from tests.test_pipeline_grid import SCENARIOS, _mini_survey, run_pipeline

REPO_ROOT = Path(__file__).resolve().parent.parent


def cyclic_garbage(body) -> list[str]:
    """Type names of the unreachable cyclic objects *body* leaves behind."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        body()
        gc.collect()
        return sorted(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run *code* in a fresh interpreter with the ``src`` layout importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


# -- (a) the invariant the pause relies on -------------------------------- #


@pytest.mark.parametrize("pipeline", ["reference", "fast"])
@pytest.mark.parametrize(
    "scenario", ["small-survey", "lossy", "medium-survey-churn", "coldstart-joins"]
)
def test_run_leaves_no_cyclic_garbage(scenario, pipeline):
    build, kwargs, _exercised = SCENARIOS[scenario]
    dataset = build()
    assert cyclic_garbage(lambda: run_pipeline(pipeline, dataset, **kwargs)) == []


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_every_system_is_freed_by_reference_counting(name):
    if name == "cascade":
        from repro.datasets import digg_dataset

        pytest.importorskip("networkx")
        dataset = digg_dataset(n_users=30, n_items=24, seed=1)
    else:
        dataset = _mini_survey(3, 5)

    def build_run_drop():
        build_system(name, dataset, seed=3).run(8)

    assert cyclic_garbage(build_run_drop) == []


# -- (b) shard workers ----------------------------------------------------- #


class CyclicNode(WhatsUpNode):
    """Leaves one self-referencing list behind per cycle (positive control)."""

    __slots__ = ()

    def begin_cycle(self, engine, now: int) -> None:
        loop: list = []
        loop.append(loop)
        super().begin_cycle(engine, now)


def _worker_garbage(pipeline: str, node_cls=WhatsUpNode) -> list[int]:
    build, kwargs, _exercised = SCENARIOS["shards2"]
    system = WhatsUpSystem(
        build(),
        WhatsUpConfig(f_like=kwargs["f_like"]),
        seed=kwargs["seed"],
        node_cls=node_cls,
        run_config=RunConfig(mode=pipeline, shards=2),
    )
    try:
        system.run()
        assert system.log.n_deliveries > 0
        return [shard["cyclic_garbage"] for shard in system.engine.mailbox_stats()]
    finally:
        system.close()


@pytest.mark.parametrize("pipeline", ["reference", "fast"])
def test_shard_workers_leave_no_cyclic_garbage(pipeline):
    assert _worker_garbage(pipeline) == [0, 0]


def test_shard_workers_report_the_cycles_they_leave():
    # the count is real: a node class that builds reference cycles shows up
    per_worker = _worker_garbage("fast", node_cls=CyclicNode)
    assert len(per_worker) == 2 and min(per_worker) > 0


# -- (c) the pause's contract ---------------------------------------------- #


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_paused_restores_the_callers_state(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is enabled
        with pytest.raises(RuntimeError, match="boom"), collector_paused():
            raise RuntimeError("boom")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_engine_runs_paused_and_restores(enabled):
    system = WhatsUpSystem(
        _mini_survey(3, 5), WhatsUpConfig(f_like=8), seed=5, run_config=RunConfig()
    )
    inside: list[bool] = []
    system.engine.add_observer(lambda _engine, _cycle: inside.append(gc.isenabled()))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        system.engine.run(3)
        assert gc.isenabled() is enabled
        system.engine.run_until_drained()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert len(inside) > 3 and not any(inside)


# -- (d) the import budget ------------------------------------------------- #


def test_simulation_imports_load_no_networkx():
    proc = run_python(
        "import sys, repro, repro.api, repro.core, repro.metrics\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_quickstart_runs_without_networkx():
    proc = run_python(
        "import runpy, sys\n"
        "sys.modules['networkx'] = None  # import networkx now raises\n"
        "runpy.run_path('examples/quickstart.py', run_name='__main__')\n"
        "from repro.datasets import digg_dataset\n"
        "from repro.metrics.graph import overlay_graph\n"
        "for needs_graphs in (\n"
        "    lambda: digg_dataset(n_users=20, n_items=30, n_categories=4),\n"
        "    lambda: overlay_graph([]),\n"
        "):\n"
        "    try:\n"
        "        needs_graphs()\n"
        "    except ImportError as exc:\n"
        "        assert 'networkx' in str(exc), exc\n"
        "    else:\n"
        "        raise AssertionError('ran without networkx')\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert "F1-Score" in proc.stdout
