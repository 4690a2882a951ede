"""System assembly: build a runnable WHATSUP deployment.

:class:`WhatsUpSystem` wires a workload (:class:`~repro.datasets.base.Dataset`),
a parameter set (:class:`~repro.core.config.WhatsUpConfig`) and a transport
into a ready :class:`~repro.simulation.engine.CycleEngine` population of
:class:`~repro.core.node.WhatsUpNode`.  It also implements the initial
bootstrap (random overlay seeding — the simulation analogue of the tracker /
address cache a real deployment would use) and mid-run joins via the
paper's cold-start procedure (Section II-D).
"""

from __future__ import annotations

import numpy as np

from contextlib import nullcontext
from typing import TYPE_CHECKING

from repro.core.coldstart import bootstrap_from_contact
from repro.core.config import WhatsUpConfig
from repro.core.node import OpinionFn, WhatsUpNode
from repro.gossip.bootstrap import random_view_bootstrap
from repro.network.transport import Transport
from repro.simulation.harness import SystemHarness
from repro.simulation.sharding import make_engine
from repro.utils.exceptions import SimulationError
from repro.utils.rng import RngStreams

if TYPE_CHECKING:  # pragma: no cover - typing only
    # imported lazily at runtime to avoid a core <-> datasets import cycle
    from repro.datasets.base import Dataset

__all__ = ["WhatsUpSystem", "seed_random_views"]


def seed_random_views(
    nodes: list[WhatsUpNode], rng: np.random.Generator
) -> None:
    """Fill every node's RPS and WUP views with uniform random peers.

    At start-up all profiles are empty, so there is no similarity signal
    yet; random seeding matches the paper's deployment, where a joining
    node inherits views from an arbitrary contact.  Descriptors are stamped
    with cycle 0 and the peers' (empty) profile snapshots.
    """
    random_view_bootstrap(nodes, rng, lambda n: (n.rps.view, n.wup.view))


class WhatsUpSystem(SystemHarness):
    """A complete WHATSUP deployment over a workload.

    Parameters
    ----------
    dataset:
        The workload (users, items, ground-truth opinions, schedule).
    config:
        Protocol parameters; defaults to the paper's Table II values.
    seed:
        Root seed; every random choice in the run derives from it.
    transport:
        Optional loss model (default: perfect delivery, the paper's
        simulation setting).
    churn:
        Optional churn model.
    run_config:
        Optional :class:`repro.api.RunConfig` pinning the whole pipeline
        gate matrix (mode, shards, wire tier, kernels, faults, …) for this
        system.  Construction, every :meth:`run` and every
        :meth:`join_node` execute under ``run_config.apply()``, so the
        configuration holds without touching env vars or module gates.

    Examples
    --------
    >>> from repro.datasets import survey_dataset
    >>> system = WhatsUpSystem(survey_dataset(n_base_users=30, n_base_items=40))
    >>> system.run()                                    # doctest: +SKIP
    """

    system_name = "whatsup"

    def __init__(
        self,
        dataset: "Dataset",
        config: WhatsUpConfig | None = None,
        *,
        seed: int = 0,
        transport: Transport | None = None,
        churn: object | None = None,
        node_cls: type[WhatsUpNode] = WhatsUpNode,
        node_kwargs: dict | None = None,
        run_config: object | None = None,
    ) -> None:
        self._run_config = run_config
        with self._configured():
            self._build(
                dataset,
                config,
                seed=seed,
                transport=transport,
                churn=churn,
                node_cls=node_cls,
                node_kwargs=node_kwargs,
            )

    def _configured(self):
        """``run_config.apply()``, or a no-op guard when none was given."""
        if self._run_config is None:
            return nullcontext()
        return self._run_config.apply()

    def _build(
        self,
        dataset: "Dataset",
        config: WhatsUpConfig | None,
        *,
        seed: int,
        transport: Transport | None,
        churn: object | None,
        node_cls: type[WhatsUpNode],
        node_kwargs: dict | None,
    ) -> None:
        from repro.datasets.base import OpinionOracle

        self.config = config if config is not None else WhatsUpConfig()
        self.streams = RngStreams(seed)
        self.oracle: OpinionFn = OpinionOracle(dataset)

        extra = dict(node_kwargs or {})
        self.nodes: list[WhatsUpNode] = [
            node_cls(uid, self.config, self.oracle, self.streams, **extra)
            for uid in range(dataset.n_users)
        ]
        seed_random_views(self.nodes, self.streams.get("bootstrap"))

        # the factory honours REPRO_SHARDS: 1 (the default) is a plain
        # CycleEngine, above that the population runs process-sharded
        # (see repro.simulation.sharding)
        engine = make_engine(
            self.nodes,
            dataset.schedule(),
            transport=transport,
            streams=self.streams,
            churn=churn,
        )
        super().__init__(dataset, engine)
        if self.config.similarity != "wup":
            # paper naming: the cosine variant is "WhatsUp-Cos"
            short = {"cosine": "cos"}.get(
                self.config.similarity, self.config.similarity
            )
            self.system_name = f"whatsup-{short}"

    # ------------------------------------------------------------------ #

    def run(self, cycles: int | None = None, *, drain: bool = True) -> None:
        """Run the deployment (see :meth:`SystemHarness.run`).

        Under a sharded engine (``REPRO_SHARDS>1``) the worker state is
        adopted back into the parent afterwards, and ``self.nodes`` is
        re-pointed at the collected node objects so post-run analyses
        (profiles, views, seen sets) read the real final state.  With a
        ``run_config``, the cycles execute under it (the pipeline mode is
        read at merge and cycle time).
        """
        with self._configured():
            super().run(cycles, drain=drain)
        engine = self.engine
        if hasattr(engine, "collect"):
            engine.collect()
            fresh = engine.nodes
            self.nodes = [fresh[node.node_id] for node in self.nodes]

    def close(self) -> None:
        """Release engine resources (sharded worker processes/segments)."""
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()

    # ------------------------------------------------------------------ #

    def join_node(
        self,
        node_id: int,
        opinion: OpinionFn | None = None,
        *,
        contact_id: int | None = None,
    ) -> WhatsUpNode:
        """Add a node mid-run via the paper's cold-start procedure.

        Parameters
        ----------
        node_id:
            Id for the new node (must be unused).
        opinion:
            The joiner's opinion oracle; defaults to the dataset oracle
            (valid when ``node_id < dataset.n_users``, e.g. a user whose
            node was not part of the initial population).
        contact_id:
            The existing node contacted for bootstrap; default a uniformly
            random alive node.
        """
        if opinion is None:
            if node_id >= self.dataset.n_users:
                raise SimulationError(
                    f"node id {node_id} has no dataset opinions; pass an "
                    "explicit opinion oracle"
                )
            opinion = self.oracle
        rng = self.streams.get("join")
        if contact_id is None:
            alive = self.engine.alive_node_ids()
            if not alive:
                raise SimulationError("no alive node to bootstrap from")
            contact_id = int(alive[int(rng.integers(len(alive)))])
        contact = self.engine.node(contact_id)
        if not isinstance(contact, WhatsUpNode):
            raise SimulationError(
                f"contact {contact_id} is not a WhatsUpNode"
            )
        item_timestamps = {
            item.item_id: item.created_at for item in self.dataset.items
        }
        with self._configured():
            joiner = WhatsUpNode(node_id, self.config, opinion, self.streams)
            bootstrap_from_contact(
                joiner,
                contact,
                self.engine.now,
                item_timestamps=item_timestamps,
            )
        self.engine.add_node(joiner)
        self.nodes.append(joiner)
        return joiner

    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WhatsUpSystem(dataset={self.dataset.name!r}, "
            f"nodes={len(self.nodes)}, f_like={self.config.f_like}, "
            f"metric={self.config.similarity!r})"
        )
