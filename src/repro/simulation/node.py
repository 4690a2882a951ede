"""The protocol-node interface.

Every system under test — WHATSUP, the CF baselines, homogeneous gossip,
cascading — implements :class:`BaseNode`.  The engine drives nodes through
four callbacks and nodes act on the network exclusively through the engine's
routing methods (``engine.gossip`` and ``engine.send_item``), which apply
the transport's loss model and account traffic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import suppress
from typing import TYPE_CHECKING

from repro.core.news import ItemCopy, NewsItem
from repro.network.message import MessageKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.engine import CycleEngine

__all__ = ["BaseNode"]


class BaseNode(ABC):
    """One simulated participant.

    Subclasses hold all protocol state (views, profiles, seen-item sets).
    The engine guarantees:

    * :meth:`begin_cycle` is called once per cycle while the node is alive,
      before any item deliveries of that cycle;
    * :meth:`receive_item` is called once per *delivered* item copy; copies
      sent in cycle *t* arrive in cycle *t + 1*;
    * :meth:`on_gossip` is called synchronously within a partner's
      :meth:`begin_cycle` when a gossip message survives the transport.
    """

    __slots__ = ("node_id", "_alive", "_alive_listener")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._alive = True
        self._alive_listener = None

    def __getstate__(self) -> dict:
        """Serialize every slot across the class hierarchy but the engine hook.

        ``_alive_listener`` is a weak reference to a bound method of the
        owning engine — process-local, and it would name the entire
        engine (and with it every other node) in any pickle of a single
        node.  The receiving engine re-arms the hook when the node is
        registered (shard workers, mid-run joins).
        """
        state = {}
        for klass in type(self).__mro__:
            for name in getattr(klass, "__slots__", ()):
                if name == "_alive_listener" or name in state:
                    continue
                with suppress(AttributeError):  # unset slot
                    state[name] = getattr(self, name)
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._alive_listener = None

    @property
    def alive(self) -> bool:
        """Dead nodes receive nothing and take no actions (churn model)."""
        return self._alive

    @alive.setter
    def alive(self, value: bool) -> None:
        value = bool(value)
        if value == self._alive:
            return
        self._alive = value
        # the engine hooks this to keep its alive-id cache coherent no
        # matter who flips the flag (churn models, tests, experiments);
        # the hook is weak so engine and nodes form no reference cycle and
        # a dropped system is freed without the cyclic collector
        listener = self._alive_listener
        if listener is not None:
            notify = listener()
            if notify is not None:
                notify(self.node_id, value)

    @abstractmethod
    def begin_cycle(self, engine: "CycleEngine", now: int) -> None:
        """Run periodic maintenance (gossip exchanges) for this cycle."""

    def on_gossip(
        self,
        msg: object,
        kind: MessageKind,
        engine: "CycleEngine",
        now: int,
    ) -> object | None:
        """Handle a gossip message; return a reply payload or ``None``.

        Default: ignore gossip (systems without overlay maintenance).
        """
        return None

    @abstractmethod
    def receive_item(
        self,
        copy: ItemCopy,
        via_like: bool,
        engine: "CycleEngine",
        now: int,
    ) -> None:
        """Handle the delivery of one item copy.

        Implementations must log the receipt via ``engine.log_delivery``
        (a first receipt) or ``engine.log_duplicate`` so duplicates are
        counted and metrics see every delivery.
        """

    def receive_items(
        self,
        deliveries: "list[tuple[int, ItemCopy, bool]]",
        engine: "CycleEngine",
        now: int,
    ) -> None:
        """Handle this node's whole per-cycle delivery batch.

        Called by the engine's batched delivery path with the node's full
        cycle inbox (``(sender, copy, via_like)`` rows in arrival order).
        The default delegates to :meth:`receive_item` per row — protocols
        without a bulk implementation keep exact per-message semantics;
        overrides must produce the same outcomes as that loop.  A copy in
        a batched inbox may be shared between recipients, so the default
        hands :meth:`receive_item` a private fork; an override must fork
        before keeping or mutating a copy.
        """
        receive = self.receive_item
        for _sender, copy, via_like in deliveries:
            receive(copy.fork(), via_like, engine, now)

    @abstractmethod
    def publish(self, item: NewsItem, engine: "CycleEngine", now: int) -> None:
        """Publish a fresh item (this node is the source)."""
