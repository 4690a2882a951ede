"""Topology metrics over the implicit social network (paper Section V-A).

The paper characterises the overlay the WUP/clustering views induce:

* the fraction of nodes in the **largest strongly connected component**
  (Figure 4) — once it reaches 1, "news items can be spread through any
  user and are not restricted to a subpart of the network", which is where
  the F1 plateaus of Figure 3 begin;
* the **average clustering coefficient** — the WUP metric yields ~0.15
  against ~0.40 for cosine on the survey workload, explaining cosine's
  hub-and-cluster pathology;
* the **number of (weakly) connected components** at small fanouts —
  fragmentation (WHATSUP ~1.6 components at fanout 3 versus ~12.4 for the
  cosine variant).

Graphs are :class:`networkx.DiGraph` objects, so these functions need
networkx; it is imported when they run, never by ``import repro``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from repro.gossip.views import View

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = [
    "overlay_graph",
    "lscc_fraction",
    "weak_component_count",
    "average_clustering",
    "in_degree_concentration",
]


def _default_view(node) -> View:
    """Locate a node's clustering view (WHATSUP or CF node)."""
    for attr in ("wup", "clustering"):
        proto = getattr(node, attr, None)
        if proto is not None and hasattr(proto, "view"):
            return proto.view
    raise AttributeError(
        f"node {node!r} has no clustering view; pass an explicit view_of"
    )


def overlay_graph(
    nodes: Iterable,
    view_of: Callable[[object], View] | None = None,
) -> nx.DiGraph:
    """Build the directed overlay induced by the nodes' clustering views.

    An edge ``u → v`` means *v* is in *u*'s view (u can forward items to
    v).  Dead nodes (churn) are excluded along with their edges.
    """
    import networkx as nx

    view_of = view_of if view_of is not None else _default_view
    graph = nx.DiGraph()
    alive: dict[int, object] = {
        node.node_id: node for node in nodes if getattr(node, "alive", True)
    }
    graph.add_nodes_from(alive)
    for nid, node in alive.items():
        for entry in view_of(node).entries():
            if entry.node_id in alive:
                graph.add_edge(nid, entry.node_id)
    return graph


def lscc_fraction(graph: nx.DiGraph) -> float:
    """Fraction of nodes in the largest strongly connected component."""
    n = graph.number_of_nodes()
    if n == 0:
        return 0.0
    import networkx as nx

    largest = max(nx.strongly_connected_components(graph), key=len)
    return len(largest) / n


def weak_component_count(graph: nx.DiGraph) -> int:
    """Number of weakly connected components (fragmentation measure)."""
    if graph.number_of_nodes() == 0:
        return 0
    import networkx as nx

    return nx.number_weakly_connected_components(graph)


def average_clustering(graph: nx.DiGraph) -> float:
    """Average clustering coefficient of the undirected projection."""
    if graph.number_of_nodes() == 0:
        return 0.0
    import networkx as nx

    return float(nx.average_clustering(graph.to_undirected()))


def in_degree_concentration(graph: nx.DiGraph, top_fraction: float = 0.05) -> float:
    """Share of in-links pointing at the top ``top_fraction`` of nodes.

    A hub-formation measure: cosine similarity concentrates in-links on
    popular large-profile nodes, the WUP metric spreads them (Section V-A's
    "avoiding node concentration around hubs").
    """
    n = graph.number_of_nodes()
    total = graph.number_of_edges()
    if n == 0 or total == 0:
        return 0.0
    k = max(1, int(round(top_fraction * n)))
    degrees = sorted((d for _, d in graph.in_degree()), reverse=True)
    return sum(degrees[:k]) / total
