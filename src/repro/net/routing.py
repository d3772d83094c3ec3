"""Static routing over a topology.

CPS networks are statically configured, so routes are computed once (shortest
path by hop count, deterministic tie-breaking) and cached. When nodes fail,
the mode's plan routes around them: :meth:`Router.route` accepts an
``excluding`` set and finds paths that avoid those nodes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

import networkx as nx

from .topology import Topology


class RoutingError(Exception):
    """Raised when no route exists (partition, excluded nodes)."""


class Router:
    """Shortest-path routing with failure-aware recomputation."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._cache: Dict[Tuple[str, str, FrozenSet[str]], List[str]] = {}

    def route(
        self, src: str, dst: str, excluding: Optional[set] = None
    ) -> List[str]:
        """Node path from ``src`` to ``dst`` (inclusive), avoiding
        ``excluding``. Intermediate hops never include excluded nodes;
        ``src``/``dst`` themselves are allowed regardless (a plan never asks
        a faulty node for anything, but routing shouldn't hide that bug)."""
        key = (src, dst, frozenset(excluding or ()))
        if key in self._cache:
            return self._cache[key]
        graph = self.topology.graph
        if excluding:
            keep = [n for n in graph.nodes
                    if n not in excluding or n in (src, dst)]
            graph = graph.subgraph(keep)
        if src not in graph or dst not in graph:
            raise RoutingError(f"unknown endpoint: {src} or {dst}")
        try:
            # Deterministic: nx BFS order is stable given node insert order.
            path = nx.shortest_path(graph, src, dst)
        except nx.NetworkXNoPath:
            raise RoutingError(
                f"no route {src} -> {dst} excluding {sorted(excluding or ())}"
            ) from None
        self._cache[key] = path
        return path

    def hop_count(self, src: str, dst: str,
                  excluding: Optional[set] = None) -> int:
        return len(self.route(src, dst, excluding)) - 1

    def hops(self, src: str, dst: str,
             excluding: Optional[set] = None) -> List[Tuple[str, str]]:
        """(sender, receiver) pairs along the route."""
        path = self.route(src, dst, excluding)
        return list(zip(path[:-1], path[1:]))

    def links_on_route(self, src: str, dst: str,
                       excluding: Optional[set] = None) -> List[str]:
        """Link ids traversed along the route."""
        return [
            self.topology.link_between(a, b).link_id
            for a, b in self.hops(src, dst, excluding)
        ]

    def wan_crossings(self, src: str, dst: str,
                      excluding: Optional[set] = None) -> int:
        """How many WAN (inter-region) links the route traverses.

        Zero on flat topologies and for intra-region routes; the geo
        scenarios use this to tell region-local from cross-region
        traffic.
        """
        return sum(
            1 for a, b in self.hops(src, dst, excluding)
            if self.topology.link_between(a, b).is_wan
        )

    def invalidate(self) -> None:
        """Drop the route cache (topology mutated)."""
        self._cache.clear()
