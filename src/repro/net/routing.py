"""Static routing over a topology.

CPS networks are statically configured, so routes are computed once (shortest
path by hop count, deterministic tie-breaking) and cached. When nodes fail,
the mode's plan routes around them: :meth:`Router.route` accepts an
``excluding`` set and finds paths that avoid those nodes.

What the router remembers, and what each answer depends on:

* hop counts — one BFS distance table per (source, excluded set); a hop
  count is a property of the graph alone, so no tie-break can move it;
* one-hop routes — nothing: directly linked endpoints have exactly one
  shortest path, read off the adjacency;
* multi-hop routes — one networkx shortest path per (source, destination,
  excluded set), computed exactly as before, because *which* of several
  equally short paths is chosen is networkx's tie-break and plans are
  pinned byte for byte to it.

Hop tables and one-hop answers read a snapshot of the graph's adjacency
taken on first use; everything is dropped by :meth:`Router.invalidate`.
"""

from __future__ import annotations

from typing import Collection, Dict, FrozenSet, List, Mapping, Optional, Tuple

import networkx as nx

from .topology import Topology


class RoutingError(Exception):
    """Raised when no route exists (partition, excluded nodes)."""


def _frozen(excluding: Optional[Collection[str]]) -> FrozenSet[str]:
    """``excluding`` as a memo key; a fault pattern already is one."""
    if isinstance(excluding, frozenset):
        return excluding
    return frozenset(excluding or ())


class Router:
    """Shortest-path routing with failure-aware recomputation."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._cache: Dict[Tuple[str, str, FrozenSet[str]], List[str]] = {}
        self._hops: Dict[Tuple[str, FrozenSet[str]], Dict[str, int]] = {}
        self._adjacency: Optional[Dict[str, Mapping[str, object]]] = None

    def _neighbors(self) -> Dict[str, Mapping[str, object]]:
        """node -> its neighbours, in the graph's own (insertion) order."""
        if self._adjacency is None:
            self._adjacency = dict(self.topology.graph.adjacency())
        return self._adjacency

    def route(
        self, src: str, dst: str,
        excluding: Optional[Collection[str]] = None,
    ) -> List[str]:
        """Node path from ``src`` to ``dst`` (inclusive), avoiding
        ``excluding``. Intermediate hops never include excluded nodes;
        ``src``/``dst`` themselves are allowed regardless (a plan never asks
        a faulty node for anything, but routing shouldn't hide that bug)."""
        adjacency = self._neighbors()
        if src not in adjacency or dst not in adjacency:
            raise RoutingError(f"unknown endpoint: {src} or {dst}")
        if src == dst:
            return [src]
        if dst in adjacency[src]:
            return [src, dst]
        key = (src, dst, _frozen(excluding))
        path = self._cache.get(key)
        if path is not None:
            return path
        graph = self.topology.graph
        if excluding:
            keep = [n for n in graph.nodes
                    if n not in excluding or n in (src, dst)]
            graph = graph.subgraph(keep)
        try:
            # Deterministic: nx BFS order is stable given node insert order.
            path = nx.shortest_path(graph, src, dst)
        except nx.NetworkXNoPath:
            raise RoutingError(
                f"no route {src} -> {dst} excluding {sorted(excluding or ())}"
            ) from None
        self._cache[key] = path
        return path

    def hops_from(self, src: str,
                  excluding: Optional[Collection[str]] = None
                  ) -> Mapping[str, int]:
        """Hop count from ``src`` to every node reachable without an
        excluded intermediate hop (read-only; the table is shared).

        Excluded nodes are entered but never left, which is the same rule
        :meth:`route` applies: an excluded node can end a path, never
        relay one — except ``src`` itself, which always may send.
        """
        key = (src, _frozen(excluding))
        table = self._hops.get(key)
        if table is not None:
            return table
        adjacency = self._neighbors()
        if src not in adjacency:
            raise RoutingError(f"unknown endpoint: {src}")
        excluded = key[1]
        table = {src: 0}
        frontier = [src]
        depth = 0
        while frontier:
            depth += 1
            reached: List[str] = []
            for node in frontier:
                for neighbor in adjacency[node]:
                    if neighbor not in table:
                        table[neighbor] = depth
                        if neighbor not in excluded:
                            reached.append(neighbor)
            frontier = reached
        self._hops[key] = table
        return table

    def hop_count(self, src: str, dst: str,
                  excluding: Optional[Collection[str]] = None) -> int:
        adjacency = self._neighbors()
        if src not in adjacency or dst not in adjacency:
            raise RoutingError(f"unknown endpoint: {src} or {dst}")
        try:
            return self.hops_from(src, excluding)[dst]
        except KeyError:
            raise RoutingError(
                f"no route {src} -> {dst} excluding {sorted(excluding or ())}"
            ) from None

    def hops(self, src: str, dst: str,
             excluding: Optional[Collection[str]] = None
             ) -> List[Tuple[str, str]]:
        """(sender, receiver) pairs along the route."""
        path = self.route(src, dst, excluding)
        return list(zip(path[:-1], path[1:]))

    def links_on_route(self, src: str, dst: str,
                       excluding: Optional[Collection[str]] = None
                       ) -> List[str]:
        """Link ids traversed along the route."""
        return [
            self.topology.link_between(a, b).link_id
            for a, b in self.hops(src, dst, excluding)
        ]

    def invalidate(self) -> None:
        """Drop every remembered route and hop table (topology mutated)."""
        self._cache.clear()
        self._hops.clear()
        self._adjacency = None
