"""Static routing over a topology.

CPS networks are statically configured, so routes are computed once (shortest
path by hop count, deterministic tie-breaking) and cached. When nodes fail,
the mode's plan routes around them: :meth:`Router.route` accepts an
``excluding`` set and finds paths that avoid those nodes.

What the router remembers, and what each answer depends on:

* hop counts — one BFS distance table per (source, excluded set); a hop
  count is a property of the graph alone, so no tie-break can move it;
  :meth:`Router.diameter` is the greatest of them, one per excluded set;
* one-hop routes — nothing: directly linked endpoints have exactly one
  shortest path, read off the adjacency;
* multi-hop routes — one path per (source, destination, excluded set).
  Plans are pinned byte for byte to *which* of several equally short
  paths it is, so the tie-break is a contract: a bidirectional BFS over
  ``Topology.adjacency`` grows one whole level of the smaller fringe at a
  time (the forward one, from ``src``, on a tie), visits neighbours in
  adjacency order, skips excluded intermediates, and stops at the first
  node the other side has already reached — networkx 3.6's
  ``bidirectional_shortest_path``, which the tests hold it equal to.

A topology holds one router (:attr:`Topology.router`), so the planner,
the verifier, the budget and the analyzer share its tables; the router
reads the topology's adjacency and holds no reference back to the
topology. Adding a node or link drops the topology's router, and no
code mutates a topology once it has planned.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Collection, Dict, FrozenSet, List, Mapping, Optional,
    Tuple,
)

if TYPE_CHECKING:
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
        self.adjacency = topology.adjacency
        self._cache: Dict[Tuple[str, str, FrozenSet[str]], List[str]] = {}
        self._hops: Dict[Tuple[str, FrozenSet[str]], Dict[str, int]] = {}
        self._diameters: Dict[FrozenSet[str], Optional[int]] = {}

    def route(
        self, src: str, dst: str,
        excluding: Optional[Collection[str]] = None,
    ) -> List[str]:
        """Node path from ``src`` to ``dst`` (inclusive), avoiding
        ``excluding``. Intermediate hops never include excluded nodes;
        ``src``/``dst`` themselves are allowed regardless (a plan never asks
        a faulty node for anything, but routing shouldn't hide that bug)."""
        adjacency = self.adjacency
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
        path = _shortest_path(adjacency, src, dst, key[2] - {src, dst})
        if path is None:
            raise RoutingError(
                f"no route {src} -> {dst} excluding {sorted(excluding or ())}"
            )
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
        adjacency = self.adjacency
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

    def diameter(self, excluding: Optional[Collection[str]] = None
                 ) -> Optional[int]:
        """Greatest hop count between two nodes outside ``excluding``,
        over paths that relay through none of ``excluding``; ``None``
        when some pair of them is cut off."""
        excluded = _frozen(excluding)
        if excluded in self._diameters:
            return self._diameters[excluded]
        alive = [n for n in self.adjacency if n not in excluded]
        depth = 0
        for start in alive:
            hops = self.hops_from(start, excluded)
            reached = [hops[n] for n in alive if n in hops]
            if len(reached) < len(alive):
                self._diameters[excluded] = None
                return None
            depth = max(depth, *reached)
        self._diameters[excluded] = depth
        return depth


def _shortest_path(adjacency: Mapping[str, Mapping[str, str]],
                   src: str, dst: str, blocked: FrozenSet[str]
                   ) -> Optional[List[str]]:
    """The bidirectional BFS whose tie-break the module docstring states;
    ``None`` when every path relays through ``blocked``."""
    parents: Tuple[Dict[str, Optional[str]], ...] = ({src: None}, {dst: None})
    fringes = [[src], [dst]]
    while fringes[0] and fringes[1]:
        side = 0 if len(fringes[0]) <= len(fringes[1]) else 1
        mine, theirs = parents[side], parents[1 - side]
        level, fringes[side] = fringes[side], []
        for node in level:
            for neighbor in adjacency[node]:
                if neighbor in blocked:
                    continue
                if neighbor not in mine:
                    mine[neighbor] = node
                    fringes[side].append(neighbor)
                if neighbor in theirs:
                    return (_walk(parents[0], neighbor)[::-1]
                            + _walk(parents[1], parents[1][neighbor]))
    return None


def _walk(parents: Mapping[str, Optional[str]],
          node: Optional[str]) -> List[str]:
    """``node``, its parent, its parent's parent, ... up to a root."""
    path = []
    while node is not None:
        path.append(node)
        node = parents[node]
    return path
