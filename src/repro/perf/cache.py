"""On-disk strategy cache: content-keyed, atomically written.

No CLI verb, experiment or tool reads it: a strategy comes from the
planner, and ``repro plan --export`` ships it. Only the end-to-end
benchmark under ``benchmarks/e2e/`` still sets ``BTRConfig.cache``
(docs/PERFORMANCE.md, "The strategy cache").

Strategies are pure functions of their planning inputs — the workload,
the topology, the fault budget, the planner configuration, and the
planner algorithm itself; never the run seed, which planning does not
read. The cache key is a SHA-256 over a canonical JSON encoding of
exactly those inputs (including ``PLANNER_VERSION``: any change to the
planning algorithm invalidates every cached artifact, because a stale
plan silently installed on every node is the worst possible perf
optimisation).

Entries are full ``strategy_to_json`` artifacts — the per-node
representation ``repro plan --export`` ships, there indented — written
via temp file + ``os.replace`` so a concurrent reader never observes a
torn entry. The strategy keeps the text a store encodes, so a
later export or digest of the same strategy encodes nothing; a loaded
strategy does not keep the text it was read from. A hit therefore goes
through the serializer's lossless round-trip, and ``repro verify
--strict`` accepts a cached strategy exactly as it accepts a fresh one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, Optional

from ..core.planner.placement import PlacementConfig
from ..core.planner.serialize import (
    FORMAT_VERSION,
    StrategyFormatError,
    strategy_from_json,
    strategy_to_json,
)
from ..core.planner.strategy import PLANNER_VERSION, Strategy
from ..net.topology import Topology
from ..persist import write_atomic
from ..workload.dataflow import DataflowGraph

def _workload_fingerprint(workload: DataflowGraph) -> Dict[str, Any]:
    return {
        "name": workload.name,
        "period": workload.period,
        "tasks": [
            [t.name, t.wcet, t.criticality.value, t.state_bits]
            for t in sorted(workload.tasks.values(), key=lambda t: t.name)
        ],
        "flows": [
            [f.name, f.src, f.dst, f.size_bits, f.deadline,
             f.criticality.value if f.criticality else None]
            for f in sorted(workload.flows, key=lambda f: f.name)
        ],
        "sources": sorted(workload.sources),
        "sinks": sorted(workload.sinks),
    }


def _topology_fingerprint(topology: Topology) -> Dict[str, Any]:
    return {
        "name": topology.name,
        "nodes": {
            node_id: {
                "speed": node.speed,
                "lanes": sorted(
                    (name, lane.speed)
                    for name, lane in node.lanes.items()
                ),
                "is_source": node.is_source,
                "is_sink": node.is_sink,
            }
            for node_id, node in sorted(topology.nodes.items())
        },
        "links": [
            [link.link_id, sorted(link.endpoints), link.bandwidth_bps,
             link.propagation_us, link.loss_probability]
            for _, link in sorted(topology.links.items())
        ],
        "endpoints": dict(sorted(topology.endpoint_map.items())),
    }


def strategy_cache_key(
    workload: DataflowGraph,
    topology: Topology,
    f: int,
    config: Optional[PlacementConfig] = None,
) -> str:
    """The content key for one planning problem (64 hex chars)."""
    payload = {
        "planner_version": PLANNER_VERSION,
        "format_version": FORMAT_VERSION,
        "workload": _workload_fingerprint(workload),
        "topology": _topology_fingerprint(topology),
        "f": f,
        "planner_config": dataclasses.asdict(config or PlacementConfig()),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class StrategyCache:
    """A directory of content-keyed strategy artifacts."""

    def __init__(self, root: str) -> None:
        self.root = root
        #: Corrupt entries moved aside (``<entry>.corrupt``) this session.
        self.quarantined = 0

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def load(self, key: str) -> Optional[Strategy]:
        """The cached strategy for ``key``, or None.

        A missing entry is a plain miss. A present-but-unparseable entry
        (truncated write, stale format, bit rot) is *quarantined*: moved
        aside to ``<entry>.corrupt`` so the replan can overwrite the slot
        and the bad bytes stay inspectable — ``prepare()`` must never
        fail because of on-disk cache state.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as f:
                raw = f.read()
        except OSError:
            return None
        try:
            return strategy_from_json(raw)
        except StrategyFormatError:
            self.quarantine(path)
            return None

    def quarantine(self, path: str) -> None:
        """Move a corrupt entry to ``<path>.corrupt`` (best effort)."""
        try:
            os.replace(path, f"{path}.corrupt")
        except OSError:
            pass
        self.quarantined += 1

    def store(self, key: str, strategy: Strategy) -> str:
        """Persist ``strategy`` under ``key`` atomically; returns the path.

        Serialises before touching the directory, and a write or rename
        that fails takes its temp file with it: a failed store leaves
        neither an entry nor litter behind, and re-raises.
        """
        artifact = strategy_to_json(strategy)
        os.makedirs(self.root, exist_ok=True)
        path = self.path_for(key)
        write_atomic(path, artifact)
        return path
