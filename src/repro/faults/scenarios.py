"""Named fault scenarios: the situations worth rehearsing, canned.

Each scenario is a recipe that, given a prepared :class:`BTRSystem`,
produces the fault script (and optional link script) for a situation the
literature and the experiments care about. They pick sensible victims from
the deployment (e.g. "the node hosting the most checkers") so callers
don't need to reverse-engineer placements. Used by ``python -m repro run
--scenario`` and by tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..persist import InputError
from .adversary import FaultScript, Injection, make_behavior
from .behaviors import (
    CommissionFault,
    CrashFault,
    EvidenceFloodFault,
    RogueClockFault,
)


@dataclass(frozen=True)
class Scenario:
    """A runnable situation: fault script + optional link degradations."""

    name: str
    description: str
    script: FaultScript
    link_script: List[Tuple[int, str, float]]


class ScenarioError(InputError):
    """Raised when a scenario cannot be staged on this deployment."""


#: Share of frames a browned-out WAN link drops.
_BROWNOUT_LOSS = 0.3


def _fault_time(system, periods: float = 4.4) -> int:
    return int(periods * system.workload.period)


def _checker_heavy_victim(system) -> str:
    plan = system.strategy.nominal
    candidates = system.compromisable_nodes()
    if not candidates:
        raise ScenarioError("no compromisable nodes in this deployment")
    return max(candidates, key=lambda n: (
        sum(1 for i in plan.instances_on(n) if i.endswith("#c")), n))


def single_fault(system, kind: str = "commission") -> Scenario:
    """One Byzantine fault of the given kind, mid-run."""
    victims = system.compromisable_nodes()
    if not victims:
        raise ScenarioError("no compromisable nodes")
    at = _fault_time(system)
    return Scenario(
        name=f"single_{kind}",
        description=f"one {kind} fault on {victims[0]}",
        script=FaultScript([Injection(at, victims[0],
                                      make_behavior(kind))]),
        link_script=[],
    )


def checker_host_crash(system) -> Scenario:
    """Crash the node hosting the most checking tasks — the forwarding
    bottleneck the audit-reconstruction fallback exists for."""
    victim = _checker_heavy_victim(system)
    return Scenario(
        name="checker_host_crash",
        description=f"crash of checker-heavy node {victim}",
        script=FaultScript([Injection(_fault_time(system), victim,
                                      CrashFault())]),
        link_script=[],
    )


def paced_double(system) -> Scenario:
    """Two commission faults paced one recovery bound apart (§3's kR
    worst case). Requires f >= 2."""
    victims = system.compromisable_nodes()
    if system.config.f < 2 or len(victims) < 2:
        raise ScenarioError("paced_double needs f >= 2 and two victims")
    at = _fault_time(system)
    interval = system.budget.total_us
    return Scenario(
        name="paced_double",
        description=f"commission faults on {victims[0]} and {victims[1]}, "
                     f"paced R apart",
        script=FaultScript([
            Injection(at, victims[0], CommissionFault()),
            Injection(at + interval, victims[1], CommissionFault()),
        ]),
        link_script=[],
    )


def flood_plus_fault(system) -> Scenario:
    """Evidence flooding as cover for a real commission fault (§4.3's DoS
    concern). Two compromised nodes: budget f >= 2 to recover from both
    (the flooder is attributable through its endorsements)."""
    victims = system.compromisable_nodes()
    if len(victims) < 2:
        raise ScenarioError("flood_plus_fault needs two victims")
    at = _fault_time(system)
    return Scenario(
        name="flood_plus_fault",
        description=f"{victims[0]} floods forged evidence while "
                     f"{victims[1]} lies",
        script=FaultScript([
            Injection(at - system.workload.period, victims[0],
                      EvidenceFloodFault(records_per_period=20)),
            Injection(at, victims[1], CommissionFault()),
        ]),
        link_script=[],
    )


def rogue_clock(system) -> Scenario:
    """A node's clock breaks badly and ignores synchronization."""
    victims = system.compromisable_nodes()
    if not victims:
        raise ScenarioError("no compromisable nodes")
    offset = 3 * system.workload.period
    return Scenario(
        name="rogue_clock",
        description=f"{victims[0]}'s clock pinned {offset}us off",
        script=FaultScript([Injection(_fault_time(system), victims[0],
                                      RogueClockFault(offset_us=offset))]),
        link_script=[],
    )


def link_death(system) -> Scenario:
    """The busiest data link dies (outside the node-fault model; E16)."""
    plan = system.strategy.nominal
    load: Dict[str, int] = {}
    for _, route in sorted(plan.routes.items()):
        for a, b in zip(route[:-1], route[1:]):
            link = system.topology.link_between(a, b)
            load[link.link_id] = load.get(link.link_id, 0) + 1
    if not load:
        raise ScenarioError("no inter-node flows to disrupt")
    busiest = max(sorted(load), key=lambda l: load[l])
    return Scenario(
        name="link_death",
        description=f"link {busiest} loses every frame",
        script=FaultScript([]),
        link_script=[(_fault_time(system), busiest, 1.0)],
    )




def _wan_gateways(system) -> List[str]:
    """Sorted WAN gateway node ids (endpoints of WAN links)."""
    gateways = set()
    for link in system.topology.wan_links():
        gateways.update(link.endpoints)
    if not gateways:
        raise ScenarioError(
            f"topology {system.topology.name} has no WAN links; geo "
            f"scenarios need a geo topology (see geo_topology)"
        )
    return sorted(gateways)


def gateway_crash(system) -> Scenario:
    """Crash a WAN gateway mid-run: its region drops to one WAN plane
    and every cross-region flow through it must re-route — the geo
    analogue of checker_host_crash, and the fault that makes
    single-gateway regions unplannable in the first place."""
    victims = [n for n in system.compromisable_nodes()
               if n in set(_wan_gateways(system))]
    if not victims:
        raise ScenarioError("no compromisable WAN gateway (gateways "
                            "host only protected endpoints here)")
    victim = victims[0]
    return Scenario(
        name="gateway_crash",
        description=f"crash of WAN gateway {victim}",
        script=FaultScript([Injection(_fault_time(system), victim,
                                      CrashFault())]),
        link_script=[],
    )


def wan_brownout(system) -> Scenario:
    """The first WAN link starts dropping frames (long-haul brownout:
    EMI, congestion, a flapping carrier) — E16's link-death study at
    geo scale, partial loss instead of total."""
    links = system.topology.wan_links()
    if not links:
        raise ScenarioError(
            f"topology {system.topology.name} has no WAN links; geo "
            f"scenarios need a geo topology (see geo_topology)"
        )
    link = links[0]
    return Scenario(
        name="wan_brownout",
        description=f"WAN link {link.link_id} drops "
                    f"{_BROWNOUT_LOSS:.0%} of frames",
        script=FaultScript([]),
        link_script=[(_fault_time(system), link.link_id, _BROWNOUT_LOSS)],
    )


def geo_scenario(system, regions: int, nodes_per_region: int) -> Scenario:
    """The canonical geo rehearsal on an exact ``geo:RxM`` deployment:
    a gateway crash with a simultaneous WAN brownout on another plane.

    The shape is validated so a benchmark or CI job naming
    ``geo:3x20`` cannot silently run against a different deployment.
    """
    names = system.topology.region_names()
    if not names:
        raise ScenarioError(
            f"scenario geo:{regions}x{nodes_per_region} needs a geo "
            f"topology; {system.topology.name} has no regions"
        )
    sizes = {r: len(system.topology.regions[r]) for r in names}
    if len(names) != regions or set(sizes.values()) != {nodes_per_region}:
        raise ScenarioError(
            f"scenario geo:{regions}x{nodes_per_region} does not match "
            f"topology {system.topology.name} "
            f"({len(names)} regions x {sorted(set(sizes.values()))})"
        )
    crash = gateway_crash(system)
    victim = crash.script.injections[0].node
    # Brown out a WAN link that does not touch the crashed gateway, so
    # the two faults stress different planes.
    links = [l for l in system.topology.wan_links()
             if victim not in l.endpoints]
    link_script = ([(_fault_time(system, periods=3.4),
                     links[0].link_id, _BROWNOUT_LOSS)] if links else [])
    return Scenario(
        name=f"geo:{regions}x{nodes_per_region}",
        description=f"gateway {victim} crashes while "
                     f"{links[0].link_id if links else 'no WAN link'} "
                     f"browns out",
        script=crash.script,
        link_script=link_script,
    )


SCENARIOS: Dict[str, Callable] = {
    "single_commission": lambda s: single_fault(s, "commission"),
    "single_crash": lambda s: single_fault(s, "crash"),
    "single_omission": lambda s: single_fault(s, "omission"),
    "checker_host_crash": checker_host_crash,
    "paced_double": paced_double,
    "flood_plus_fault": flood_plus_fault,
    "rogue_clock": rogue_clock,
    "link_death": link_death,
    "gateway_crash": gateway_crash,
    "wan_brownout": wan_brownout,
    # Shape-validated geo composites; any ``geo:RxM`` name works (see
    # stage()), these two are the benchmark/CI staples.
    "geo:3x20": lambda s: geo_scenario(s, 3, 20),
    "geo:4x40": lambda s: geo_scenario(s, 4, 40),
}

_GEO_NAME = re.compile(r"^geo:(\d+)x(\d+)$")


def stage(name: str, system) -> Scenario:
    """Stage a named scenario on a prepared system.

    Besides the registry, any ``geo:RxM`` name stages
    :func:`geo_scenario` with that shape — scenario names travel by
    string (CLI flags, sweep specs, pool workers), so the geo family is
    parsed rather than enumerated.
    """
    factory = SCENARIOS.get(name)
    if factory is None:
        match = _GEO_NAME.match(name)
        if match:
            return geo_scenario(system, int(match.group(1)),
                                int(match.group(2)))
        raise ScenarioError(
            f"unknown scenario {name!r}; choose from "
            f"{', '.join(sorted(SCENARIOS))} or any geo:RxM"
        )
    return factory(system)
