"""Fault scenarios: every recipe that builds a run's faults from its
deployment.

Each builder takes a prepared system (BTR or a baseline) and returns a
:class:`Scenario`: the fault script (and optional link script) for a
situation the literature and the experiments care about. The builders
pick victims, times and R from the deployment (e.g. "the node hosting
the most checkers") so callers don't need to reverse-engineer
placements; a run takes the script they build. The parameterised ones —
:func:`single_fault`, :func:`paced` and :func:`random_faults` — are what
``repro run --fault``, ``repro compare`` and the experiments call;
:data:`SCENARIOS` names the canned ones ``repro run --scenario``
stages.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..persist import InputError
from ..sim.random import DeterministicRandom
from .adversary import FaultScript, Injection, make_behavior
from .behaviors import CommissionFault, EvidenceFloodFault, RogueClockFault


@dataclass(frozen=True)
class Scenario:
    """A runnable situation: fault script + optional link degradations."""

    name: str
    description: str
    script: FaultScript = field(default_factory=FaultScript)
    link_script: List[Tuple[int, str, float]] = field(default_factory=list)


class ScenarioError(InputError):
    """Raised when a scenario cannot be staged on this deployment."""


#: Share of frames a browned-out WAN link drops.
_BROWNOUT_LOSS = 0.3


def _fault_time(system, periods: float = 4.4) -> int:
    return int(periods * system.workload.period)


def _victims(system, k: int, what: str) -> List[str]:
    """The compromisable nodes; ``what`` is refused when they are fewer
    than ``k``."""
    victims = system.compromisable_nodes()
    if len(victims) < k:
        raise ScenarioError(f"{what}: {len(victims)} compromisable "
                            f"nodes, {k} needed")
    return victims


def single_fault(system, kind: str = "commission", at: Optional[int] = None,
                 node: Optional[str] = None) -> Scenario:
    """One fault of the given kind on ``node`` (default: the first
    compromisable node) at ``at`` µs (default: 4.4 periods in)."""
    if node is None:
        node = _victims(system, 1, f"a {kind} fault")[0]
    elif node not in system.compromisable_nodes():
        raise ScenarioError(f"{node} is not a candidate for compromise")
    at = _fault_time(system) if at is None else at
    return Scenario(f"single_{kind}", f"one {kind} fault on {node}",
                    FaultScript([Injection(at, node, make_behavior(kind))]))


def paced(system, k: int, start: Optional[int] = None,
          interval: Optional[int] = None,
          victims: Optional[Sequence[str]] = None) -> Scenario:
    """The §3 worst case: "if an adversary controls k ≤ f nodes, he can
    trigger a new fault every R seconds and thus potentially force the
    system to produce bad outputs for kR seconds". ``k`` commission
    faults, the i-th on ``victims[i]`` (default: the compromisable
    nodes in order) at ``start + i * interval`` (defaults: 4.4 periods
    in, and R, so each fault lands as the last recovery ends)."""
    chosen = list(victims if victims is not None
                  else _victims(system, k, f"{k} paced faults"))[:k]
    if len(chosen) < k:
        raise ScenarioError(f"{k} paced faults need {k} victims, only "
                            f"{len(chosen)} given")
    start = _fault_time(system) if start is None else start
    interval = system.budget.total_us if interval is None else interval
    return Scenario(
        f"paced_{k}",
        f"commission faults on {', '.join(chosen)}, paced {interval}us "
        "apart",
        FaultScript([
            Injection(start + i * interval, node,
                      make_behavior("commission"))
            for i, node in enumerate(chosen)]))


def random_faults(system, k: int, rng: DeterministicRandom, horizon: int,
                  kinds: Sequence[str] = ("crash", "omission", "commission",
                                          "timing"),
                  min_time: int = 0) -> Scenario:
    """``k`` faults on distinct compromisable nodes, each at a time in
    ``[min_time, horizon]`` and of a kind from ``kinds``, all drawn from
    ``rng``: the same ``rng`` stream gives the same script. Times are
    drawn per victim and the pairs then sorted jointly, so the
    (tick, node) pairing is a function of the stream alone."""
    victims = _victims(system, k, f"{k} random faults")
    pairs = sorted((rng.randint(min_time, horizon), node)
                   for node in rng.sample(victims, k))
    return Scenario(
        f"random_{k}",
        f"{k} random faults on {', '.join(n for _, n in pairs)}",
        FaultScript([
            Injection(t, node, make_behavior(rng.choice(list(kinds)),
                                             rng.fork(f"rand{i}")))
            for i, (t, node) in enumerate(pairs)]))


def checker_host_crash(system) -> Scenario:
    """Crash the node hosting the most checking tasks — the forwarding
    bottleneck the audit-reconstruction fallback exists for."""
    plan = system.strategy.nominal
    victim = max(_victims(system, 1, "checker_host_crash"), key=lambda n: (
        sum(1 for i in plan.instances_on(n) if i.endswith("#c")), n))
    return dataclasses.replace(
        single_fault(system, "crash", node=victim), name="checker_host_crash",
        description=f"crash of checker-heavy node {victim}")


def paced_double(system) -> Scenario:
    """Two commission faults paced one recovery bound apart (§3's kR
    worst case). Requires f >= 2."""
    if system.config.f < 2:
        raise ScenarioError("paced_double needs f >= 2")
    pair = paced(system, 2)
    first, second = pair.script.faulty_nodes
    return dataclasses.replace(
        pair, name="paced_double",
        description=f"commission faults on {first} and {second}, "
                    f"paced R apart")


def flood_plus_fault(system) -> Scenario:
    """Evidence flooding as cover for a real commission fault (§4.3's DoS
    concern). Two compromised nodes: budget f >= 2 to recover from both
    (the flooder is attributable through its endorsements)."""
    flooder, liar = _victims(system, 2, "flood_plus_fault")[:2]
    at = _fault_time(system)
    return Scenario(
        "flood_plus_fault", f"{flooder} floods forged evidence while "
                            f"{liar} lies",
        FaultScript([
            Injection(at - system.workload.period, flooder,
                      EvidenceFloodFault(records_per_period=20)),
            Injection(at, liar, CommissionFault()),
        ]))


def rogue_clock(system) -> Scenario:
    """A node's clock breaks badly and ignores synchronization."""
    victim = _victims(system, 1, "rogue_clock")[0]
    offset = 3 * system.workload.period
    return Scenario(
        "rogue_clock", f"{victim}'s clock pinned {offset}us off",
        FaultScript([Injection(_fault_time(system), victim,
                               RogueClockFault(offset_us=offset))]))


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
    return Scenario("link_death", f"link {busiest} loses every frame",
                    link_script=[(_fault_time(system), busiest, 1.0)])


def _wan_links(system) -> list:
    """The topology's WAN links; refused when it has none."""
    links = system.topology.wan_links()
    if not links:
        raise ScenarioError(
            f"topology {system.topology.name} has no WAN links; geo "
            f"scenarios need a geo topology (see geo_topology)"
        )
    return links


def gateway_crash(system) -> Scenario:
    """Crash a WAN gateway mid-run: its region drops to one WAN plane
    and every cross-region flow through it must re-route — the geo
    analogue of checker_host_crash, and the fault that makes
    single-gateway regions unplannable in the first place."""
    gateways = {n for link in _wan_links(system) for n in link.endpoints}
    victims = [n for n in system.compromisable_nodes() if n in gateways]
    if not victims:
        raise ScenarioError("no compromisable WAN gateway (gateways "
                            "host only protected endpoints here)")
    return dataclasses.replace(
        single_fault(system, "crash", node=victims[0]),
        name="gateway_crash",
        description=f"crash of WAN gateway {victims[0]}")


def wan_brownout(system) -> Scenario:
    """The first WAN link starts dropping frames (long-haul brownout:
    EMI, congestion, a flapping carrier) — E16's link-death study at
    geo scale, partial loss instead of total."""
    link = _wan_links(system)[0]
    return Scenario(
        "wan_brownout",
        f"WAN link {link.link_id} drops {_BROWNOUT_LOSS:.0%} of frames",
        link_script=[(_fault_time(system), link.link_id, _BROWNOUT_LOSS)])


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
