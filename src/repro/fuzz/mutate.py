"""The adversary's search space, and seeded mutations over it.

The fuzzer's genome is simply the serialised fault script — the same
version-2 payload :func:`repro.faults.adversary.script_to_dict` writes
and the counterexample artifacts carry — so every candidate the search
touches is, by construction, already a portable, replayable artifact.
Mutators are pure functions ``(payload, space, rng) -> payload`` over
the axes the paper's §3 adversary actually controls:

* **injection ticks** — when inside the bounded window each fault lands
  (a pacing adversary is one point in this axis);
* **victim ordering** — which nodes are hit, and in what order;
* **behaviour kind** — crash / omission / commission / timing /
  equivocation / evidence flood / rogue clock;
* **behaviour parameters** — the message-tamper choices (equivocation's
  lied-to set, omission's targeted flows and drop probability,
  commission's targeted tasks), timing-fault delays and timestamp lies,
  rogue-clock offsets, and evidence-flood pacing;
* **RNG reseeding** — a stochastic behaviour's drop stream.

All randomness flows through the campaign's
:class:`~repro.sim.random.DeterministicRandom` forks, so a campaign is
a pure function of its seed and the report is byte-reproducible at any
worker count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..faults.adversary import BEHAVIORS, script_from_dict
from ..mc.choices import injection_ticks
from ..sim.random import DeterministicRandom

#: Behaviour kinds whose class draws from a seeded RNG (worth reseeding).
STOCHASTIC_KINDS = tuple(
    kind for kind, cls in sorted(BEHAVIORS.items())
    if "rng" in getattr(cls, "__dataclass_fields__", {}))


@dataclass(frozen=True)
class MutationSpace:
    """Everything a mutator may legally reach for on one deployment."""

    #: Compromisable victims, sorted.
    nodes: Tuple[str, ...]
    #: Flow names (omission targeting / message-tamper axes).
    flows: Tuple[str, ...]
    #: Task names (commission targeting).
    tasks: Tuple[str, ...]
    #: Workload period, µs.
    period_us: int
    #: Injection window, absolute µs (inclusive bounds).
    window_us: Tuple[int, int]
    #: Fault kinds the adversary may pick.
    kinds: Tuple[str, ...]
    #: Maximum simultaneous compromises (the paper's k ≤ f).
    max_injections: int

    @classmethod
    def from_system(cls, system, *, kinds: Tuple[str, ...],
                    window: Tuple[float, float],
                    max_injections: int) -> "MutationSpace":
        workload = system.workload
        period = workload.period
        # The grid's two-tick form is exactly the window's end points.
        times = injection_ticks(period, window, 2)
        return cls(
            nodes=tuple(system.compromisable_nodes()),
            flows=tuple(sorted(f.name for f in workload.flows)),
            tasks=tuple(sorted(workload.tasks)),
            period_us=period,
            window_us=(times[0], times[-1]),
            kinds=tuple(sorted(kinds)),
            max_injections=max_injections,
        )


def canonical_script(payload: dict) -> str:
    """The genome's identity: canonical JSON of the script payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _clamp_time(t: int, space: MutationSpace) -> int:
    lo, hi = space.window_us
    return max(lo, min(int(t), hi))


def _fresh_rng_seed(rng: DeterministicRandom) -> int:
    return rng.randint(0, 2**31 - 1)


def _injection(time: int, node: str, kind: str,
               rng: DeterministicRandom) -> dict:
    entry: dict = {"time": time, "node": node, "kind": kind}
    if kind in STOCHASTIC_KINDS:
        entry["rng_seed"] = _fresh_rng_seed(rng)
    return entry


def seed_scripts(space: MutationSpace, ticks: int = 2) -> List[dict]:
    """The deterministic initial population: one single-injection script
    per (kind, tick) over the first victim — the hand-written scenarios'
    shape, from which mutation explores outward. The ticks are mc's
    grid over the window (already in µs, hence a period of 1)."""
    times = injection_ticks(1, space.window_us, ticks)
    seeds = []
    for kind in space.kinds:
        for t in times:
            rng = DeterministicRandom(0).fork(f"seed:{kind}:{t}")
            seeds.append({
                "version": 2,
                "injections": [
                    _injection(t, space.nodes[0], kind, rng)],
            })
    return seeds


def _subset(pool: Tuple[str, ...], rng: DeterministicRandom
            ) -> Optional[List[str]]:
    """A random non-empty proper-or-full subset, or None (= untargeted)."""
    if not pool or rng.random() < 0.3:
        return None
    size = rng.randint(1, len(pool))
    return sorted(rng.sample(sorted(pool), size))


def _mutate_params(kind: str, params: dict, space: MutationSpace,
                   rng: DeterministicRandom) -> dict:
    """Kind-specific parameter mutation (the tamper-choice axis)."""
    period = space.period_us
    params = dict(params)
    if kind == "timing":
        if rng.random() < 0.7:
            params["delay_us"] = rng.randint(period // 8, 3 * period)
        if rng.random() < 0.4:
            params["fake_timestamp"] = not params.get("fake_timestamp",
                                                      False)
    elif kind == "omission":
        if rng.random() < 0.6:
            params["drop_probability"] = rng.choice(
                [0.25, 0.5, 0.75, 1.0])
        if rng.random() < 0.5:
            targets = _subset(space.flows, rng)
            if targets is None:
                params.pop("target_flows", None)
            else:
                params["target_flows"] = targets
    elif kind == "equivocation":
        others = tuple(n for n in space.nodes)
        targets = _subset(others, rng)
        if targets is None:
            params.pop("lied_to", None)
        else:
            params["lied_to"] = targets
    elif kind == "commission":
        if rng.random() < 0.5:
            targets = _subset(space.tasks, rng)
            if targets is None:
                params.pop("target_tasks", None)
            else:
                params["target_tasks"] = targets
    elif kind == "evidence_flood":
        if rng.random() < 0.7:
            params["records_per_period"] = rng.randint(2, 40)
        if rng.random() < 0.4:
            params["proper_signatures"] = not params.get(
                "proper_signatures", False)
    elif kind == "rogue_clock":
        params["offset_us"] = rng.choice(
            [period // 4, period // 2, period, 3 * period, 150_000])
    return params


#: Mutation operator names, in the deterministic pick order.
MUTATIONS = ("shift_time", "retarget_victim", "change_kind",
             "tweak_params", "add_injection", "drop_injection",
             "swap_victims", "reseed")


def mutate_script(payload: dict, space: MutationSpace,
                  rng: DeterministicRandom) -> dict:
    """One mutation step: pick an operator, apply it, return a new
    (valid) payload. Operators that do not apply to the current genome
    fall back to ``shift_time``, which always applies."""
    injections = [dict(e) for e in payload["injections"]]
    op = rng.choice(list(MUTATIONS))
    index = rng.randrange(len(injections))
    entry = injections[index]
    used = {e["node"] for e in injections}

    if op == "add_injection" and len(injections) < space.max_injections:
        free = [n for n in space.nodes if n not in used]
        if free:
            kind = rng.choice(list(space.kinds))
            injections.append(_injection(
                _clamp_time(rng.randint(*space.window_us), space),
                rng.choice(free), kind, rng))
            op = "done"
    elif op == "drop_injection" and len(injections) > 1:
        injections.pop(index)
        op = "done"
    elif op == "swap_victims" and len(injections) > 1:
        other = rng.randrange(len(injections))
        if other != index:
            injections[index]["node"], injections[other]["node"] = \
                injections[other]["node"], injections[index]["node"]
            op = "done"
    elif op == "retarget_victim":
        free = [n for n in space.nodes if n not in used]
        if free:
            entry["node"] = rng.choice(free)
            op = "done"
    elif op == "change_kind":
        kind = rng.choice(list(space.kinds))
        injections[index] = _injection(entry["time"], entry["node"],
                                       kind, rng)
        op = "done"
    elif op == "tweak_params":
        entry["params"] = _mutate_params(entry["kind"],
                                         entry.get("params") or {},
                                         space, rng)
        if not entry["params"]:
            entry.pop("params", None)
        op = "done"
    elif op == "reseed" and entry["kind"] in STOCHASTIC_KINDS:
        entry["rng_seed"] = _fresh_rng_seed(rng)
        op = "done"

    if op != "done":  # fall through: perturb the injection tick
        quantum = max(1, space.period_us // 4)
        delta = rng.choice([-8, -4, -2, -1, 1, 2, 4, 8]) * quantum
        entry["time"] = _clamp_time(entry["time"] + delta, space)

    injections.sort(key=lambda e: (e["time"], e["node"]))
    mutated = {"version": 2, "injections": injections}
    # Every mutant must decode: a genome that cannot rebuild is a bug in
    # the mutator, not something to ship to a worker.
    script_from_dict(mutated)
    return mutated
