"""Adversary strategies: who gets compromised, when, and how.

An :class:`Adversary` produces a :class:`FaultScript` — a deterministic list
of (time, node, behaviour) injections the runtime executes. The marquee
strategy is :class:`PacingAdversary`, the paper's §3 worst case: "if an
adversary controls k ≤ f nodes, he can trigger a new fault every R seconds
and thus potentially force the system to produce bad outputs for kR seconds".
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..sim.random import DeterministicRandom
from .behaviors import (
    CommissionFault,
    CrashFault,
    EquivocationFault,
    EvidenceFloodFault,
    FaultBehavior,
    OmissionFault,
    RogueClockFault,
    TimingFault,
)


@dataclass(frozen=True)
class Injection:
    """One scripted compromise: at ``time``, ``node`` adopts ``behavior``."""

    time: int
    node: str
    behavior: FaultBehavior


@dataclass
class FaultScript:
    """A deterministic, time-ordered list of injections."""

    injections: List[Injection] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.injections.sort(key=lambda i: (i.time, i.node))
        seen = set()
        for injection in self.injections:
            if injection.node in seen:
                raise ValueError(
                    f"node {injection.node} injected twice (a compromised "
                    f"node stays compromised)"
                )
            seen.add(injection.node)

    @property
    def faulty_nodes(self) -> List[str]:
        return [i.node for i in self.injections]

    def check_nodes(self, nodes) -> None:
        """``ValueError`` naming each injected node not among ``nodes``
        (the deployment's), raised before a run schedules anything."""
        unknown = sorted(set(self.faulty_nodes).difference(nodes))
        if unknown:
            raise ValueError(f"fault script injects {', '.join(unknown)}: "
                             f"no such node in the deployment")

    def __iter__(self):
        return iter(self.injections)

    def __len__(self) -> int:
        return len(self.injections)


#: Every fault kind, by its class's ``kind``: the one registry the CLI
#: choices, the fuzzer and artifact decoding read. A new kind joins here.
BEHAVIORS: dict = {cls.kind: cls for cls in (
    CrashFault, OmissionFault, CommissionFault, TimingFault,
    EquivocationFault, EvidenceFloodFault, RogueClockFault)}

#: Behaviour parameters typed ``Optional[frozenset]``; serialised as
#: sorted lists (JSON has no set type) and decoded back.
_FROZENSET_PARAMS = frozenset({"target_flows", "target_tasks", "lied_to"})


def make_behavior(kind: str, rng: Optional[DeterministicRandom] = None,
                  params: Optional[dict] = None) -> FaultBehavior:
    """Construct a behaviour of a registered kind.

    ``params`` are its non-default fields, as :func:`behavior_params`
    writes them; a kind whose class has an ``rng`` field draws from
    ``rng`` (default ``DeterministicRandom(0)``). Unknown kinds and
    unknown parameters raise ``ValueError``, so corrupt artifacts are
    diagnosed at load time, not deep in a run."""
    try:
        cls = BEHAVIORS[kind]
    except KeyError:
        raise ValueError(f"unknown fault kind {kind!r}") from None
    decoded = {}
    for key, value in sorted((params or {}).items()):
        if key in _FROZENSET_PARAMS and isinstance(value, (list, tuple)):
            value = frozenset(value)
        decoded[key] = value
    if "rng" in getattr(cls, "__dataclass_fields__", {}):
        decoded.setdefault("rng", rng or DeterministicRandom(0))
    try:
        return cls(**decoded)
    except TypeError as exc:
        raise ValueError(
            f"bad parameters for fault kind {kind!r}: {exc}") from None


def behavior_params(behavior: FaultBehavior) -> dict:
    """The behaviour's non-default parameters, as a JSON-safe dict.

    The RNG is excluded (its seed is persisted separately); frozensets
    become sorted lists. Defaulted fields are omitted so the payload of
    a factory-made behaviour stays minimal and stable.
    """
    if not dataclasses.is_dataclass(behavior):
        return {}
    params = {}
    for f in dataclasses.fields(behavior):
        if f.name == "rng":
            continue
        value = getattr(behavior, f.name)
        if value == f.default:
            continue
        if isinstance(value, frozenset):
            value = sorted(value)
        params[f.name] = value
    return params


def behavior_rng_seed(behavior: FaultBehavior) -> Optional[int]:
    """The seed of the behaviour's RNG stream, if it carries one.

    Only :class:`DeterministicRandom` streams are persistable; a
    behaviour built with a foreign RNG serialises without one (and
    rebuilds with a derived fork, the pre-v2 semantics).
    """
    rng = getattr(behavior, "rng", None)
    if isinstance(rng, DeterministicRandom):
        return rng.seed_value
    return None


#: Bumped when the serialised script layout changes incompatibly.
#: Version 2 adds per-injection behaviour ``params`` and ``rng_seed``,
#: making round-trip replay trace-identical (version 1 rebuilt
#: behaviours from a caller-supplied seed, so a replayed script was only
#: *structurally* identical to the original). Version-1 payloads are
#: still read, with the old semantics.
SCRIPT_VERSION = 2


def script_to_dict(script: FaultScript) -> dict:
    """Serialise a script for artifacts (counterexamples, replays).

    Each injection records its fault kind, its non-default behaviour
    parameters, and — for stochastic behaviours — the seed of its RNG
    stream, so :func:`script_from_dict` rebuilds a behaviour that
    replays **trace-identically**, not merely one of the same kind.
    """
    injections = []
    for i in script:
        entry: dict = {"time": i.time, "node": i.node,
                       "kind": i.behavior.kind}
        params = behavior_params(i.behavior)
        if params:
            entry["params"] = params
        rng_seed = behavior_rng_seed(i.behavior)
        if rng_seed is not None:
            entry["rng_seed"] = rng_seed
        injections.append(entry)
    return {"version": SCRIPT_VERSION, "injections": injections}


def script_from_dict(payload: dict, seed: int = 0) -> FaultScript:
    """Rebuild a script serialised by :func:`script_to_dict`.

    Version-2 payloads rebuild each behaviour from its recorded
    parameters and persisted RNG seed, so the rebuilt script replays
    byte-identically to the original. ``seed`` roots the RNG forks for
    version-1 payloads (and v2 entries predating ``rng_seed``), where
    the same (payload, seed) pair always yields the same script.
    Raises ``ValueError`` on any payload it did not write.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"fault script must be an object, got {payload!r}")
    version = payload.get("version")
    if version not in (1, SCRIPT_VERSION):
        raise ValueError(f"unsupported fault-script version {version!r}")
    entries = payload.get("injections")
    if not isinstance(entries, list):
        raise ValueError("fault script has no injections list")
    for entry in entries:
        # ``type(...) is int``: a JSON ``true`` is no time or seed.
        if not (isinstance(entry, dict)
                and type(entry.get("time")) is int and entry["time"] >= 0
                and isinstance(entry.get("node"), str)
                and isinstance(entry.get("kind"), str)
                and isinstance(entry.get("params", {}), dict)
                and type(entry.get("rng_seed", 0)) is int):
            raise ValueError(f"malformed injection {entry!r}")
    root = DeterministicRandom(seed)
    injections = []
    for i, entry in enumerate(entries):
        if version == 1:
            behavior = make_behavior(str(entry["kind"]),
                                     root.fork(f"inj{i}"))
        else:
            rng_seed = entry.get("rng_seed")
            rng = (DeterministicRandom(int(rng_seed))
                   if rng_seed is not None else root.fork(f"inj{i}"))
            behavior = make_behavior(str(entry["kind"]), rng,
                                     entry.get("params"))
        injections.append(Injection(int(entry["time"]),
                                    str(entry["node"]), behavior))
    return FaultScript(injections)


class Adversary:
    """Base adversary: compromises nothing."""

    def script(self, candidate_nodes: Sequence[str],
               rng: DeterministicRandom) -> FaultScript:
        return FaultScript()


@dataclass
class SingleFaultAdversary(Adversary):
    """Compromises one chosen (or first candidate) node at a fixed time."""

    at: int
    kind: str = "commission"
    node: Optional[str] = None

    def script(self, candidate_nodes, rng) -> FaultScript:
        if not candidate_nodes:
            return FaultScript()
        node = self.node if self.node is not None else sorted(candidate_nodes)[0]
        if node not in candidate_nodes:
            raise ValueError(f"{node} is not a candidate for compromise")
        return FaultScript([
            Injection(self.at, node, make_behavior(self.kind, rng)),
        ])


@dataclass
class PacingAdversary(Adversary):
    """The §3 worst case: a new fault every ``interval`` µs, k faults total.

    With interval = R, each fault lands just as the system finishes
    recovering from the previous one, maximising total disruption (≈ kR).
    """

    start: int
    interval: int
    k: int
    kind: str = "commission"
    #: Explicit victim order (defaults to sorted candidates).
    victims: Optional[Sequence[str]] = None

    def script(self, candidate_nodes, rng) -> FaultScript:
        victims = list(self.victims if self.victims is not None
                       else sorted(candidate_nodes))[: self.k]
        if len(victims) < self.k:
            raise ValueError(
                f"adversary wants {self.k} victims, only {len(victims)} "
                f"candidates"
            )
        return FaultScript([
            Injection(self.start + i * self.interval, node,
                      make_behavior(self.kind, rng.fork(f"pace{i}")))
            for i, node in enumerate(victims)
        ])


@dataclass
class RandomAdversary(Adversary):
    """k faults at random times and nodes (seeded, reproducible).

    Victims are drawn from the *deduplicated* candidate set (a caller
    passing repeated node ids must not make double-injection of one node
    possible), nodes in ``already_faulty`` are never re-injected (a
    compromised node stays compromised — re-injecting it would violate
    the :class:`FaultScript` invariant mid-build), and each (time, node)
    pair is drawn jointly so no two injections can collide on the same
    (tick, node).
    """

    horizon: int
    k: int
    kinds: Sequence[str] = ("crash", "omission", "commission", "timing")
    min_time: int = 0
    #: Nodes compromised before this script runs; excluded up front.
    already_faulty: Sequence[str] = ()

    def script(self, candidate_nodes, rng) -> FaultScript:
        faulty = set(self.already_faulty)
        candidates = sorted(set(candidate_nodes) - faulty)
        if len(candidates) < self.k:
            raise ValueError(
                f"adversary wants {self.k} victims, only "
                f"{len(candidates)} distinct un-compromised candidates")
        victims = rng.sample(candidates, self.k)
        # Times are drawn per victim (in victim order) and the pairs then
        # sorted jointly, so the (tick, node) pairing is a pure function
        # of the seed — not an artifact of sorting times independently.
        pairs = sorted(
            (rng.randint(self.min_time, self.horizon), node)
            for node in victims
        )
        return FaultScript([
            Injection(t, node,
                      make_behavior(rng.choice(list(self.kinds)),
                                    rng.fork(f"rand{i}")))
            for i, (t, node) in enumerate(pairs)
        ])
