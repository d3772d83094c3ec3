"""What an adversary does to a run: a :class:`FaultScript`.

A script is a deterministic, time-ordered list of (time, node, behaviour)
injections, built before the run and executed by it. The recipes that
choose victims and times from a prepared deployment — one fault, the
paper's §3 pacing worst case, random faults — are the builders in
:mod:`repro.faults.scenarios`. This module holds the script itself, the
behaviour registry and the script's (de)serialisation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional

from ..persist import InputError
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
                raise InputError(
                    f"node {injection.node} injected twice (a compromised "
                    f"node stays compromised)"
                )
            seen.add(injection.node)

    @property
    def faulty_nodes(self) -> List[str]:
        return [i.node for i in self.injections]

    def check_nodes(self, nodes) -> None:
        """``InputError`` naming each injected node not among ``nodes``
        (the deployment's), raised before a run schedules anything."""
        unknown = sorted(set(self.faulty_nodes).difference(nodes))
        if unknown:
            raise InputError(f"fault script injects {', '.join(unknown)}: "
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
    unknown parameters raise ``InputError``, so corrupt artifacts are
    diagnosed at load time, not deep in a run."""
    try:
        cls = BEHAVIORS[kind]
    except KeyError:
        raise InputError(f"unknown fault kind {kind!r}") from None
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
        raise InputError(
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

    Each behaviour is rebuilt from its recorded parameters and
    persisted RNG seed, so the rebuilt script replays byte-identically
    to the original. ``seed`` roots the RNG forks of entries without an
    ``rng_seed``, where the same (payload, seed) pair always yields the
    same script. Raises ``InputError`` on any payload it did not write,
    the retired version-1 layout included.
    """
    if not isinstance(payload, dict):
        raise InputError(f"fault script must be an object, got {payload!r}")
    version = payload.get("version")
    if version != SCRIPT_VERSION:
        raise InputError(f"unsupported fault-script version {version!r}")
    entries = payload.get("injections")
    if not isinstance(entries, list):
        raise InputError("fault script has no injections list")
    for entry in entries:
        # ``type(...) is int``: a JSON ``true`` is no time or seed.
        if not (isinstance(entry, dict)
                and type(entry.get("time")) is int and entry["time"] >= 0
                and isinstance(entry.get("node"), str)
                and isinstance(entry.get("kind"), str)
                and isinstance(entry.get("params", {}), dict)
                and type(entry.get("rng_seed", 0)) is int):
            raise InputError(f"malformed injection {entry!r}")
    root = DeterministicRandom(seed)
    injections = []
    for i, entry in enumerate(entries):
        rng_seed = entry.get("rng_seed")
        rng = (DeterministicRandom(int(rng_seed))
               if rng_seed is not None else root.fork(f"inj{i}"))
        behavior = make_behavior(str(entry["kind"]), rng,
                                 entry.get("params"))
        injections.append(Injection(int(entry["time"]),
                                    str(entry["node"]), behavior))
    return FaultScript(injections)

