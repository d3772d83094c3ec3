"""Bounded model checking of the mode-switch protocol (``repro check``).

The verify layer audits the *artifact* (plans, placements, routes, mode
graph); this package checks the *protocol*: it drives the deterministic
simulator through the bounded product space of adversary choices (which
node, which fault kind, which injection tick) × message-delivery
orderings (bounded delivery delays at each hop), and checks three
invariants on every explored path — the Definition 3.1 ``kR`` recovery
bound, agreement among correct nodes (including "no correct node is
ever implicated"), and mode-graph reachability shared with the static
``mode.*`` rules.

Exploration is stateless: each path is one full simulator run under a
specific :class:`~repro.mc.choices.Cell` + delivery schedule (one call
of :func:`~repro.mc.judge.judge`, as in the fuzzer and every replay), so
every counterexample is replayable through the normal ``repro run`` path
by construction. Tractability comes from state-hash deduplication (the
invariant-relevant abstraction of a path, hashed with
``trace_fingerprint``) and sleep-set-style pruning of delivery
perturbations that provably commute at per-receiver granularity. See
``docs/STATIC_ANALYSIS.md`` ("Bounded model checking") for the state
space and the soundness caveats of the bounded window.
"""

from .campaign import CheckParams, run_campaign
from .choices import Cell, cell_script
from .counterexample import (
    CounterexampleError,
    counterexample_from_dict,
    counterexample_to_dict,
    read_counterexample,
    replay_counterexample,
)
from .explorer import explore_cell, state_fingerprint
from .hooks import DeliveryPerturbation
from .invariants import Violation, check_path, static_mode_findings
from .judge import first_violating_prefix, judge

__all__ = [
    "Cell",
    "CheckParams",
    "CounterexampleError",
    "DeliveryPerturbation",
    "Violation",
    "cell_script",
    "check_path",
    "counterexample_from_dict",
    "counterexample_to_dict",
    "explore_cell",
    "first_violating_prefix",
    "judge",
    "read_counterexample",
    "replay_counterexample",
    "run_campaign",
    "state_fingerprint",
    "static_mode_findings",
]
