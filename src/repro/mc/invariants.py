"""Per-path invariants and the shared static predicate.

Three families, checked on every explored path:

``recovery-bound``
    Definition 3.1's promise: each injected fault's empirical recovery
    time (from :mod:`repro.analysis.correctness`) is at most ``k * R``
    — the paper's §3 worst case allows an adversary with k nodes to
    stretch disruption to kR. Violations carry the per-phase timeline
    from the observability layer (:mod:`repro.obs.recovery`), so a
    counterexample says *where inside R* the time went, not just that
    the bound broke.

``agreement``
    By the end of the run, all correct nodes hold the same mode and the
    same fault set — and that fault set only ever names nodes that were
    actually compromised (no correct node is implicated; the
    false-accusation freedom the adversarial property tests check on
    random adversaries is checked here on *every* explored path).

``mode-reachability``
    Every mode a node switched into during the run, and every final
    fault set, corresponds to a plan the strategy actually holds — the
    dynamic face of the static ``mode.missing-plan`` rule. The static
    side is shared outright: :func:`static_mode_findings` re-runs the
    verify layer's :func:`~repro.verify.modegraph.check_mode_graph` so
    a campaign starts from the same predicates ``repro verify`` applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis.correctness import recovery_times
from ..sim.trace import ModeSwitchCompleted


@dataclass(frozen=True)
class Violation:
    """One invariant broken on one explored path."""

    invariant: str
    detail: str

    def to_dict(self) -> Dict[str, str]:
        return {"invariant": self.invariant, "detail": self.detail}


def recovery_bound_violations(result, R_us: int, k: int = 1
                              ) -> List[Violation]:
    """Check every injected fault's recovery against the ``kR`` bound."""
    late = sorted(recovery_times(result).items())
    late = [(node, us) for node, us in late if us > k * R_us]
    if not late:
        return []
    # Reconstructed only now: timelines cost a trace pass, and paths
    # that hold the bound (the overwhelming majority) skip it.
    from ..obs.recovery import reconstruct_timelines
    phases_by_node = {t.node: t.phases
                      for t in reconstruct_timelines(result)}
    violations: List[Violation] = []
    for node, recovery in late:
        phases = phases_by_node.get(node, {})
        spent = ", ".join(f"{p}={phases[p]}us" for p in sorted(phases)
                          if phases[p] > 0)
        violations.append(Violation(
            invariant="recovery-bound",
            detail=(f"fault on {node} recovered in {recovery}us > "
                    f"k*R = {k}*{R_us}us"
                    + (f" ({spent})" if spent else "")),
        ))
    return violations


def agreement_violations(result) -> List[Violation]:
    """Correct nodes agree on (mode, fault set); no correct node is
    ever implicated."""
    injected = set(result.fault_times())
    correct = [n for n in sorted(result.final_modes) if n not in injected]
    violations: List[Violation] = []
    if not correct:
        return violations
    states = {n: (result.final_modes[n], result.final_fault_sets[n])
              for n in correct}
    distinct = sorted({(states[n][0], tuple(sorted(states[n][1])))
                       for n in correct})
    if len(distinct) > 1:
        rendered = "; ".join(
            f"{n}: mode={states[n][0]} "
            f"faults={{{','.join(sorted(states[n][1]))}}}"
            for n in correct)
        violations.append(Violation(
            invariant="agreement",
            detail=f"correct nodes disagree at end of run: {rendered}",
        ))
    for node in correct:
        framed = sorted(set(states[node][1]) - injected)
        if framed:
            violations.append(Violation(
                invariant="agreement",
                detail=(f"{node} implicates correct node(s) "
                        f"{','.join(framed)} (injected: "
                        f"{{{','.join(sorted(injected))}}})"),
            ))
    return violations


def reachability_violations(strategy, result) -> List[Violation]:
    """Every visited mode and final fault set has a plan behind it."""
    injected = set(result.fault_times())
    known_modes = {strategy.plan_for(p).mode for p in strategy.patterns()}
    violations: List[Violation] = []
    for event in result.trace.of_kind(ModeSwitchCompleted):
        if event.mode not in known_modes:
            violations.append(Violation(
                invariant="mode-reachability",
                detail=(f"{event.node} switched into mode "
                        f"{event.mode!r} at {event.time}us, which no "
                        f"plan in the strategy defines"),
            ))
    for node in sorted(result.final_fault_sets):
        if node in injected:
            continue  # a compromised node's claimed state proves nothing
        fault_set = frozenset(result.final_fault_sets[node])
        if not strategy.has_plan(fault_set):
            violations.append(Violation(
                invariant="mode-reachability",
                detail=(f"{node} ends on fault set "
                        f"{{{','.join(sorted(fault_set))}}} with no "
                        f"plan in the strategy"),
            ))
            continue
        expected = strategy.plan_for(fault_set).mode
        if result.final_modes[node] != expected:
            violations.append(Violation(
                invariant="mode-reachability",
                detail=(f"{node} ends in mode "
                        f"{result.final_modes[node]!r} but its fault "
                        f"set maps to {expected!r}"),
            ))
    return violations


def check_path(result, strategy, R_us: int, k: int = 1
               ) -> List[Violation]:
    """All per-path invariants over one finished run, in a stable order."""
    violations = recovery_bound_violations(result, R_us, k=k)
    violations.extend(agreement_violations(result))
    violations.extend(reachability_violations(strategy, result))
    return violations


def static_mode_findings(strategy, topology) -> List[Violation]:
    """The verify layer's mode-graph errors, rendered as violations.

    Shared predicate, not a reimplementation: this calls the same
    :func:`~repro.verify.modegraph.check_mode_graph` that ``repro verify``
    runs, so a campaign can never certify a strategy the static rules
    would reject.
    """
    from ..verify.findings import Severity
    from ..verify.modegraph import check_mode_graph

    return [
        Violation(
            invariant="mode-graph-static",
            detail=f"{finding.rule}: {finding.subject}: {finding.message}",
        )
        for finding in check_mode_graph(strategy, topology)
        if finding.severity is Severity.ERROR
    ]
