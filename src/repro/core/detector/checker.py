"""Checking-task logic: replica output comparison (§4.1–4.2).

A checking task runs once per period, right after its task's replicas. Its
decision procedure, given the replica output statements that arrived and its
own copy of the task's inputs:

1. **Fast path** — forward the primary's value immediately (or the lowest-
   index replica present if the primary's output is missing). This is the
   paper's "BTR can use the output of some replicas without waiting for the
   others to complete": forwarding never waits on detection.
2. **Compare** — if any two present outputs disagree, re-execute the task
   from the checker's own inputs (reference value), and accuse every
   replica whose output is wrong *and* whose attested input digest matches
   the checker's inputs (commission evidence).
3. **Investigate** — replicas whose input digest differs from the
   checker's were fed different inputs: either they lie, or the upstream
   equivocated. The checker requests their stored upstream statements; two
   contradictory signed statements yield equivocation evidence.
4. **Declare** — replicas whose outputs never arrived produce path-problem
   declarations (the omission route, §4.2).

This module is pure logic over statements; the runtime supplies the
statements and executes the resulting actions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ...crypto.authenticator import AuthenticatedStatement, digest
from ...crypto.signatures import canonical_bytes
from ...workload.task import compute_output


def input_digest(values: Sequence[int]) -> str:
    """Digest binding an output statement to the inputs it was computed
    from (order-independent, like the task semantics)."""
    return _digest_of_inputs(tuple(sorted(values)))


@lru_cache(maxsize=4096)
def _digest_of_inputs(sorted_values: Tuple[int, ...]) -> str:
    """:func:`input_digest` of already-sorted inputs. Pure — a content
    hash of its argument — so one bounded process-wide memo serves every
    replica, checker and run."""
    return digest(list(sorted_values))


@dataclass
class CheckOutcome:
    """What the checker decided for one (task, period)."""

    #: Value to forward downstream (None => nothing arrived; omission).
    forward_value: Optional[int]
    #: Replica instance whose value is forwarded.
    forward_source: Optional[str]
    #: Replica instances convicted of commission (evidence can be built
    #: from their statement + the checker's inputs).
    convicted: List[str] = field(default_factory=list)
    #: Replica instances whose input digests mismatch: run the
    #: equivocation-investigation protocol against their upstream.
    investigate: List[str] = field(default_factory=list)
    #: Replica instances whose outputs are missing entirely.
    missing: List[str] = field(default_factory=list)
    #: Reference value if a re-execution happened (diagnostics).
    reference: Optional[int] = None
    #: True when a disagreement forced a re-execution.
    recomputed: bool = False


def run_check(
    task: str,
    period: int,
    expected_replicas: Sequence[str],
    replica_statements: Dict[str, AuthenticatedStatement],
    own_input_values: Optional[List[int]],
) -> CheckOutcome:
    """Execute the checker decision procedure. See module docstring.

    ``own_input_values`` is None when the checker's own input copies have
    not all arrived (then disagreement can be detected but not localized).
    """
    present = [r for r in expected_replicas if r in replica_statements]
    missing = [r for r in expected_replicas if r not in replica_statements]

    if not present:
        return CheckOutcome(forward_value=None, forward_source=None,
                            missing=missing)

    primary = expected_replicas[0]
    source = primary if primary in replica_statements else present[0]
    forward_value = replica_statements[source].statement.get("value")

    values = {
        r: replica_statements[r].statement.get("value") for r in present
    }
    outcome = CheckOutcome(
        forward_value=forward_value, forward_source=source, missing=missing,
    )
    disagreement = len(set(values.values())) > 1

    if own_input_values is None:
        if disagreement:
            # Cannot localize without inputs; investigate everyone who
            # disagrees with the forwarded value.
            outcome.investigate = [r for r in present
                                   if values[r] != forward_value]
        return outcome

    # Digest audit runs every period — it is a cheap comparison and it is
    # the only defence when an equivocating upstream fed *all* replicas the
    # same wrong inputs (they agree with each other, but not with the
    # checker's own copy).
    own_digest = input_digest(own_input_values)
    mismatched = [
        r for r in present
        if replica_statements[r].statement.get("input_digest") != own_digest
    ]
    outcome.investigate.extend(mismatched)

    if not disagreement:
        return outcome

    reference = compute_output(task, period, own_input_values)
    outcome.reference = reference
    outcome.recomputed = True
    for replica in present:
        if values[replica] == reference or replica in mismatched:
            continue
        # Same inputs, wrong output: provable commission.
        outcome.convicted.append(replica)
    return outcome


def audit_forward(
    fwd_statement: AuthenticatedStatement,
    audit_statements: Dict[str, AuthenticatedStatement],
    expected_replicas: Sequence[str],
) -> bool:
    """True iff the forwarded value provably mismatches the replica set.

    The downstream checker holds the upstream checker's forwarded statement
    and the upstream replicas' audit copies. If *all* replicas reported and
    the forwarded value equals none of them, the forwarder corrupted the
    value (forward-mismatch evidence can be assembled from exactly these
    statements). With replicas missing we stay silent — omission handling
    covers those.
    """
    if set(audit_statements) != set(expected_replicas):
        return False
    replica_values = {
        s.statement.get("value") for s in audit_statements.values()
    }
    return fwd_statement.statement.get("value") not in replica_values


def build_output_statement(task: str, instance: str, period: int,
                           value: int, input_values: List[int],
                           send_offset: int) -> dict:
    """The payload a replica signs when reporting its output."""
    return {
        "type": "output",
        "task": task,
        "instance": instance,
        "period": period,
        "value": value,
        "input_digest": input_digest(input_values),
        "send_offset": send_offset,
    }


def build_forward_statement(flow: str, period: int, value: int,
                            send_offset: int,
                            reconstructed: bool = False) -> dict:
    """The payload a checker (or source host) signs when forwarding the
    agreed value over a dataflow edge.

    ``reconstructed`` marks values the checker re-derived from audit
    copies because its own replicas were starved by an upstream outage —
    a signed admission that this stage's replicas produced nothing, which
    tells downstream omission detectors not to blame those replicas'
    hosts.
    """
    payload = {
        "type": "fwd",
        "flow": flow,
        "period": period,
        "value": value,
        "send_offset": send_offset,
    }
    if reconstructed:
        payload["reconstructed"] = True
    return payload


# ------------------------------------------------------------- templates
# The two statement shapes above are signed once per message, so their
# canonical serialisation is compiled per (task, instance) / per flow:
# the constant keys and names are rendered once, the per-message integers
# are formatted in. ``canonical_bytes`` stays the definition — a template
# only answers for a payload of exactly its shape, with exactly its names,
# whose variable fields are plain ``int`` (and a plain hex digest); any
# other payload is handed to ``canonical_bytes`` — and the property test
# in tests/test_detector.py holds the two equal on arbitrary names and
# integers.

def _fragment(name: str) -> str:
    """``name`` as canonical JSON renders it, escaped for %-formatting."""
    return json.dumps(name).replace("%", "%%")


class OutputTemplate:
    """Canonical bytes of :func:`build_output_statement` payloads of one
    replica instance."""

    __slots__ = ("task", "instance", "_fmt")

    def __init__(self, task: str, instance: str) -> None:
        self.task = task
        self.instance = instance
        self._fmt = (
            '{"input_digest":"%s","instance":' + _fragment(instance)
            + ',"period":%d,"send_offset":%d,"task":' + _fragment(task)
            + ',"type":"output","value":%d}')

    def canonical(self, payload: dict) -> bytes:
        if len(payload) == 7:
            try:
                digest = payload["input_digest"]
                period = payload["period"]
                offset = payload["send_offset"]
                value = payload["value"]
                if (payload["type"] == "output"
                        and payload["task"] == self.task
                        and payload["instance"] == self.instance
                        and type(digest) is str and digest.isalnum()
                        and digest.isascii()
                        and type(period) is int and type(offset) is int
                        and type(value) is int):
                    return (self._fmt
                            % (digest, period, offset, value)).encode()
            except KeyError:
                pass
        return canonical_bytes(payload)


class ForwardTemplate:
    """Canonical bytes of :func:`build_forward_statement` payloads of one
    logical flow, with or without the ``reconstructed`` admission."""

    __slots__ = ("flow", "_plain", "_reconstructed")

    def __init__(self, flow: str) -> None:
        self.flow = flow
        head = '{"flow":' + _fragment(flow) + ',"period":%d'
        tail = ',"send_offset":%d,"type":"fwd","value":%d}'
        self._plain = head + tail
        self._reconstructed = head + ',"reconstructed":true' + tail

    def canonical(self, payload: dict) -> bytes:
        size = len(payload)
        if size == 5:
            fmt = self._plain
        elif size == 6 and payload.get("reconstructed") is True:
            fmt = self._reconstructed
        else:
            return canonical_bytes(payload)
        try:
            period = payload["period"]
            offset = payload["send_offset"]
            value = payload["value"]
            if (payload["type"] == "fwd" and payload["flow"] == self.flow
                    and type(period) is int and type(offset) is int
                    and type(value) is int):
                return (fmt % (period, offset, value)).encode()
        except KeyError:
            pass
        return canonical_bytes(payload)
