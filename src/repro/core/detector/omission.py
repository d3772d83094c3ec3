"""Omission handling: path declarations and blame attribution (§4.2).

"In contrast to commission faults, there is no direct way to prove that a
faulty node failed to send ... One way to avoid this would be to allow both
the sender and the recipient to declare (without further evidence) a problem
with the path between them; the system could then ... keep track of which
paths have been declared problematic. If a node is on a large number of
problematic paths, it may be possible to attribute the problem to that
node."

:class:`BlameTracker` aggregates validated declarations. Attribution rules:

* a declaration charges every node on the declared path **except the
  declarer** (you cannot build a case against others by your own say-so
  alone — nor accidentally against yourself);
* a node becomes *attributable* once it is charged in at least
  :data:`DEFAULT_SLOT_THRESHOLD` distinct (path, period, declarer) slots
  from at least :data:`DEFAULT_MIN_DECLARERS` distinct declarers (a
  single faulty declarer can never get a correct node convicted);
* among qualifying nodes, only the one with the **strictly dominant**
  charge count is attributed per round. A silent node breaks *every* path
  through it — including paths it merely forwarded — so it dominates; the
  innocent endpoints of those paths accumulate strictly fewer charges and
  must wait (a tie means the evidence cannot yet separate suspects);
* attribution is withheld when every charge against the candidate is
  consistent with a single bad **adjacency** *and the candidate is
  demonstrably alive* (it has issued declarations of its own): if one
  common neighbour appears next to the candidate in every declared path,
  the evidence cannot distinguish "the node is faulty" from "that one
  link is faulty" (a connector, not a controller) — and a live endpoint
  of a dead link always declares too, because it is missing the traffic
  from across that link. A dead *node* declares nothing, so the excuse
  never applies to it even on degree-2 topologies where all its traffic
  happened to route through one neighbour. This is the paper's "declare a
  problem with the path" case, which node-set-keyed modes cannot express;
* attribution is sticky — each node is attributed at most once — and the
  runtime resets accumulated charges at every mode switch, because charges
  gathered under the old plan describe the old regime.

The design consequence (documented limitation, exercised in experiment E9):
a faulty node that omits messages toward *one* counterparty only yields one
declarer and is never attributed by this rule; its disruption is bounded
instead by the plans avoiding declared paths. The paper flags exactly this
corner as an open challenge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ...crypto.authenticator import AuthenticatedStatement

#: Distinct (path, period, declarer) slots before attribution.
DEFAULT_SLOT_THRESHOLD = 3
#: Distinct declarers required for attribution.
DEFAULT_MIN_DECLARERS = 2
#: Extra wait beyond the arrival window before declaring an omission.
OMISSION_GRACE_US = 1_000


def slot_key(decl: AuthenticatedStatement) -> Tuple[tuple, int, str]:
    """The (path, period, declarer) slot a declaration charges.
    Attribution counts distinct slots, so a declarer repeating itself in
    one slot adds nothing."""
    stmt = decl.statement
    return tuple(stmt["path"]), stmt["period"], decl.signer


@dataclass
class BlameState:
    """Accumulated charges against one node."""

    slots: Set[Tuple[tuple, int, str]] = field(default_factory=set)
    declarers: Set[str] = field(default_factory=set)
    periods: Set[int] = field(default_factory=set)

    @property
    def slot_count(self) -> int:
        return len(self.slots)

    @property
    def period_span(self) -> int:
        """Distinct periods in which this node was charged."""
        return len(self.periods)


class BlameTracker:
    """Aggregates path declarations into fault attributions."""

    def __init__(self, liveness: Optional[Callable[[str], bool]] = None,
                 metrics=None) -> None:
        #: Optional control-plane liveness oracle (heartbeats). Falls back
        #: to "has issued declarations" when absent.
        self.liveness = liveness
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry`.
        self.metrics = metrics
        self._state: Dict[str, BlameState] = {}
        self.attributed: Set[str] = set()
        #: Nodes that have issued declarations since the last reset —
        #: proof of control-plane life (see module docstring).
        self.seen_declarers: Set[str] = set()

    def add_declaration(self, decl: AuthenticatedStatement) -> None:
        """Charge the nodes on a (signature-validated) declaration's path."""
        slot = slot_key(decl)
        path, period, declarer = slot
        self.seen_declarers.add(declarer)
        if self.metrics is not None:
            self.metrics.inc("blame_declarations")
        for node in path:
            if node == declarer:
                continue
            state = self._state.setdefault(node, BlameState())
            state.slots.add(slot)
            state.declarers.add(declarer)
            state.periods.add(period)

    def charges_against(self, node: str) -> int:
        state = self._state.get(node)
        return state.slot_count if state else 0

    def supporting_declarations(
        self, node: str, declarations: List[AuthenticatedStatement]
    ) -> List[AuthenticatedStatement]:
        """The subset of ``declarations`` that charge ``node``."""
        return [
            d for d in declarations
            if node in d.statement.get("path", ()) and d.signer != node
        ]

    def newly_attributable(self) -> List[str]:
        """The node that just crossed the attribution bar, if it strictly
        dominates all other charged nodes (see module docstring). Marks it
        sticky. Returns at most one node per call."""
        qualifying = [
            (state.slot_count, node)
            for node, state in sorted(self._state.items())
            if node not in self.attributed
            and state.slot_count >= DEFAULT_SLOT_THRESHOLD
            and len(state.declarers) >= DEFAULT_MIN_DECLARERS
        ]
        if not qualifying:
            return []
        qualifying.sort(reverse=True)
        top_count, top_node = qualifying[0]
        state = self._state[top_node]
        if self._single_adjacency_explains(top_node):
            alive = (self.liveness(top_node) if self.liveness is not None
                     else top_node in self.seen_declarers)
            sustained = state.period_span >= DEFAULT_SLOT_THRESHOLD + 2
            if alive and not sustained:
                # Alive + one suspect adjacency: most likely a link fault,
                # not a node — wait. But the shield is not permanent: a
                # Byzantine node could heartbeat while omitting exactly
                # its one adjacency's traffic, and even for a genuine link
                # fault, excluding one endpoint is the *only* recovery a
                # node-set-keyed strategy has (the excluded node's links —
                # including the dead one — all leave service).
                return []
            if not alive and top_count < DEFAULT_SLOT_THRESHOLD + 2:
                # Its life signal may still be in flight around the dead
                # link: demand extra corroborating slots first.
                return []
        # Strict dominance over every other charged node — *including*
        # already-attributed ones. A node co-charged on an attributed
        # culprit's paths necessarily has fewer charges than the culprit,
        # so this blocks the runner-up from being convicted by the same
        # stale wave of declarations; genuinely new faults are attributed
        # after the mode switch resets the charges.
        for node, state in self._state.items():
            if node == top_node:
                continue
            if state.slot_count >= top_count:
                return []
        self.attributed.add(top_node)
        return [top_node]

    def _single_adjacency_explains(self, node: str) -> bool:
        """True iff one common neighbour sits next to ``node`` in every
        charged path — i.e. the evidence is equally consistent with that
        single link being dead (see module docstring)."""
        state = self._state.get(node)
        if state is None:
            return False
        common: Optional[Set[str]] = None
        for path, _period, _declarer in state.slots:
            try:
                idx = path.index(node)
            except ValueError:
                continue
            adjacent = set()
            if idx > 0:
                adjacent.add(path[idx - 1])
            if idx + 1 < len(path):
                adjacent.add(path[idx + 1])
            common = adjacent if common is None else (common & adjacent)
            if not common:
                return False
        return bool(common)

    def reset_charges(self) -> None:
        """Drop accumulated charges (mode switch: old-regime evidence)."""
        self._state.clear()
        self.seen_declarers.clear()
