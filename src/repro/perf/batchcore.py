"""The hop runtime: every link crossing of a run, and the sweep sibling
of a prepared system.

:class:`BatchRuntime` is the substrate's one hop path. BTR and every
baseline send through it, so every system pays the same lane arithmetic
(the bus-guardian reservation of the paper's system model). It serves
the three send shapes a run has:

* **unicast** — :meth:`BatchRuntime.send`: one lane reservation and one
  heap event per hop (data, state transfer, routed control traffic);

* **fan-out batching** — a heartbeat flood or evidence broadcast emits N
  single-hop copies whose deliveries would be scheduled back-to-back
  with consecutive sequence numbers. All copies that arrive at the same
  time are coalesced into ONE heap event (a :class:`_HeartbeatBatch` /
  :class:`_MessageBatch`) that dispatches the deliveries in emission
  order. This is order-preserving by construction: two coalesced
  entries have equal timestamps and no foreign event can hold a sequence
  number between theirs (the emission loop issues no other schedules),
  so the (time, seq) total order of *observable* work is the one a
  heap event per message would give. ``events_executed`` is bumped per
  logical delivery, so the gauge counts messages, not heap pops.

* **seen-copy tallies** — a heartbeat copy to a node that already holds
  the heartbeat changes nothing on arrival but the hop counts, so when
  hops are tallied (``milestones``) it is counted at send time and never
  scheduled; a batch marks all its first receipts before any re-floods.
  Once every node holds ``(origin, k)`` or is crashed (the key is
  *settled*), and while no link is lossy and no delivery hook is
  installed, a flood of it reserves nothing copy by copy either: it
  becomes a debt on its sender, and all the sender's floods of one
  instant are paid together — ``n`` frames back to back per lane, those
  arriving by the horizon counted — before anything next reads the
  sender's lanes (its own per-copy flood, a unicast send, ``end_run``).

Every delivery calls the receiving agent directly, behind the receiving
node's ``crashed`` check: ``_on_message``, or — for a heartbeat, which
travels as no :class:`~repro.sim.message.Message` at all — the seen-set
mark and the re-flood. Around that:

* **messages and batch events are values** — a message is built once
  per copy and never rewritten, so a receiver may keep it; a batch event
  is built with its fields when its group opens and dropped when it
  fires. Only the simulator's queue holds a batch, so a batch still
  queued past the horizon leaves with that queue when the run is
  released (:meth:`~repro.sim.engine.Simulator.close`);

* **hop rows** — in a ``full`` trace every send, delivery and link loss
  is handed to :meth:`~repro.sim.trace.Trace.record_row` as a row, never
  built as an event; in ``milestones`` mode the runtime counts hops and
  flushes the tallies into the trace at :meth:`BatchRuntime.end_run`. A
  heartbeat copy's three possible rows (sent, delivered, lost) are fixed
  for the run and ride prebuilt in its emission-plan entry, so recording
  a heartbeat copy — two thirds of a ``fullmesh:7`` trace — allocates
  nothing.

What an agent does per event under a plan is not this module's business:
that is the node program. This module owns only what is fixed per *run*
— the edge table and the per-sender emission plans built in
:meth:`BatchRuntime.begin_run` (lanes are re-installed every run).

The invariant gate is :func:`~repro.sim.trace.trace_fingerprint`
equality with the digests committed in ``tests/golden/``, which a
message-per-heap-event engine (BTR) and the baselines' own transmit path
generated; see docs/PERFORMANCE.md ("Engine") and the E17 benchmark.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Dict, List, Optional

from ..sim.link import ReservationError
from ..sim.message import Message, MessageKind
from ..sim.trace import MessageDelivered, MessageDropped, MessageSent

#: Heartbeat frames are tiny fixed-size CONTROL messages.
HEARTBEAT_BITS = 128

#: (kind, kind value) per traffic class, in declaration order: iterating
#: the Enum class itself costs twice as much per edge at set-up.
_KINDS = tuple((kind, kind._value_) for kind in MessageKind)


class _HeartbeatBatch:
    """One coalesced heap event delivering same-arrival heartbeat copies.

    Carries no :class:`Message` objects at all: a heartbeat's whole
    handler is the receiver's seen-set mark, its liveness stamp and its
    re-flood, which the batch performs itself.
    """

    __slots__ = ("runtime", "sender", "origin", "k", "arrival",
                 "entries", "lost")

    def __init__(self, runtime: "BatchRuntime", sender: str, origin: str,
                 k: int, arrival: int) -> None:
        self.runtime = runtime
        self.sender = sender
        self.origin = origin
        self.k = k
        self.arrival = arrival
        #: The sender's emission-plan entries (see
        #: :meth:`BatchRuntime.begin_run`), one per copy, whole: the
        #: batch reads the receiving node and agent and the delivered /
        #: lost trace rows off them.
        self.entries: List[tuple] = []
        #: Positions in ``entries`` whose frame the link lost.
        self.lost: List[int] = []

    def __call__(self) -> None:
        runtime = self.runtime
        trace = runtime.trace
        retained = runtime.retained
        metrics = runtime.metrics
        flood = runtime.flood_heartbeat
        sender = self.sender
        origin = self.origin
        k = self.k
        arrival = self.arrival
        entries = self.entries
        lost = self.lost
        # Per entry: the receiving agent on a first receipt (it
        # re-floods in pass 2), else None.
        firsts: List[object] = []
        n = len(entries)
        # One engine pop stands for n logical deliveries; the
        # events-executed gauge counts messages.
        runtime.sim.events_executed += n - 1
        runtime.batches_fired += 1
        runtime.entries_batched += n
        seen_key = (origin, k)
        # Pass 1: mark every first receipt before anyone re-floods, so
        # each re-flood finds this whole batch seen and tallies its
        # copies to it. Marking hooks, draws, records and schedules
        # nothing, and no flood reads another receiver's seen set, so
        # pass 2 keeps the one-loop order. (The origin marked its own
        # heartbeat when it emitted it.)
        for i, entry in enumerate(entries):
            agent = entry[4]
            if (lost and i in lost) or entry[3].crashed \
                    or seen_key in agent._heartbeats_seen:
                firsts.append(None)
                continue
            agent._heartbeats_seen.add(seen_key)
            agent._last_heartbeat[origin] = arrival
            firsts.append(agent)
        # Pass 2: rows or tallies in entry order; a first receipt
        # re-floods right after its own delivered row.
        delivered = 0
        dropped = 0
        for i, entry in enumerate(entries):
            if lost and i in lost:
                if retained:
                    trace.record_row(arrival, entry[9])
                else:
                    dropped += 1
                metrics.inc("messages_dropped", reason="link_loss")
                continue
            if retained:
                trace.record_row(arrival, entry[8])
            else:
                delivered += 1
            agent = firsts[i]
            if agent is not None:
                flood(agent, origin, k, sender)
        runtime.delivered += delivered
        runtime.dropped += dropped


class _MessageBatch:
    """One coalesced heap event delivering same-arrival messages
    (evidence/declaration broadcast fan-out), one single-hop message per
    copy, in emission order.
    """

    __slots__ = ("runtime", "sender", "arrival", "entries", "messages",
                 "lost")

    def __init__(self, runtime: "BatchRuntime", sender: str,
                 arrival: int) -> None:
        self.runtime = runtime
        self.sender = sender
        self.arrival = arrival
        #: The sender's evidence-plan entries, one per copy.
        self.entries: List[tuple] = []
        self.messages: List[Message] = []
        self.lost: List[bool] = []

    def __call__(self) -> None:
        runtime = self.runtime
        trace = runtime.trace
        retained = runtime.retained
        metrics = runtime.metrics
        sender = self.sender
        arrival = self.arrival
        entries = self.entries
        messages = self.messages
        lost = self.lost
        n = len(messages)
        runtime.sim.events_executed += n - 1
        runtime.batches_fired += 1
        runtime.entries_batched += n
        delivered = 0
        dropped = 0
        for i in range(n):
            message = messages[i]
            if lost[i]:
                if retained:
                    trace.record_row(arrival, (
                        MessageDropped, sender, message.dst,
                        message.kind.value, "link_loss"))
                else:
                    dropped += 1
                metrics.inc("messages_dropped", reason="link_loss")
                continue
            if retained:
                trace.record_row(arrival, (
                    MessageDelivered, sender, message.dst,
                    message.kind.value, message.flow))
            else:
                delivered += 1
            entry = entries[i]
            if not entry[3].crashed:
                entry[4]._on_message(message, arrival)
        runtime.delivered += delivered
        runtime.dropped += dropped


class BatchRuntime:
    """The hop runtime one system (BTR or a baseline) holds across its
    runs: the edge table, the emission plans, the hop-retained flag and
    the sent / delivered / dropped tallies for one run
    (:meth:`begin_run` … :meth:`end_run`)."""

    def __init__(self) -> None:
        # Per-run state, set by begin_run():
        self.sim = None
        self.trace = None
        self.metrics = None
        self._topology = None
        #: (sender, receiver, kind value) -> (link, lane, receiving
        #: node, receiving agent).
        self._edges: Dict[tuple, tuple] = {}
        #: Static per-sender emission plans.
        self._hb_plans: Dict[str, list] = {}
        self._ev_plans: Dict[str, list] = {}
        #: Whether hops are recorded as trace rows (``full``) or counted
        #: into the tallies below (``milestones`` retains none of the
        #: three hop-message kinds).
        self.retained = True
        #: The run's end (``run_until``'s argument): a copy tallied at
        #: send time counts only if it would have arrived by then.
        self.horizon = 0
        #: Whether a settled heartbeat flood may be deferred (see
        #: :meth:`flood_heartbeat`): hops are tallied, no delivery hook is
        #: installed and no link has been lossy so far in the run. A link
        #: script's ``degrade`` clears it.
        self.defer_settled = False
        #: (node, agent) per node of the run, sorted: the settled scan.
        self._members: List[tuple] = []
        #: Heartbeat keys ``(origin, k)`` found settled this run.
        self._settled: set = set()
        #: sender -> [time, floods, {excluded neighbour: count}]: the
        #: deferred settled floods it has not paid for yet.
        self._debts: Dict[str, list] = {}
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.batches_fired = 0
        self.entries_batched = 0
        self.deferred_refloods = 0

    def begin_run(self, sim, trace, topology, metrics,
                  agents: Dict[str, object], horizon: int) -> None:
        """Bind the run and build its static hop state; called after
        agent construction and after ``lane_model.install()`` (the edge
        table and the plans bind the run's Lane objects). ``horizon`` is
        the time the run will be run until.

        The edge table holds, per neighbour edge and message kind, the
        link, the sender's lane, the receiving node and the receiving
        agent. A sender's emission plans are its neighbour fan-out with
        everything that cannot change mid-run resolved ahead of time: the
        lane, the receiving node and agent, and — for the fixed-size
        heartbeat frame — the serialization
        duration itself and the three trace rows a copy can leave
        (``MessageSent`` / ``MessageDelivered`` / ``MessageDropped``:
        sender, neighbour, ``"control"`` and 128 bits never change), so
        a full trace records the plan's own tuples.
        ``loss_probability`` is read live per hop (link scripts mutate
        it mid-run)."""
        self.sim = sim
        self.trace = trace
        self.metrics = metrics
        self._topology = topology
        self.retained = (trace.retains(MessageSent)
                         and trace.retains(MessageDelivered)
                         and trace.retains(MessageDropped))
        self.horizon = horizon
        self.defer_settled = (
            not self.retained and sim.delivery_hook is None
            and not any(link.loss_probability > 0.0
                        for _, link in sorted(topology.links.items())))
        self._members = [(topology.nodes[node_id], agent)
                         for node_id, agent in sorted(agents.items())]
        self._settled = set()
        self._debts = {}
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.batches_fired = 0
        self.entries_batched = 0
        self.deferred_refloods = 0
        edges = self._edges = {}
        self._hb_plans = {}
        self._ev_plans = {}
        for sender, agent in sorted(agents.items()):
            hb_plan = []
            ev_plan = []
            sender_node = topology.nodes[sender]
            for neighbor in topology.neighbors(sender):
                link = sender_node.link_to(neighbor)
                if link is None:
                    continue
                node = topology.nodes[neighbor]
                peer = agents[neighbor]
                for kind, value in _KINDS:
                    lane = link.lane(sender, kind)
                    if lane is not None:
                        edges[sender, neighbor, value] = (
                            link, lane, node, peer)
                ctrl = link.lane_for(sender, MessageKind.CONTROL)
                duration = int(round(HEARTBEAT_BITS
                                     / ctrl.rate_bits_per_us))
                if duration < 1:
                    duration = 1
                hb_plan.append((
                    neighbor, link, ctrl, node, peer,
                    duration, duration + link.propagation_us,
                    (MessageSent, sender, neighbor, "control",
                     HEARTBEAT_BITS, None),
                    (MessageDelivered, sender, neighbor, "control", None),
                    (MessageDropped, sender, neighbor, "control",
                     "link_loss")))
                ev_plan.append((neighbor, link,
                                link.lane_for(sender, MessageKind.EVIDENCE),
                                node, peer, link.propagation_us))
            self._hb_plans[sender] = hb_plan
            self._ev_plans[sender] = ev_plan

    def end_run(self) -> None:
        """Pay every deferred flood, then flush the run's hop tallies
        into its trace (non-zero only when the trace retains no hops)."""
        for sender in sorted(self._debts):
            self._pay(sender)
        if self.sent:
            self.trace.tally(MessageSent, self.sent)
        if self.delivered:
            self.trace.tally(MessageDelivered, self.delivered)
        if self.dropped:
            self.trace.tally(MessageDropped, self.dropped)

    # ------------------------------------------------------------ unicast

    def send(self, sender: str, receiver: str, message: Message) -> None:
        """One hop from ``sender`` to its neighbour ``receiver``.

        Serializes ``message`` on the sender's lane for its kind, adds
        the link's propagation delay, consults the delivery hook, draws
        the loss RNG iff the link is lossy, and schedules exactly one
        heap event: the delivery, or the drop. Raises
        :class:`~repro.sim.link.ReservationError` when ``receiver`` is
        not a neighbour or the sender holds no lane for the kind.
        """
        # kind._value_ (a str) rather than the enum member: tuple hashing
        # then stays entirely at C level instead of calling Enum.__hash__
        # per message, and the private attribute skips the
        # DynamicClassAttribute descriptor behind ``.value``.
        kind = message.kind._value_
        edge = self._edges.get((sender, receiver, kind))
        if edge is None:
            raise self._unreserved(sender, receiver, message.kind)
        link, lane, node, agent = edge
        if sender in self._debts:
            self._pay(sender)
        sim = self.sim
        now = sim.now
        bits = message.size_bits
        if self.retained:
            self.trace.record_row(now, (
                MessageSent, sender, receiver, kind, bits, message.flow))
        else:
            self.sent += 1
        free = lane.next_free
        start = now if now >= free else free
        duration = int(round(bits / lane.rate_bits_per_us))
        if duration < 1:
            duration = 1
        lane.next_free = start + duration
        arrival = start + duration + link.propagation_us
        if sim.delivery_hook is not None:
            arrival = sim.delivery_hook(sender, receiver, arrival)
        # arrival >= now by construction (start >= now, duration >= 1,
        # hooks may only delay) — the engine re-checks it.
        if link.loss_probability > 0.0 \
                and sim.rng.random() < link.loss_probability:
            sim.schedule(arrival, partial(
                self._dropped, sender, receiver, message))
            return
        sim.schedule(arrival, partial(
            self._deliver, node, agent, sender, receiver, message,
            arrival))

    def _unreserved(self, sender: str, receiver: str,
                    kind: MessageKind) -> ReservationError:
        link = self._topology.nodes[sender].link_to(receiver)
        if link is None:
            return ReservationError(
                f"{receiver} is not a neighbour of {sender}")
        return ReservationError(
            f"no lane for ({sender}, {kind.value}) on {link.link_id}")

    def _deliver(self, node, agent, sender: str, receiver: str,
                 message: Message, arrival: int) -> None:
        if self.retained:
            self.trace.record_row(arrival, (
                MessageDelivered, sender, receiver, message.kind._value_,
                message.flow))
        else:
            self.delivered += 1
        if not node.crashed:
            agent._on_message(message, arrival)

    def _dropped(self, sender: str, receiver: str,
                 message: Message) -> None:
        if self.retained:
            self.trace.record_row(self.sim.now, (
                MessageDropped, sender, receiver, message.kind._value_,
                "link_loss"))
        else:
            self.dropped += 1
        self.metrics.inc("messages_dropped", reason="link_loss")

    # ------------------------------------------------------------ fan-out

    def flood_heartbeat(self, agent, origin: str, k: int,
                        exclude: Optional[str]) -> None:
        """Vectorised heartbeat fan-out: one lane reservation + trace
        entry per receiver, one heap event per distinct arrival time.
        RNG draws (lossy links) and the delivery hook are consulted per
        receiver in emission order.

        When hops are tallied, a copy to a receiver that already holds
        ``(origin, k)`` is never scheduled — its delivery could only
        count it (seen sets only grow; a seen receiver neither re-floods
        nor restamps liveness, crashed or not) — so it is counted here,
        if it arrives by the horizon: delivered, or dropped plus
        ``messages_dropped``, and one executed event. In a ``full``
        trace its delivered row has a place, so every copy is
        scheduled.

        When the whole flood is such copies — ``(origin, k)`` is
        settled — and nothing draws or hooks per copy
        (:attr:`defer_settled`), not even the lane reservations are made
        here: the flood becomes a debt on the sender, which
        :meth:`_pay` settles for all its floods of one instant at once,
        before anything next reads the sender's lanes."""
        sim = self.sim
        sender = agent.node_id
        now = sim.now
        seen_key = (origin, k)
        debts = self._debts
        if self.defer_settled and self._is_settled(seen_key):
            debt = debts.get(sender)
            if debt is None or debt[0] != now:
                if debt is not None:
                    self._pay(sender)
                debt = debts[sender] = [now, 0, {}]
            debt[1] += 1
            excluded = debt[2]
            excluded[exclude] = excluded.get(exclude, 0) + 1
            self.deferred_refloods += 1
            return
        if sender in debts:
            self._pay(sender)
        trace = self.trace
        retained = self.retained
        horizon = self.horizon
        hook = sim.delivery_hook
        rng_random = sim.rng.random
        sent = 0
        delivered = 0
        dropped = 0
        groups: Dict[int, _HeartbeatBatch] = {}
        for entry in self._hb_plans[sender]:
            neighbor = entry[0]
            if neighbor == exclude:
                continue
            link = entry[1]
            lane = entry[2]
            if retained:
                trace.record_row(now, entry[7])
            else:
                sent += 1
            # Inlined lane reservation with the precomputed constant
            # duration (the frame size and lane rate are fixed for the
            # whole run).
            free = lane.next_free
            start = now if now >= free else free
            lane.next_free = start + entry[5]
            arrival = start + entry[6]
            if hook is not None:
                arrival = hook(sender, neighbor, arrival)
            loss = link.loss_probability
            lost = loss > 0.0 and rng_random() < loss
            if not retained and seen_key in entry[4]._heartbeats_seen:
                if arrival <= horizon:
                    if lost:
                        dropped += 1
                        self.metrics.inc("messages_dropped",
                                         reason="link_loss")
                    else:
                        delivered += 1
                continue
            batch = groups.get(arrival)
            if batch is None:
                batch = groups[arrival] = _HeartbeatBatch(
                    self, sender, origin, k, arrival)
                sim.schedule(arrival, batch)
            if lost:
                batch.lost.append(len(batch.entries))
            batch.entries.append(entry)
        self.sent += sent
        self.delivered += delivered
        self.dropped += dropped
        sim.events_executed += delivered + dropped

    def _is_settled(self, key: tuple) -> bool:
        """Whether every node of the run holds heartbeat ``key`` or is
        crashed. Both only grow within a run (seen sets never shrink; a
        crash never recovers), so a settled key stays settled."""
        settled = self._settled
        if key in settled:
            return True
        for node, agent in self._members:
            if key not in agent._heartbeats_seen and not node.crashed:
                return False
        settled.add(key)
        return True

    def _pay(self, sender: str) -> None:
        """Make the lane reservations of ``sender``'s deferred floods and
        count their copies, as the per-copy path would have.

        All the floods of one debt happened at one instant, so each
        neighbour's copies go out back to back on its lane from the
        first free moment, one frame duration apart, and each copy that
        arrives by the horizon counts as delivered and as one executed
        event. Its receiver holds the heartbeat or is crashed, so the
        delivery would have done nothing else."""
        now, floods, excluded = self._debts.pop(sender)
        horizon = self.horizon
        sent = 0
        delivered = 0
        for entry in self._hb_plans[sender]:
            n = floods - excluded.get(entry[0], 0)
            if not n:
                continue
            lane = entry[2]
            duration = entry[5]
            free = lane.next_free
            start = now if now >= free else free
            lane.next_free = start + n * duration
            sent += n
            # Copy i (from 0) arrives at start + i·duration + entry[6].
            slack = horizon - entry[6] - start
            if slack >= 0:
                arrived = slack // duration + 1
                delivered += n if arrived > n else arrived
        self.sent += sent
        self.delivered += delivered
        self.sim.events_executed += delivered

    def flood_messages(self, agent, kind: MessageKind, payload,
                       bits: int, exclude: Optional[str]) -> None:
        """Vectorised single-hop broadcast of one payload envelope to all
        neighbours (evidence/declaration flooding): one message per
        receiver, one heap event per distinct arrival time. Only called
        for EVIDENCE-lane traffic (the endorsed control records)."""
        sim = self.sim
        trace = self.trace
        retained = self.retained
        hook = sim.delivery_hook
        rng_random = sim.rng.random
        sender = agent.node_id
        kind_value = kind._value_
        now = sim.now
        sent = 0
        groups: Dict[int, _MessageBatch] = {}
        for entry in self._ev_plans[sender]:
            neighbor = entry[0]
            if neighbor == exclude:
                continue
            link = entry[1]
            lane = entry[2]
            if retained:
                trace.record_row(now, (MessageSent, sender, neighbor,
                                 kind_value, bits, None))
            else:
                sent += 1
            free = lane.next_free
            start = now if now >= free else free
            duration = int(round(bits / lane.rate_bits_per_us))
            if duration < 1:
                duration = 1
            lane.next_free = start + duration
            arrival = start + duration + entry[5]
            if hook is not None:
                arrival = hook(sender, neighbor, arrival)
            loss = link.loss_probability
            lost = loss > 0.0 and rng_random() < loss
            message = Message(sender, neighbor, kind, payload, bits)
            batch = groups.get(arrival)
            if batch is None:
                batch = groups[arrival] = _MessageBatch(self, sender,
                                                        arrival)
                sim.schedule(arrival, batch)
            batch.entries.append(entry)
            batch.messages.append(message)
            batch.lost.append(lost)
        self.sent += sent

    def stats(self) -> dict:
        return {
            "batches_fired": self.batches_fired,
            "entries_batched": self.entries_batched,
            "deferred_refloods": self.deferred_refloods,
            # There is no message pool. The key stays because
            # benchmarks/e2e/layers.py::_observe_run reads both counts
            # after every BTRSystem.run.
            "pool": {"acquired": 0, "reused": 0},
        }


# --------------------------------------------------------------- sweeps

def sibling_system(prototype, seed: int):
    """A prepared system for another seed, sharing the prototype's frozen
    planning artifacts: the strategy (with each plan's compiled node
    programs and send-offset table), the recovery budget (which carries
    the switch lead), the topology (with its router's path cache), and
    the lane model. The key directory is built for the new seed and
    derives its own keys (the master seed differs). The sibling's runs
    are byte-identical to a freshly constructed+prepared system on that
    seed (``tests/test_pool.py`` and E17's sweep check assert this);
    the multi-seed sweep, :func:`repro.perf.pool.run_sweep`, runs on
    them."""
    from ..core.runtime.system import BTRSystem

    config = dataclasses.replace(prototype.config, seed=seed)
    sibling = BTRSystem(prototype.workload, prototype.topology, config)
    sibling.lane_model = prototype.lane_model
    sibling.strategy = prototype.strategy
    sibling.budget = prototype.budget
    return sibling

