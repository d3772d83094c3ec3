"""The engine's batched emitters: vectorised periodic traffic, pooled
messages, and multi-seed sweep execution.

The event classes that dominate steady-state traffic do not pay one heap
event per message:

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
  logical delivery, so the gauge counts messages, not heap pops;

* **message/event pools** — fan-out and data-plane messages come from a
  :class:`~repro.sim.message.MessagePool` (released when they reach
  their final destination), heartbeats skip the message object entirely
  when the receiving node's handler chain is the standard agent one, and
  the batch events themselves are free-list recycled, so the
  steady-state loop allocates almost nothing;

* **hop rows** — in a ``full`` trace every send, delivery and link loss
  here is handed to :meth:`~repro.sim.trace.Trace.record_row` as a row,
  never built as an event. An evidence copy's row is one tuple; a
  heartbeat copy's three possible rows (sent, delivered, lost) are fixed
  for the run and ride prebuilt in its emission-plan entry, so recording
  a heartbeat copy — two thirds of a ``fullmesh:7`` trace — allocates
  nothing;

* **multi-seed sweeps** — :func:`run_sweep` runs N seeds in one process
  against one prepared system: the frozen strategy (and, held by each
  plan, its compiled node programs —
  :mod:`repro.core.runtime.program`), the router's path cache, and the
  derived signing keys (module-level cache in
  :mod:`repro.crypto.signatures`) are shared across seeds instead of
  being rebuilt per run.

What an agent does per event under a plan is not this module's business:
that is the node program. This module owns only what is fixed per *run*
— the per-sender emission plans built in :meth:`BatchRuntime.begin_run`
(lanes are re-installed every run), whose entries ride whole into the
heartbeat batches.

The invariant gate is :func:`~repro.sim.trace.trace_fingerprint`
equality with the digests committed in ``tests/golden/``, which a
message-per-heap-event engine generated; see docs/PERFORMANCE.md
("Engine") and the E19 benchmark.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..sim.message import Message, MessageKind, MessagePool
from ..sim.trace import (
    MessageDelivered,
    MessageDropped,
    MessageSent,
    trace_fingerprint,
)

#: Heartbeat frames are tiny fixed-size CONTROL messages (agent.py).
HEARTBEAT_BITS = 128


class _HeartbeatBatch:
    """One coalesced heap event delivering same-arrival heartbeat copies.

    Carries no :class:`Message` objects at all: the handler chain for a
    heartbeat is known (``_on_message`` -> ``_on_control`` -> re-flood),
    so when the receiver's handlers are exactly the standard agent
    dispatch the batch calls ``_flood_heartbeat`` directly. Receivers
    with custom handlers (tests attach observers) get a real message
    dispatched through the normal handler loop.
    """

    __slots__ = ("runtime", "sender", "origin", "k", "arrival",
                 "entries", "lost")

    def __init__(self, runtime: "BatchRuntime") -> None:
        self.runtime = runtime
        self.sender = ""
        self.origin = ""
        self.k = 0
        self.arrival = 0
        #: The sender's emission-plan entries (see
        #: :meth:`BatchRuntime.begin_run`), one per copy, whole: the
        #: batch reads the receiver, the dispatch shortcut and the
        #: delivered / lost trace rows off them.
        self.entries: List[tuple] = []
        #: Positions in ``entries`` whose frame the link lost.
        self.lost: List[int] = []

    def __call__(self) -> None:
        runtime = self.runtime
        system = runtime.system
        sim = system.sim
        trace = system.trace
        retained = system._hops_retained
        metrics = system.metrics
        sender = self.sender
        origin = self.origin
        k = self.k
        arrival = self.arrival
        entries = self.entries
        lost = self.lost
        n = len(entries)
        # One engine pop stands for n logical deliveries; the
        # events-executed gauge counts messages.
        sim.events_executed += n - 1
        runtime.batches_fired += 1
        runtime.entries_batched += n
        delivered = 0
        dropped = 0
        seen_key = (origin, k)
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
            node = entry[3]
            if node.crashed:
                continue
            agent = entry[4]
            if agent is not None:
                # Inlined seen-check: ~85% of steady-state deliveries are
                # duplicate copies whose reflood call would return on its
                # first line (without refreshing _last_heartbeat — only
                # first receipt does that).
                if seen_key in agent._heartbeats_seen:
                    continue
                agent._flood_heartbeat(origin, k, exclude=sender)
            else:
                # Non-standard handler chain: dispatch a real message so
                # observers see every heartbeat copy.
                message = Message(  # lint: ignore[allocation-in-loop]
                    src=sender, dst=entry[0], kind=MessageKind.CONTROL,
                    payload=("heartbeat", origin, k),
                    size_bits=HEARTBEAT_BITS,
                )
                for handler in node._handlers:
                    handler(message, arrival)
        if delivered:
            system._tally_delivered += delivered
        if dropped:
            system._tally_dropped += dropped
        entries.clear()
        lost.clear()
        runtime._hb_free.append(self)


class _MessageBatch:
    """One coalesced heap event delivering same-arrival pooled messages
    (evidence/declaration broadcast fan-out). Dispatch per entry is the
    inlined ``Node.deliver`` of ``BTRSystem._deliver``; messages are
    released to the pool once delivered at (or dropped short of) their
    final destination."""

    __slots__ = ("runtime", "sender", "arrival", "nodes", "messages",
                 "lost")

    def __init__(self, runtime: "BatchRuntime") -> None:
        self.runtime = runtime
        self.sender = ""
        self.arrival = 0
        self.nodes: List = []
        self.messages: List[Message] = []
        self.lost: List[bool] = []

    def __call__(self) -> None:
        runtime = self.runtime
        system = runtime.system
        sim = system.sim
        trace = system.trace
        retained = system._hops_retained
        metrics = system.metrics
        pool = runtime.pool
        sender = self.sender
        arrival = self.arrival
        nodes = self.nodes
        messages = self.messages
        lost = self.lost
        n = len(messages)
        sim.events_executed += n - 1
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
                pool.release(message)
                continue
            if retained:
                trace.record_row(arrival, (
                    MessageDelivered, sender, message.dst,
                    message.kind.value, message.flow))
            else:
                delivered += 1
            node = nodes[i]
            if not node.crashed:
                for handler in node._handlers:
                    handler(message, arrival)
            # The batched emitter only produces single-hop envelopes
            # (dst == the neighbour we just delivered to), so the message
            # is at its final destination; a handler that needed payload
            # fields after this point must have hoisted them (agent.py
            # does, for the deferred evidence callbacks).
            if message.dst == node.node_id:
                pool.release(message)
        if delivered:
            system._tally_delivered += delivered
        if dropped:
            system._tally_dropped += dropped
        nodes.clear()
        messages.clear()
        lost.clear()
        runtime._msg_free.append(self)


class BatchRuntime:
    """Per-run state of the batched emitters, owned by a
    :class:`~repro.core.runtime.system.BTRSystem`: the message pool, the
    batch-event free lists, and the per-node heartbeat dispatch
    shortcuts."""

    def __init__(self, system, pool_prealloc: int = 256) -> None:
        self.system = system
        self.pool = MessagePool(prealloc=pool_prealloc)
        self._hb_free: List[_HeartbeatBatch] = []
        self._msg_free: List[_MessageBatch] = []
        #: Static per-sender emission plans (see :meth:`begin_run`).
        self._hb_plans: Dict[str, list] = {}
        self._ev_plans: Dict[str, list] = {}
        self.batches_fired = 0
        self.entries_batched = 0

    def begin_run(self, agents: Dict[str, object]) -> None:
        """Build the per-run static emission state; called by ``run()``
        after agent construction (handlers are registered in agent
        ``__init__``) and after ``lane_model.install()`` (the plans bind
        the run's Lane objects).

        The emission plan for one sender is its neighbour fan-out with
        everything that cannot change mid-run resolved ahead of time:
        the lane, the receiving node, the heartbeat dispatch shortcut,
        and — for the fixed-size heartbeat frame — the serialization
        duration itself and the three trace rows a copy can leave
        (``MessageSent`` / ``MessageDelivered`` / ``MessageDropped``:
        sender, neighbour, ``"control"`` and 128 bits never change), so
        a full trace records the plan's own tuples.
        ``loss_probability`` is read live per emission (link scripts
        mutate it mid-run)."""
        self._hb_plans = {}
        self._ev_plans = {}
        self.batches_fired = 0
        self.entries_batched = 0
        topology = self.system.topology
        # node_id -> agent when the node's handler chain is exactly the
        # standard agent dispatch (heartbeats then skip Message objects),
        # else None (a real message is dispatched).
        shortcut = {}
        for node_id, agent in sorted(agents.items()):
            handlers = agent.node._handlers
            standard = (len(handlers) == 1
                        and handlers[0] == agent._on_message)
            shortcut[node_id] = agent if standard else None
        for node_id, agent in sorted(agents.items()):
            # Setup-time plan construction, once per run — not the
            # steady-state loop the allocation rule protects.
            hb_plan = []  # lint: ignore[allocation-in-loop]
            ev_plan = []  # lint: ignore[allocation-in-loop]
            sender_node = topology.nodes[node_id]
            for neighbor in agent._neighbors:
                link = sender_node.link_to(neighbor)
                if link is None:
                    continue
                node = topology.nodes[neighbor]
                ctrl = link.lane_for(node_id, MessageKind.CONTROL)
                duration = int(round(HEARTBEAT_BITS
                                     / ctrl.rate_bits_per_us))
                if duration < 1:
                    duration = 1
                hb_plan.append((
                    neighbor, link, ctrl, node, shortcut.get(neighbor),
                    duration, duration + link.propagation_us,
                    (MessageSent, node_id, neighbor, "control",
                     HEARTBEAT_BITS, None),
                    (MessageDelivered, node_id, neighbor, "control", None),
                    (MessageDropped, node_id, neighbor, "control",
                     "link_loss")))
                ev_plan.append((neighbor, link,
                                link.lane_for(node_id,
                                              MessageKind.EVIDENCE),
                                node, link.propagation_us))
            self._hb_plans[node_id] = hb_plan
            self._ev_plans[node_id] = ev_plan

    # ------------------------------------------------------------ fan-out

    def flood_heartbeat(self, agent, origin: str, k: int,
                        exclude: Optional[str]) -> None:
        """Vectorised heartbeat fan-out: one lane reservation + trace
        entry per receiver, one heap event per distinct arrival time.
        RNG draws (lossy links) and the delivery hook are consulted per
        receiver in emission order."""
        system = self.system
        sim = system.sim
        trace = system.trace
        retained = system._hops_retained
        hook = sim.delivery_hook
        rng_random = sim.rng.random
        sender = agent.node_id
        now = sim.now
        sent = 0
        groups: Dict[int, _HeartbeatBatch] = {}
        hb_free = self._hb_free
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
            # Inlined Lane.reserve with the precomputed constant duration
            # (the frame size and lane rate are fixed for the whole run).
            free = lane.next_free
            start = now if now >= free else free
            lane.next_free = start + entry[5]
            lane.bits_sent += HEARTBEAT_BITS
            arrival = start + entry[6]
            if hook is not None:
                arrival = hook(sender, neighbor, arrival)
            loss = link.loss_probability
            lost = loss > 0.0 and rng_random() < loss
            batch = groups.get(arrival)
            if batch is None:
                batch = (hb_free.pop() if hb_free
                         else _HeartbeatBatch(self))  # lint: ignore[allocation-in-loop]
                batch.sender = sender
                batch.origin = origin
                batch.k = k
                batch.arrival = arrival
                groups[arrival] = batch
                sim.schedule(arrival, batch)  # lint: ignore[engine-schedule-bypass]
            if lost:
                batch.lost.append(len(batch.entries))
            batch.entries.append(entry)
        if sent:
            system._tally_sent += sent

    def flood_messages(self, agent, kind: MessageKind, payload,
                       bits: int, exclude: Optional[str]) -> None:
        """Vectorised single-hop broadcast of one payload envelope to all
        neighbours (evidence/declaration flooding): pooled per-receiver
        messages, one heap event per distinct arrival time. Only called
        for EVIDENCE-lane traffic (the endorsed control records)."""
        system = self.system
        sim = system.sim
        trace = system.trace
        retained = system._hops_retained
        hook = sim.delivery_hook
        rng_random = sim.rng.random
        pool = self.pool
        sender = agent.node_id
        kind_value = kind._value_
        now = sim.now
        sent = 0
        groups: Dict[int, _MessageBatch] = {}
        msg_free = self._msg_free
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
            lane.bits_sent += bits
            arrival = start + duration + entry[4]
            if hook is not None:
                arrival = hook(sender, neighbor, arrival)
            loss = link.loss_probability
            lost = loss > 0.0 and rng_random() < loss
            message = pool.acquire(sender, neighbor, kind, payload, bits)
            batch = groups.get(arrival)
            if batch is None:
                batch = (msg_free.pop() if msg_free
                         else _MessageBatch(self))  # lint: ignore[allocation-in-loop]
                batch.sender = sender
                batch.arrival = arrival
                groups[arrival] = batch
                sim.schedule(arrival, batch)  # lint: ignore[engine-schedule-bypass]
            batch.nodes.append(entry[3])
            batch.messages.append(message)
            batch.lost.append(lost)
        if sent:
            system._tally_sent += sent

    def stats(self) -> dict:
        return {
            "batches_fired": self.batches_fired,
            "entries_batched": self.entries_batched,
            "pool": self.pool.stats(),
        }


# --------------------------------------------------------------- sweeps

@dataclasses.dataclass
class SweepRun:
    """One seed's outcome inside a :func:`run_sweep` execution."""

    seed: int
    result: object          # RunResult
    wall_s: float
    fingerprint: str


def sibling_system(prototype, seed: int):
    """A prepared system for another seed, sharing the prototype's frozen
    planning artifacts: the strategy (with each plan's compiled node
    programs and send-offset table), the recovery budget, the switch lead,
    the router's path cache, and the lane model. The key directory is
    rebuilt for the new seed (its master seed differs) but shares derived
    keys through the process-wide cache. The sibling's runs are
    byte-identical to a freshly constructed+prepared system on that seed
    (the batchcore tests and the E19 sweep gate assert this)."""
    from ..core.runtime.system import BTRSystem

    config = dataclasses.replace(prototype.config, seed=seed)
    sibling = BTRSystem(prototype.workload, prototype.topology, config)
    sibling.router = prototype.router
    sibling.lane_model = prototype.lane_model
    sibling.strategy = prototype.strategy
    sibling.budget = prototype.budget
    sibling.switch_lead_us = prototype.switch_lead_us
    return sibling


def online_stats(system) -> Dict[str, object]:
    """One run's online-runtime counters, pulled off a finished system.

    Returns sign/verify HMAC counts from the system's
    :class:`~repro.crypto.signatures.KeyDirectory` plus the verify-memo
    stats. The E17 benchmark records these per scenario into
    ``sim_stats.jsonl``.
    """
    directory = system.directory
    return {
        "signs": directory.signs,
        "verifies": directory.verifies,
        "memo": directory.verify_memo.stats(),
    }


def run_sweep(system, seeds, n_periods: int, scenario: Optional[str] = None,
              adversary=None, link_script=None) -> List[SweepRun]:
    """Run ``n_periods`` under each seed in one process, sharing the
    prepared strategy and every derived artifact across seeds.

    ``system`` must be prepared; its own seed reuses it directly, every
    other seed gets a :func:`sibling_system`. ``scenario`` (a name from
    :mod:`repro.faults.scenarios`) is staged per seed — scenario scripts
    are seed-relative; alternatively pass ``adversary``/``link_script``
    directly. Returns one :class:`SweepRun` per seed, in order, each with
    the run's trace fingerprint so callers can gate on byte-identity
    against independently constructed runs.
    """
    from .timing import Stopwatch

    runs: List[SweepRun] = []
    for seed in seeds:
        target = (system if seed == system.config.seed
                  else sibling_system(system, seed))
        adv = adversary
        links = link_script
        if scenario is not None:
            from ..faults.scenarios import stage
            staged = stage(scenario, target)
            adv = staged.script
            links = staged.link_script or None
        # One allocation pair per *seed*, not per event — sweep driver
        # code, outside the steady-state loop.
        watch = Stopwatch()  # lint: ignore[allocation-in-loop]
        result = target.run(n_periods, adversary=adv, link_script=links)
        wall = watch.elapsed_s()
        runs.append(SweepRun(  # lint: ignore[allocation-in-loop]
            seed=seed, result=result, wall_s=wall,
            fingerprint=trace_fingerprint(result.trace),
        ))
    return runs
