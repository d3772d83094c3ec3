"""Batched emitters: a heap event per message's behaviour, fewer heap
events.

The batched emitters (``repro.perf.batchcore``) promise the run a
message-per-heap-event engine produces, byte for byte, for less engine
work. These tests pin that promise from five sides —

* byte-identity: the full-mode trace fingerprint, the
  ``events_executed`` gauge and the event census equal the digests the
  per-message legacy path generated (``tests/golden``), across scenarios
  and seeds — while the batch machinery demonstrably engages (fewer heap
  pops than logical deliveries);
* trace modes: the reduced mode keeps the census, the events-executed
  gauge, the counters and the milestone subsequence exactly as the full
  run records them — including the heartbeat copies it counts at send
  time instead of scheduling (in flight at the horizon, lost on a lossy
  link, under a delivery hook, and over drawn topologies and faults);
* settled re-flood debts: a flood of a heartbeat that every node holds
  or is crashed is paid per sender, and leaves every lane, count and
  executed event where paying copy by copy would;
* messages as values: a delivered message keeps the payload it arrived
  with after the run, and re-running one system repeats its trace;
* sweep hygiene: scenario link scripts must not leak residual loss
  into later runs over the shared topology (the order-independence
  regression behind the sweep's byte-equality gate).
"""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro import BTRConfig, BTRSystem, Deployment
from repro.baselines import CrashRestartSystem, SelfStabilizingSystem
from repro.baselines.unreplicated import UnreplicatedAgent
from repro.core.runtime.agent import NodeAgent
from repro.faults import single_fault
from repro.faults.scenarios import stage
from repro.mc.hooks import DeliveryPerturbation
from repro.net import full_mesh_topology
from repro.obs.metrics import MetricsRegistry
from repro.perf.batchcore import HEARTBEAT_BITS, BatchRuntime, sibling_system
from repro.sched import LaneModel
from repro.sim import Simulator
from repro.sim.message import Message, MessageKind
from repro.sim.trace import Custom, Trace, trace_fingerprint
from repro.workload import industrial_workload
from tests import golden

N_PERIODS = 12


def build_system(seed: int, mode: str = "full", f: int = 1,
                 n_nodes: int = 7) -> BTRSystem:
    system = BTRSystem(
        industrial_workload(),
        full_mesh_topology(n_nodes, bandwidth=1e8),
        BTRConfig(f=f, seed=seed, trace_mode=mode),
    )
    system.prepare()
    return system


def run_scenario(seed: int, mode: str = "full",
                 scenario: str = "single_commission", f: int = 1):
    system = build_system(seed, mode, f=f)
    scn = stage(scenario, system)
    result = system.run(N_PERIODS, adversary=scn.script,
                        link_script=scn.link_script)
    return system, result


class TestByteIdentity:
    """Full traces are byte-identical to the per-message legacy path's."""

    @pytest.mark.parametrize("scenario,f", [
        ("single_commission", 1),
        ("checker_host_crash", 1),
        ("flood_plus_fault", 2),
    ])
    @pytest.mark.parametrize("seed", [42, 43])
    def test_full_trace_fingerprints_agree(self, scenario, f, seed):
        system, result = run_scenario(seed, scenario=scenario, f=f)
        # Fingerprint, census, and the engine gauge: it counts *logical*
        # deliveries, so it matches the per-message digest even though
        # the heap popped fewer events.
        golden.assert_matches(system, result, scenario)
        # The batch machinery actually engaged: many logical entries rode
        # on fewer physical heap events.
        stats = system.batch_runtime.stats()
        assert stats["entries_batched"] > 0
        assert stats["batches_fired"] < stats["entries_batched"]

    @pytest.mark.parametrize("mode", ["milestones"])
    def test_reduced_modes_keep_census_and_milestones(self, mode):
        full_system, full = run_scenario(42, mode="full")
        system, reduced = run_scenario(42, mode=mode)
        # Tallies fill the gap left by unretained per-hop records.
        assert reduced.trace.kind_counts() == full.trace.kind_counts()
        assert system.sim.events_executed == full_system.sim.events_executed
        assert (golden.milestone_reprs(reduced.trace)
                == golden.milestone_reprs(full.trace))
        assert system.batch_runtime.stats()["entries_batched"] > 0

    @pytest.mark.parametrize("key", [
        "single_commission@fullmesh15/industrial/f1/p30/s42",
        f"{golden.HOOKED}@geo3x4/industrialx10/f1/p6/s42",
        "wan_brownout@geo3x4/industrialx10/f1/p6/s42",
        "gateway_crash@geo3x4/industrialx10/f1/p6/s42",
    ])
    def test_milestones_cells_keep_committed_census(self, key):
        """The committed digests pin ``milestones`` runs too (the rest of
        the 34 cells: ``python -m tests.golden engine``)."""
        assert (golden.census(golden.run_cell(key, "milestones"))
                == golden.census(golden.expected(key)))


def run_in_both_modes(spec: str, n_periods: int, seed: int = 42,
                      adversary=None, link_script=None, hook=None):
    """``{mode: (system, result, hook)}`` for one run per trace mode on
    fresh systems (the metrics registry lives as long as its system);
    ``adversary``, ``link_script`` and ``hook`` are factories of the
    prepared system, called once per run."""
    runs = {}
    for mode in ("full", "milestones"):
        system = Deployment("industrial", spec,
                            seed=seed).system(trace_mode=mode)
        system.prepare()
        script = adversary(system) if adversary else None
        links = link_script(system) if link_script else None
        installed = hook(system) if hook else None
        result = system.run(n_periods, adversary=script,
                            link_script=links, delivery_hook=installed)
        runs[mode] = (system, result, installed)
    return runs


def assert_modes_agree(runs) -> None:
    """A ``milestones`` run counts every hop, event and drop the ``full``
    run of the same inputs records, and keeps its milestones."""
    (full_sys, full, _), (sys_, reduced, _) = (runs["full"],
                                               runs["milestones"])
    assert reduced.trace.kind_counts() == full.trace.kind_counts()
    assert sys_.sim.events_executed == full_sys.sim.events_executed
    assert reduced.metrics["counters"] == full.metrics["counters"]
    assert (golden.milestone_reprs(reduced.trace)
            == golden.milestone_reprs(full.trace))


class TestSeenCopyTally:
    """With hops tallied, a heartbeat copy to a node that already holds
    the heartbeat is counted when it is sent and never scheduled; a
    ``full`` trace schedules every copy. Both must count the same."""

    def test_copies_in_flight_at_the_horizon_count_in_neither_mode(self):
        n_periods = 6

        def late_relay(system):
            # n1's frames in the last period, its re-floods of the other
            # nodes' heartbeats included, arrive a period after the end.
            period = system.workload.period
            last = (n_periods - 1) * period

            def hook(sender, receiver, arrival):
                if sender == "n1" and arrival > last:
                    return arrival + period
                return arrival
            return hook

        runs = run_in_both_modes("fullmesh:7", n_periods, hook=late_relay)
        counts = runs["full"][1].trace.kind_counts()
        assert counts["MessageSent"] > (counts["MessageDelivered"]
                                        + counts.get("MessageDropped", 0))
        assert_modes_agree(runs)
        tallied = runs["milestones"][0].batch_runtime.stats()
        assert (tallied["entries_batched"]
                < runs["full"][0].batch_runtime.stats()["entries_batched"])

    def test_lost_copies_to_seen_receivers_count_as_drops(self):
        def lossy(system):
            return [(0, link_id, 0.3)
                    for link_id in sorted(system.topology.links)]

        runs = run_in_both_modes("fullmesh:7", 8, link_script=lossy)
        assert_modes_agree(runs)
        assert runs["milestones"][1].metrics["counters"][
            "messages_dropped{reason=link_loss}"] > 0

    def test_hook_sees_the_same_calls_in_both_modes(self):
        def perturbation(system):
            return DeliveryPerturbation(
                ((3, 2_000), (40, 500), (300, 7_000)),
                window=(0, 8 * system.workload.period))

        runs = run_in_both_modes("fullmesh:7", 8, hook=perturbation)
        assert_modes_agree(runs)
        full_hook = runs["full"][2]
        reduced_hook = runs["milestones"][2]
        assert reduced_hook.count == full_hook.count > 300
        assert reduced_hook.observed == full_hook.observed


@st.composite
def tally_cells(draw):
    """A topology, one crash / commission / link-loss fault at a drawn
    time inside the run (industrial periods are 50 ms), and an odd
    number of periods."""
    spec = draw(st.sampled_from(["fullmesh:4", "fullmesh:7", "ring:6",
                                 "mesh:3x3"]))
    n_periods = draw(st.sampled_from([3, 5, 7, 9]))
    at = draw(st.integers(min_value=0, max_value=n_periods * 50_000))
    kind = draw(st.sampled_from(["crash", "commission", "loss"]))
    loss = draw(st.sampled_from([0.1, 0.5, 1.0]))
    link = draw(st.integers(min_value=0, max_value=100))
    seed = draw(st.integers(min_value=0, max_value=1_000))
    return spec, n_periods, at, kind, loss, link, seed


@settings(max_examples=20, deadline=None)
@given(cell=tally_cells())
def test_full_and_milestones_count_alike(cell):
    spec, n_periods, at, kind, loss, link, seed = cell
    adversary = link_script = None
    if kind == "loss":
        def link_script(system):
            links = sorted(system.topology.links)
            return [(at, links[link % len(links)], loss)]
    else:
        def adversary(system):
            return single_fault(system, kind, at=at).script
    assert_modes_agree(run_in_both_modes(
        spec, n_periods, seed=seed, adversary=adversary,
        link_script=link_script))


# ------------------------------------------------- settled re-flood debts
#
# When every node holds a heartbeat or is crashed, a flood of it is a
# debt on its sender, paid when the sender's lanes are next read. These
# drive a hop runtime directly over a small full mesh of stand-in agents
# and check it against the per-copy arithmetic. Every live node holds
# KEY, so KEY is settled; every live node but one (the ``lacker``) holds
# UNSETTLED, so a flood of it that excludes the lacker takes the
# per-copy path and schedules nothing.

KEY = ("n0", 0)
UNSETTLED = ("n0", 1)


class Holder:
    """Stands in for a node's agent: the heartbeats it holds, and a
    unicast handler that ignores what it is handed."""

    def __init__(self, node_id, seen):
        self.node_id = node_id
        self._heartbeats_seen = set(seen)

    def _on_message(self, message, at):
        pass


def driven_runtime(mode, horizon, crashed=(), lacker=None):
    """A hop runtime bound to a run over ``fullmesh:4`` at 1 Mbps (a
    heartbeat frame takes 1 707 µs on a CONTROL lane), with pushes onto
    the heap counted in ``sim.pushes``."""
    topology = full_mesh_topology(4, bandwidth=1e6)
    LaneModel(topology).install()
    agents = {}
    for node_id, node in sorted(topology.nodes.items()):
        node.crashed = node_id in crashed
        seen = ((KEY,) if node_id == lacker else (KEY, UNSETTLED))
        agents[node_id] = Holder(node_id, () if node.crashed else seen)
    sim = Simulator(seed=0)
    sim.pushes = 0
    push = sim.schedule

    def counted(at, callback):
        sim.pushes += 1
        push(at, callback)

    sim.schedule = counted
    runtime = BatchRuntime()
    runtime.begin_run(sim, Trace(mode=mode), topology, MetricsRegistry(),
                      agents, horizon)
    return runtime, sim, agents, topology


def control_lane(topology, sender, receiver):
    return topology.nodes[sender].link_to(receiver).lane_for(
        sender, MessageKind.CONTROL)


def per_copy_model(topology, ops, horizon):
    """Every lane's ``next_free`` and the sent / delivered / executed
    totals when each copy reserves its own lane in emission order, and
    each op and each copy that arrives by ``horizon`` is one event."""
    free = {}
    sent = delivered = events = 0
    for at, sender, other, what, bits in ops:
        if at > horizon:
            continue
        events += 1
        targets = ([(other, bits)] if what == "send" else
                   [(m, HEARTBEAT_BITS) for m in topology.neighbors(sender)
                    if m != other])
        for receiver, size in targets:
            lane = control_lane(topology, sender, receiver)
            duration = max(1, round(size / lane.rate_bits_per_us))
            start = max(at, free.get((sender, receiver), 0))
            free[sender, receiver] = start + duration
            sent += 1
            propagation = topology.nodes[sender].link_to(
                receiver).propagation_us
            if start + duration + propagation <= horizon:
                delivered += 1
                events += 1
    return free, sent, delivered, events


@st.composite
def debt_scripts(draw):
    """On ``fullmesh:4``, up to two crashed nodes, and at drawn times:
    settled floods (any excluded neighbour, or none), floods of
    UNSETTLED that exclude the lacker, and unicast CONTROL sends; the
    horizon may cut through the traffic."""
    ids = [f"n{i}" for i in range(4)]
    crashed = draw(st.sets(st.sampled_from(ids), max_size=2))
    lacker = min(set(ids) - crashed)
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        at = draw(st.sampled_from([0, 0, 500, 1_707, 3_000, 9_000]))
        what = draw(st.sampled_from(["settled", "unsettled", "send"]))
        sender = draw(st.sampled_from(
            [i for i in ids if i != lacker] if what == "unsettled"
            else ids))
        offset = draw(st.integers(min_value=0, max_value=3))
        other = ids[(ids.index(sender) + offset) % 4]
        if what == "unsettled":
            other = lacker
        elif other == sender:
            other = (None if what == "settled"
                     else ids[(ids.index(sender) + 1) % 4])
        bits = draw(st.integers(min_value=1, max_value=2_000))
        ops.append((at, sender, other, what, bits))
    ops.sort(key=lambda op: op[0])
    horizon = draw(st.integers(min_value=0, max_value=40_000))
    return ops, crashed, lacker, horizon


@settings(max_examples=60, deadline=None)
@given(script=debt_scripts())
def test_paid_debts_equal_per_copy_reservations(script):
    ops, crashed, lacker, horizon = script
    runtime, sim, agents, topology = driven_runtime(
        "milestones", horizon, crashed, lacker)
    assert runtime.defer_settled

    def run_op(sender, other, what, bits):
        if what == "send":
            runtime.send(sender, other, Message(
                sender, other, MessageKind.CONTROL, None, bits))
        else:
            key = KEY if what == "settled" else UNSETTLED
            runtime.flood_heartbeat(agents[sender], *key, other)

    for at, *op in ops:
        sim.call_at(at, partial(run_op, *op))
    sim.run_until(horizon)
    runtime.end_run()
    free, sent, delivered, events = per_copy_model(topology, ops, horizon)
    for sender in sorted(topology.nodes):
        for receiver in topology.neighbors(sender):
            assert (control_lane(topology, sender, receiver).next_free
                    == free.get((sender, receiver), 0))
    assert (runtime.sent, runtime.delivered) == (sent, delivered)
    assert sim.events_executed == events
    assert runtime.stats()["deferred_refloods"] == sum(
        1 for at, _, _, what, _ in ops if what == "settled" and at <= horizon)


class TestSettledRefloods:
    """A settled flood is a debt on its sender: paid before the sender's
    lanes are next read, counted as the per-copy path counts it."""

    def test_crashed_receivers_count_alike_when_the_horizon_cuts_a_wave(
            self):
        # Three live senders re-flood at t=0 to the others, n3 crashed
        # and never holding the heartbeat: each sender's lane to n3
        # carries two back-to-back copies, and the run ends as the first
        # copy on every lane lands.
        horizon = 1_707 + 10
        runs = {}
        for mode in ("full", "milestones"):
            runtime, sim, agents, _ = driven_runtime(mode, horizon, {"n3"})

            def wave():
                for sender in ("n0", "n1", "n2"):
                    for exclude in ("n0", "n1", "n2"):
                        if exclude != sender:
                            runtime.flood_heartbeat(agents[sender], *KEY,
                                                    exclude)

            sim.call_at(0, wave)
            sim.run_until(horizon)
            runtime.end_run()
            runs[mode] = (runtime.trace.kind_counts(), sim.events_executed,
                          sim.pushes, runtime.stats())
        (full_counts, full_events, _, full_stats), (
            counts, events, pushes, stats) = runs["full"], runs["milestones"]
        assert counts == full_counts
        assert events == full_events
        copies = counts["MessageSent"]
        assert counts["MessageDelivered"] == 9
        assert copies == 12
        assert pushes < copies
        assert stats["deferred_refloods"] == 6
        assert full_stats["deferred_refloods"] == 0

    def test_a_link_going_lossy_ends_the_deferral_after_paying(self):
        def late_loss(system):
            return [(150_000, "l0", 0.5)]

        clean = run_in_both_modes("fullmesh:7", 8)
        runs = run_in_both_modes("fullmesh:7", 8, link_script=late_loss)
        assert_modes_agree(runs)
        assert runs["milestones"][1].metrics["counters"][
            "messages_dropped{reason=link_loss}"] > 0
        deferred = runs["milestones"][0].batch_runtime.stats()[
            "deferred_refloods"]
        assert 0 < deferred < clean["milestones"][0].batch_runtime.stats()[
            "deferred_refloods"]
        assert runs["full"][0].batch_runtime.stats()[
            "deferred_refloods"] == 0

        def lanes(system):
            return {(link_id, lane.sender, lane.kind): lane.next_free
                    for link_id, link in sorted(system.topology.links.items())
                    for lane in link._lanes.values()}

        assert lanes(runs["milestones"][0]) == lanes(runs["full"][0])

    @pytest.mark.parametrize("cls", [CrashRestartSystem,
                                     SelfStabilizingSystem])
    def test_reboot_baselines_flood_no_heartbeats(self, cls):
        """Settled keys stay settled because a BTR crash never recovers;
        the baselines that reboot a node run agents that flood none."""
        system = cls(industrial_workload(),
                     full_mesh_topology(5, bandwidth=1e8), f=1, seed=3)
        system.prepare()
        floods = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(BatchRuntime, "flood_heartbeat",
                          lambda *args: floods.append(args))
            result = system.run(24, single_fault(
                system, "crash", at=220_000).script)
        assert floods == []
        assert all(type(agent) is UnreplicatedAgent
                   for agent in system.agents.values())
        assert any(event.label in ("reboot", "global_reset")
                   for event in result.trace.of_kind(Custom))


class TestMessagesAreValues:
    """A delivered message is never rewritten, and re-running one system
    repeats its trace."""

    def test_delivered_data_keeps_its_payload_after_the_run(self):
        system = BTRSystem(industrial_workload(),
                           full_mesh_topology(5, bandwidth=1e8),
                           BTRConfig(f=1, seed=42))
        system.prepare()
        delivered = []
        original = NodeAgent._on_message

        def on_message(agent, message, at):
            if message.kind is MessageKind.DATA:
                delivered.append((message, message.payload))
            original(agent, message, at)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(NodeAgent, "_on_message", on_message)
            system.run(6)
        assert len(delivered) > 100
        assert all(message.payload is payload
                   for message, payload in delivered)

    def test_rerunning_one_system_repeats_its_trace(self):
        system = build_system(42)
        scn = stage("flood_plus_fault", system)

        def one_run():
            return system.run(N_PERIODS, adversary=scn.script,
                              link_script=scn.link_script)

        first, second = one_run(), one_run()
        assert (trace_fingerprint(first.trace)
                == trace_fingerprint(second.trace))
        assert first.metrics == second.metrics


class TestSweepHygiene:
    """Runs over a shared topology are order-independent."""

    @pytest.fixture(scope="class")
    def geo(self):
        system = Deployment("industrial", "geo:3x4",
                            stretch=10).system(trace_mode="full")
        system.prepare()
        return system

    def test_link_scripts_restore_residual_loss(self, geo):
        link = geo.topology.wan_links()[0]
        before = link.loss_probability
        geo.run(6, link_script=[(100_000, link.link_id, 0.5)])
        assert link.loss_probability == before

    def test_sibling_runs_are_order_independent(self, geo):
        def run_one(seed):
            system = sibling_system(geo, seed)
            scn = stage("geo:3x4", system)
            return system.run(6, adversary=scn.script,
                              link_script=scn.link_script)

        solo = run_one(202)
        run_one(101)
        again = run_one(202)
        assert (trace_fingerprint(again.trace)
                == trace_fingerprint(solo.trace))

