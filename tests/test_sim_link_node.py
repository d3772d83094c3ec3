"""Unit tests for links (guarded bandwidth), crossing them through the hop
runtime, and nodes (CPU lanes)."""

import pytest
from hypothesis import given, strategies as st

from repro.net import Topology
from repro.obs.metrics import MetricsRegistry
from repro.perf.batchcore import BatchRuntime
from repro.sched import LANE_FRACTIONS, LaneModel
from repro.sim import (
    Link,
    NEVER,
    Message,
    MessageKind,
    Node,
    ReservationError,
    Simulator,
)
from repro.sim.trace import MessageDelivered, MessageDropped, Trace


def make_msg(src="a", dst="b", size=1000, kind=MessageKind.DATA):
    return Message(src=src, dst=dst, kind=kind, payload=None, size_bits=size)


def test_lane_allocation_respects_capacity():
    link = Link("l1", ("a", "b"), bandwidth_bps=1e6)
    link.allocate_lane("a", MessageKind.DATA, 0.6)
    link.allocate_lane("b", MessageKind.DATA, 0.4)
    with pytest.raises(ReservationError):
        link.allocate_lane("a", MessageKind.EVIDENCE, 0.01)


def test_lane_reallocation_replaces_share():
    link = Link("l1", ("a", "b"), bandwidth_bps=1e6)
    link.allocate_lane("a", MessageKind.DATA, 0.6)
    link.allocate_lane("a", MessageKind.DATA, 0.3)  # shrink
    link.allocate_lane("b", MessageKind.DATA, 0.7)
    with pytest.raises(ReservationError):
        link.allocate_lane("a", MessageKind.EVIDENCE, 0.01)


def test_allocate_lane_for_foreign_node_raises():
    link = Link("l1", ("a", "b"), bandwidth_bps=1e6)
    with pytest.raises(ReservationError):
        link.allocate_lane("c", MessageKind.DATA, 0.1)


# ------------------------------------------------------- crossing a link
#
# A link only holds reservations; crossing it is the hop runtime's job
# (``BatchRuntime.send``), the one path BTR and every baseline use. These
# tests bind a runtime to a run over one link, with lanes per the static
# lane model: DATA gets half of the link, split evenly between its
# senders.


class Receiver:
    """Stands in for a node's agent: records what it is handed."""

    def __init__(self, node):
        self.node = node
        self.got = []

    def _on_message(self, message, at):
        self.got.append((message.src, at))


def hop_runtime(link, *, seed=0, others=(), unreserved=()):
    """A hop runtime bound to a fresh run over ``link`` alone (plus the
    unattached nodes ``others``), every node with a :class:`Receiver`;
    the ``(sender, kind)`` lanes in ``unreserved`` are left out."""
    topology = Topology()
    for node_id in link.endpoints + tuple(others):
        topology.add_node(Node(node_id))
    topology.add_link(link)
    model = LaneModel(topology)
    for sender in link.endpoints:
        for kind in LANE_FRACTIONS:
            if (sender, kind) not in unreserved:
                link.allocate_lane(sender, kind, model.share(link, kind))
    sim = Simulator(seed=seed)
    agents = {node_id: Receiver(node)
              for node_id, node in topology.nodes.items()}
    runtime = BatchRuntime()
    # The tests drain the queue with sim.run_until(NEVER): no horizon.
    runtime.begin_run(sim, Trace(), topology, MetricsRegistry(), agents,
                      NEVER)
    return runtime, sim, agents


def test_transmission_delay_matches_bandwidth():
    # 1 Mbps, a's DATA lane a quarter of it -> 0.25 bit per µs; 1000 bits
    # -> 4000 µs of serialization + 10 µs of propagation.
    link = Link("l1", ("a", "b"), bandwidth_bps=1e6, propagation_us=10)
    runtime, sim, agents = hop_runtime(link)
    runtime.send("a", "b", make_msg(size=1000))
    sim.run_until(NEVER)
    assert agents["b"].got == [("a", 4010)]


def test_transmissions_serialize_on_one_lane():
    link = Link("l1", ("a", "b"), bandwidth_bps=1e6, propagation_us=0)
    runtime, sim, agents = hop_runtime(link)
    for _ in range(3):
        runtime.send("a", "b", make_msg(size=100))
    sim.run_until(NEVER)
    assert [at for _, at in agents["b"].got] == [400, 800, 1200]


def test_guardian_isolates_lanes():
    """A babbling sender cannot delay another sender's lane."""
    link = Link("bus", ("a", "b", "c"), bandwidth_bps=1e6, propagation_us=0)
    runtime, sim, agents = hop_runtime(link)
    # "a" babbles: floods its own lane.
    for _ in range(100):
        runtime.send("a", "c", make_msg(src="a", dst="c", size=10_000))
    runtime.send("b", "c", make_msg(src="b", dst="c", size=500))
    sim.run_until(NEVER)
    # b's 500-bit frame on its 1/6-of-1-Mbps lane = 3000 µs, unaffected
    # by a's flood.
    assert [at for src, at in agents["c"].got if src == "b"] == [3000]
    assert min(at for src, at in agents["c"].got if src == "a") == 60_000


def test_transmit_without_lane_raises():
    link = Link("l1", ("a", "b"), bandwidth_bps=1e6)
    runtime, _, _ = hop_runtime(link, unreserved=[("a", MessageKind.DATA)])
    with pytest.raises(ReservationError, match="no lane"):
        runtime.send("a", "b", make_msg())


def test_transmit_to_non_endpoint_raises():
    link = Link("l1", ("a", "b"), bandwidth_bps=1e6)
    runtime, _, _ = hop_runtime(link, others=["z"])
    with pytest.raises(ReservationError, match="not a neighbour"):
        runtime.send("a", "z", make_msg(dst="z"))


def test_lossy_link_drops_and_reports():
    link = Link("l1", ("a", "b"), bandwidth_bps=1e9)
    link.loss_probability = 1.0
    runtime, sim, agents = hop_runtime(link, seed=1)
    runtime.send("a", "b", make_msg())
    sim.run_until(NEVER)
    assert agents["b"].got == []
    dropped = runtime.trace.of_kind(MessageDropped)
    assert [(e.src, e.dst, e.reason) for e in dropped] == [
        ("a", "b", "link_loss")]
    assert runtime.metrics.counter_value("messages_dropped",
                                         reason="link_loss") == 1


def test_lossless_by_default():
    link = Link("l1", ("a", "b"), bandwidth_bps=1e9)
    runtime, sim, agents = hop_runtime(link, seed=1)
    for _ in range(50):
        runtime.send("a", "b", make_msg())
    sim.run_until(NEVER)
    assert len(agents["b"].got) == 50
    # Unicast is one heap event per hop, never a batch.
    assert runtime.stats()["batches_fired"] == 0


@given(
    size=st.integers(min_value=1, max_value=10**6),
    share=st.floats(min_value=0.01, max_value=1.0),
)
def test_property_transmission_time_positive_and_monotone(size, share):
    # DATA lanes are a quarter of the link each: ``share`` bit per µs.
    link = Link("l1", ("a", "b"), bandwidth_bps=4e6 * share,
                propagation_us=0)
    runtime, sim, agents = hop_runtime(link)
    runtime.send("a", "b", make_msg(src="a", dst="b", size=size))
    runtime.send("b", "a", make_msg(src="b", dst="a", size=size * 2))
    sim.run_until(NEVER)
    [(_, t1)] = agents["b"].got
    [(_, t2)] = agents["a"].got
    assert t1 >= 1
    assert t2 >= t1


# --------------------------------------------------------------------- node


def test_node_cpu_lane_scales_work_by_speed():
    sim = Simulator()
    node = Node("n1", speed=2.0, control_share=0.5)
    # fg lane speed = 2.0 * 0.5 = 1.0 -> 100 us work takes 100 us
    done = []
    node.execute(sim, 100, callback=lambda: done.append(sim.now))
    sim.run_until(NEVER)
    assert done == [100]


def test_node_lanes_are_independent():
    sim = Simulator()
    node = Node("n1", speed=1.0, control_share=0.5)
    done = {}
    node.execute(sim, 50, callback=lambda: done.setdefault("fg", sim.now), lane="fg")
    node.execute(sim, 50, callback=lambda: done.setdefault("ctrl", sim.now),
                 lane="ctrl")
    sim.run_until(NEVER)
    # Both lanes at speed 0.5 -> both complete at 100, in parallel.
    assert done == {"fg": 100, "ctrl": 100}


def test_node_cpu_serializes_within_lane():
    sim = Simulator()
    node = Node("n1", speed=1.0, control_share=0.5)  # fg speed 0.5
    finishes = []
    node.execute(sim, 50, callback=lambda: finishes.append(sim.now))
    node.execute(sim, 50, callback=lambda: finishes.append(sim.now))
    sim.run_until(NEVER)
    assert finishes == [100, 200]


def test_crashed_node_drops_deliveries_and_refuses_work():
    link = Link("l1", ("a", "b"), bandwidth_bps=1e6)
    runtime, sim, agents = hop_runtime(link)
    node = agents["b"].node
    node.crashed = True
    runtime.send("a", "b", make_msg())
    sim.run_until(NEVER)
    # The frame crossed the link; the crashed receiver dropped it.
    assert runtime.trace.count(MessageDelivered) == 1
    assert agents["b"].got == []
    with pytest.raises(RuntimeError):
        node.execute(sim, 10)


def test_attach_foreign_link_raises():
    node = Node("n1")
    link = Link("l1", ("a", "b"), bandwidth_bps=1e6)
    with pytest.raises(ValueError):
        node.attach(link)


def test_link_to_finds_shared_link():
    node = Node("a")
    link = Link("l1", ("a", "b"), bandwidth_bps=1e6)
    node.attach(link)
    assert node.link_to("b") is link
    assert node.link_to("z") is None


def test_invalid_control_share_raises():
    with pytest.raises(ValueError):
        Node("n1", control_share=0.0)
    with pytest.raises(ValueError):
        Node("n1", control_share=1.0)


def test_lane_utilization():
    sim = Simulator()
    node = Node("n1", speed=1.0, control_share=0.5)
    assert node.execute(sim, 50) == 100  # 100 us on fg lane at speed 0.5
    sim.run_until(NEVER)
    assert node.lanes["fg"].next_free == 100
