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
* messages as values: a delivered message keeps the payload it arrived
  with after the run, and re-running one system repeats its trace;
* sweeps: :func:`run_sweep` over shared frozen plans is byte-identical
  to freshly constructed+prepared systems per seed;
* sweep hygiene: scenario link scripts must not leak residual loss
  into later runs over the shared topology (the order-independence
  regression behind the pool sweep's byte-equality gate).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import BTRConfig, BTRSystem
from repro.cli import make_topology
from repro.core.runtime.agent import NodeAgent
from repro.faults import SingleFaultAdversary
from repro.faults.scenarios import stage
from repro.mc.hooks import DeliveryPerturbation
from repro.net import full_mesh_topology
from repro.perf.batchcore import run_sweep, sibling_system
from repro.sim.message import MessageKind
from repro.sim.trace import trace_fingerprint
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
    ``hook`` is a factory, called once per run."""
    runs = {}
    for mode in ("full", "milestones"):
        system = BTRSystem(industrial_workload(), make_topology(spec, 1e8),
                           BTRConfig(f=1, seed=seed, trace_mode=mode))
        system.prepare()
        links = link_script(system) if link_script else None
        installed = hook(system) if hook else None
        result = system.run(n_periods, adversary=adversary,
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
        adversary = SingleFaultAdversary(at=at, kind=kind)
    assert_modes_agree(run_in_both_modes(
        spec, n_periods, seed=seed, adversary=adversary,
        link_script=link_script))


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

        assert (trace_fingerprint(one_run().trace)
                == trace_fingerprint(one_run().trace))


class TestSweep:
    """run_sweep shares the frozen plans across seeds and stays
    byte-identical to independently prepared systems."""

    def test_sweep_matches_fresh_reference_per_seed(self):
        seeds = (42, 43, 44)
        system = build_system(42)
        runs = run_sweep(system, seeds, N_PERIODS,
                         scenario="single_commission")
        assert [r.seed for r in runs] == list(seeds)
        for run in runs:
            key = golden.cell_key(system, "single_commission", N_PERIODS,
                                  seed=run.seed)
            assert run.fingerprint == golden.expected(key)["fingerprint"]
            assert run.fingerprint == trace_fingerprint(run.result.trace)
            assert run.wall_s >= 0.0

    def test_sweep_siblings_share_frozen_artifacts(self):
        system = build_system(42)
        sibling = sibling_system(system, 43)
        assert sibling.strategy is system.strategy
        assert sibling.budget is system.budget
        assert sibling.router is system.router
        assert sibling.config.seed == 43


class TestSweepHygiene:
    """Runs over a shared topology are order-independent."""

    @pytest.fixture(scope="class")
    def geo(self):
        from repro.perf.pool import GeoSweepSpec, system_for_spec
        system = system_for_spec(GeoSweepSpec(regions=3, nodes_per_region=4,
                                              trace_mode="full"))
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

