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
* trace modes: the reduced mode keeps the census and the milestone
  subsequence exactly as the full run records them;
* message pools: exhaustion grows the pool (never fails), growth is
  visible in the counters, recycling actually happens, and a warm pool
  carries across runs of one system — all without perturbing the trace;
* sweeps: :func:`run_sweep` over shared frozen plans is byte-identical
  to freshly constructed+prepared systems per seed;
* sweep hygiene: scenario link scripts must not leak residual loss
  into later runs over the shared topology (the order-independence
  regression behind the pool sweep's byte-equality gate).
"""

import pytest

from repro import BTRConfig, BTRSystem
from repro.faults.scenarios import stage
from repro.net import full_mesh_topology
from repro.perf.batchcore import BatchRuntime, run_sweep, sibling_system
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
        _, full = run_scenario(42, mode="full")
        system, reduced = run_scenario(42, mode=mode)
        # Tallies fill the gap left by unretained per-hop records.
        assert reduced.trace.kind_counts() == full.trace.kind_counts()
        assert (golden.milestone_reprs(reduced.trace)
                == golden.milestone_reprs(full.trace))
        assert system.batch_runtime.stats()["entries_batched"] > 0


class TestMessagePool:
    """Exhaustion grows the pool; recycling keeps the steady state
    allocation-free; none of it is observable in the trace."""

    def test_exhaustion_grows_pool_without_perturbing_trace(self):
        system = build_system(42, f=2)
        # Pre-install a runtime with a pool far too small for the
        # evidence flood: exhaustion must grow it, not fail.
        system.batch_runtime = BatchRuntime(pool_prealloc=2)
        scn = stage("flood_plus_fault", system)
        result = system.run(N_PERIODS, adversary=scn.script,
                            link_script=scn.link_script)
        golden.assert_matches(system, result, "flood_plus_fault")
        stats = system.batch_runtime.pool.stats()
        # The flood acquired far more messages than were preallocated...
        assert stats["acquired"] > stats["preallocated"] == 2
        # ...growth allocated beyond the prealloc
        assert stats["allocated"] > 0
        # ...and released messages were actually recycled.
        assert stats["reused"] > 0
        assert stats["peak_free"] >= 2

    def test_warm_pool_carries_across_runs(self):
        system = build_system(42)
        scn = stage("flood_plus_fault", system)

        def one_run():
            return system.run(N_PERIODS, adversary=scn.script,
                              link_script=scn.link_script)

        first = one_run()
        pool = system.batch_runtime.pool
        after_first = pool.stats()
        second = one_run()
        after_second = pool.stats()
        # Re-running the same system is deterministic...
        assert (trace_fingerprint(second.trace)
                == trace_fingerprint(first.trace))
        # ...and the second run is served mostly from the free list the
        # first run populated: reuse grows, allocation barely does.
        reused_delta = after_second["reused"] - after_first["reused"]
        allocated_delta = (after_second["allocated"]
                           - after_first["allocated"])
        assert reused_delta > 0
        assert allocated_delta < reused_delta


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

