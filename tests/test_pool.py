"""The worker pool and the geo-scale sweep over it (``repro.perf.pool``),
and the engine on geo topologies.

* the pool: results come back in input order for any worker count, each
  worker is forked with the caller's context and keeps its one copy —
  nothing in the context is pickled — and a pool that cannot be created
  (no ``fork`` start method, no executor) or loses a worker mid-map
  degrades to the same results in-process with ``fallback`` set;
* byte-identity: full BTR runs on a geo deployment, under geo scenarios
  with fault and link scripts, equal the digests the per-message legacy
  path generated (``tests/golden``);
* topology shape: geo topologies partition into connected per-region
  blocks whose concatenation is the global sorted node order, with a
  strictly positive minimum WAN latency;
* delivery hooks: a delay-only hook composes with the batched fan-outs
  byte-identically;
* the sweep: :func:`repro.perf.run_sweep` over one prepared system's
  shared frozen plans equals freshly prepared systems per seed, and its
  per-seed fingerprints are the same in-process and across the process
  boundary.
"""

import dataclasses
import multiprocessing
import os
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import BTRSystem, Deployment
from repro.faults.scenarios import stage
from repro.net import Router, geo_topology
from repro.perf import WorkerPool, run_sweep, sibling_system
from repro.perf import pool as pool_module
from repro.workload import WORKLOADS
from tests import golden

N_PERIODS = 6

#: The stretched industrial workload on a 3-region geo topology.
GEO = Deployment("industrial", "geo:3x4", stretch=10)
SWEEP = dict(n_periods=N_PERIODS, scenario="geo:3x4")


@pytest.fixture(scope="module")
def proto():
    """One prepared geo system; siblings share its frozen plan."""
    system = GEO.system(trace_mode="full")
    system.prepare()
    return system


# ------------------------------------------------------- the pool
#
# Payloads and results cross the process boundary by pickle; the task
# and the context are inherited at the fork.


def _context(tag):
    return {"tag": tag, "tasks": 0}


def _task(context, payload):
    """Echo the payload with the context's tag, the serving process and
    how many tasks this context has served (a context copied per task
    would always answer 1)."""
    context["tasks"] += 1
    return payload, context["tag"], os.getpid(), context["tasks"]


def _task_dying_in_workers(context, payload):
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return _task(context, payload)


class TestWorkerPool:
    PAYLOADS = list(range(12))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ordered_results_one_context_per_process(self, workers):
        with WorkerPool(_task, _context("ctx"), workers=workers) as pool:
            first = list(pool.map(self.PAYLOADS))
            second = list(pool.map(self.PAYLOADS))
        if pool.fallback:
            pytest.skip("process pools unavailable in this environment")
        assert [row[0] for row in first + second] == self.PAYLOADS * 2
        assert {row[1] for row in first + second} == {"ctx"}
        by_pid = {}
        for _, _, pid, served in first + second:
            by_pid.setdefault(pid, []).append(served)
        assert len(by_pid) <= workers
        assert (os.getpid() in by_pid) == (workers == 1)
        # One context per process, kept across tasks and across maps.
        for served in by_pid.values():
            assert served == list(range(1, len(served) + 1))

    def test_single_payload_and_own_context_stay_in_process(self):
        own = _context("own")
        with WorkerPool(_task, own, workers=2) as pool:
            assert list(pool.map([7])) == [(7, "own", os.getpid(), 1)]
        assert not pool.fallback
        assert own["tasks"] == 1

    def test_workers_serve_an_unpicklable_context(self):
        context = dict(_context("ctx"), bump=lambda x: x + 100)
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(context)

        def task(ctx, payload):
            return ctx["bump"](payload), os.getpid()

        with WorkerPool(task, context, workers=2) as pool:
            rows = list(pool.map(self.PAYLOADS))
        if pool.fallback:
            pytest.skip("process pools unavailable in this environment")
        assert [row[0] for row in rows] == [p + 100 for p in self.PAYLOADS]
        assert os.getpid() not in {row[1] for row in rows}

    def test_falls_back_when_fork_is_unavailable(self, monkeypatch):
        get_context = multiprocessing.get_context

        def no_fork(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        with WorkerPool(_task, _context("ctx"), workers=2) as pool:
            rows = list(pool.map(self.PAYLOADS))
        assert pool.fallback
        assert rows == [(p, "ctx", os.getpid(), i + 1)
                        for i, p in enumerate(self.PAYLOADS)]

    def test_falls_back_when_the_executor_cannot_start(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no semaphores here")

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", refuse)
        with WorkerPool(_task, _context("ctx"), workers=2) as pool:
            rows = list(pool.map(self.PAYLOADS))
        assert pool.fallback
        assert [row[0] for row in rows] == self.PAYLOADS
        assert {row[2] for row in rows} == {os.getpid()}

    def test_falls_back_when_a_worker_dies(self):
        with WorkerPool(_task_dying_in_workers, _context("ctx"),
                        workers=2) as pool:
            rows = list(pool.map(self.PAYLOADS))
            again = list(pool.map(self.PAYLOADS))
        assert pool.fallback
        assert [row[0] for row in rows + again] == self.PAYLOADS * 2
        assert {row[2] for row in rows + again} == {os.getpid()}


# ------------------------------------------------------- byte identity


class TestByteIdentity:
    def test_scenario_seed_matrix(self, proto):
        for scenario, seed in (("geo:3x4", 42),
                               ("gateway_crash", 42), ("gateway_crash", 202),
                               ("wan_brownout", 42), ("wan_brownout", 202)):
            system = sibling_system(proto, seed)
            scn = stage(scenario, system)
            result = system.run(N_PERIODS, adversary=scn.script,
                                link_script=scn.link_script or None)
            golden.assert_matches(system, result, scenario)


@settings(max_examples=15, deadline=None)
@given(regions=st.integers(min_value=2, max_value=4),
       npr=st.integers(min_value=2, max_value=5),
       gateways=st.integers(min_value=1, max_value=2))
def test_property_geo_partitions_connected_with_positive_lookahead(
        regions, npr, gateways):
    topo = geo_topology(regions, npr, gateways=gateways)
    names = topo.region_names()
    assert len(names) == regions
    # Regions partition the node set into connected local meshes whose
    # blocks, in region order, concatenate to the global sorted order.
    seen = []
    for name in names:
        members = sorted(topo.regions[name])
        assert len(members) == npr
        outside = set(topo.nodes) - set(members)
        assert Router(topo).diameter(outside) is not None
        seen.extend(members)
    assert seen == sorted(topo.node_ids())
    assert len(topo.wan_links()) == gateways * regions * (regions - 1) // 2
    assert all(link.propagation_us > 0 for link in topo.wan_links())


# ------------------------------------------------------- delivery hooks


class TestDeliveryHooks:
    def test_delaying_hook_composes_byte_identically(self, proto):
        system = sibling_system(proto, 42)
        result = system.run(N_PERIODS, delivery_hook=golden.delay_n0)
        golden.assert_matches(system, result, golden.HOOKED)


# ----------------------------------------------------------------- sweep


class TestPoolSweep:
    """The one multi-seed sweep shares the frozen plans across seeds and
    returns the same runs for every worker count."""

    def test_sweep_matches_fresh_reference_per_seed(self):
        seeds = (42, 43, 44)
        system = Deployment("industrial", "fullmesh:7").system(
            trace_mode="full")
        system.prepare()
        out = run_sweep(system, seeds, n_periods=12,
                        scenario="single_commission")
        assert [row["seed"] for row in out["runs"]] == list(seeds)
        assert (out["workers"], out["pooled"]) == (1, False)
        for row in out["runs"]:
            key = golden.cell_key(system, "single_commission", 12,
                                  seed=row["seed"])
            committed = golden.expected(key)
            assert row["fingerprint"] == committed["fingerprint"]
            assert row["events"] == committed["events_executed"]
            assert row["wall_s"] >= 0.0

    def test_sweep_siblings_share_frozen_artifacts(self, proto):
        sibling = sibling_system(proto, 43)
        assert sibling.strategy is proto.strategy
        assert sibling.budget is proto.budget
        assert sibling.router is proto.router
        assert sibling.config.seed == 43

    def test_pool_matches_serial_reference(self, tmp_path):
        seeds = (42, 202)
        reference = GEO.system(trace_mode="milestones")
        reference.prepare()
        serial = run_sweep(reference, seeds, **SWEEP)
        # A cache-configured system, as the e2e benchmark builds, pools
        # as the uncached reference sweeps.
        system = BTRSystem(GEO.build_workload(), GEO.build_topology(),
                           dataclasses.replace(
                               GEO.config(trace_mode="milestones"),
                               cache=str(tmp_path)))
        system.prepare()
        out = run_sweep(system, seeds, workers=2, **SWEEP)
        assert [row["seed"] for row in out["runs"]] == list(seeds)
        assert ([row["fingerprint"] for row in out["runs"]]
                == [row["fingerprint"] for row in serial["runs"]])
        assert out["workers"] == 2

    def test_uncached_system_matches_its_own_serial_sweep(self):
        seeds = (42, 202, 7)
        system = GEO.system(trace_mode="milestones")
        assert system.config.cache is None
        system.prepare()
        out = run_sweep(system, seeds, workers=2, **SWEEP)
        if not out["pooled"]:
            pytest.skip("process pools unavailable in this environment")
        serial = run_sweep(system, seeds, **SWEEP)
        for key in ("seed", "fingerprint", "events"):
            assert ([row[key] for row in out["runs"]]
                    == [row[key] for row in serial["runs"]]), key

    def test_empty_seed_list_is_a_noop(self, proto):
        out = run_sweep(proto, (), workers=4, **SWEEP)
        assert out == {"runs": [], "workers": 0, "pooled": False}

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_cli_workload_builds_through_a_spec(self, name):
        from repro.cli import build_parser
        build_parser().parse_args(["plan", "--workload", name])
        deployment = dataclasses.replace(GEO, workload=name)
        assert deployment.system().workload.name.startswith(
            WORKLOADS[name]().name)

    def test_unknown_workload_is_refused(self):
        with pytest.raises(ValueError, match="unknown workload"):
            dataclasses.replace(GEO, workload="nope")
