"""Geo-scale sweeps (``repro.perf.shardcore``) and the engine on geo
topologies.

* byte-identity: full BTR runs on a geo deployment, under geo scenarios
  with fault and link scripts, equal the digests the per-message legacy
  path generated (``tests/golden``);
* topology shape: geo topologies partition into connected per-region
  blocks whose concatenation is the global sorted node order, with a
  strictly positive minimum WAN latency;
* delivery hooks: a delay-only hook composes with the batched fan-outs
  byte-identically; pool sweeps reject hooks outright;
* pool sweep: per-seed fingerprints survive the process boundary.
"""

import dataclasses

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.scenarios import stage
from repro.net import full_mesh_topology, geo_topology
from repro.net.topology import TopologyError
from repro.perf.batchcore import run_sweep, sibling_system
from repro.perf.shardcore import (
    GeoSweepSpec,
    ShardingError,
    run_sweep_pool,
    system_for_spec,
)
from tests import golden

N_PERIODS = 6

SPEC = GeoSweepSpec(regions=3, nodes_per_region=4, n_periods=N_PERIODS,
                    trace_mode="full", scenario="geo:3x4")


@pytest.fixture(scope="module")
def proto():
    """One prepared geo system; siblings share its frozen plan."""
    system = system_for_spec(SPEC)
    system.prepare()
    return system


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
        local = topo.graph.subgraph(members)
        assert nx.is_connected(local)
        seen.extend(members)
    assert seen == sorted(topo.node_ids())
    assert topo.min_wan_latency_us() > 0


class TestPlanning:
    def test_min_wan_latency_requires_wan_links(self):
        with pytest.raises(TopologyError, match="no WAN links"):
            full_mesh_topology(4, bandwidth=1e8).min_wan_latency_us()


# ------------------------------------------------------- delivery hooks


class TestDeliveryHooks:
    def test_delaying_hook_composes_byte_identically(self, proto):
        system = sibling_system(proto, 42)
        result = system.run(N_PERIODS, delivery_hook=golden.delay_n0)
        golden.assert_matches(system, result, golden.HOOKED)

    def test_pool_sweep_rejects_hooks(self):
        with pytest.raises(ShardingError, match="process boundaries"):
            run_sweep_pool(SPEC, (42, 43), workers=2,
                           delivery_hook=lambda s, r, t: t)


# ------------------------------------------------------------ pool sweep


class TestPoolSweep:
    def test_pool_matches_serial_reference(self, proto, tmp_path):
        seeds = (42, 202)
        serial = {run.seed: run.fingerprint
                  for run in run_sweep(proto, seeds, N_PERIODS,
                                       scenario=SPEC.scenario)}
        spec = dataclasses.replace(SPEC, cache=str(tmp_path))
        out = run_sweep_pool(spec, seeds, workers=2)
        assert [row["seed"] for row in out["runs"]] == list(seeds)
        for row in out["runs"]:
            assert row["fingerprint"] == serial[row["seed"]], row["seed"]
        assert out["workers"] == 2

    def test_empty_seed_list_is_a_noop(self):
        out = run_sweep_pool(SPEC, (), workers=4)
        assert out == {"runs": [], "workers": 0, "pooled": False}

    def test_unknown_workload_is_refused(self):
        spec = dataclasses.replace(SPEC, workload="nope")
        with pytest.raises(ShardingError, match="unknown workload"):
            system_for_spec(spec)
