"""The one name of a deployment (``repro.Deployment``): validation, the
artifact ``meta`` round trip, and the system it builds."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import BTRConfig, Deployment
from repro.workload import WORKLOADS

SPECS = ("fullmesh:4", "fullmesh:7", "ring:6", "line:5", "star:4", "bus:4",
         "dualstar:5", "mesh:3x3", "geo:2x4", "fullmesh")


@settings(max_examples=60, deadline=None)
@given(workload=st.sampled_from(sorted(WORKLOADS)),
       topology=st.sampled_from(SPECS),
       bandwidth=st.sampled_from([1e6, 1e8, 2.5e8]),
       f=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=-2 ** 31, max_value=2 ** 31),
       stretch=st.integers(min_value=1, max_value=12))
def test_property_meta_round_trips(workload, topology, bandwidth, f, seed,
                                   stretch):
    deployment = Deployment(workload, topology, bandwidth, f, seed, stretch)
    meta = json.loads(json.dumps(deployment.to_meta()))
    assert Deployment.from_meta(meta) == deployment
    assert ("stretch" in meta) == (stretch != 1)


def test_unstretched_meta_is_the_cli_layout():
    """Artifacts of unstretched deployments keep their bytes (and the
    committed corpus its names)."""
    meta = Deployment("pipeline", "fullmesh:4", seed=7).to_meta()
    assert json.dumps(meta, sort_keys=True) == json.dumps(
        {"workload": "pipeline", "topology": "fullmesh:4",
         "bandwidth": 1e8, "f": 1, "seed": 7}, sort_keys=True)


def test_from_meta_fills_from_base_and_ignores_unknown_keys():
    base = Deployment("pipeline", "fullmesh:4", seed=3, stretch=2)
    pinned = Deployment.from_meta({"topology": "ring:6", "source": "fuzz"},
                                  base)
    assert pinned == Deployment("pipeline", "ring:6", seed=3, stretch=2)
    assert Deployment.from_meta(None) == Deployment()


@pytest.mark.parametrize("meta, names", [
    ([], "meta must be an object"),
    ({"workload": "nope"}, "unknown workload"),
    ({"topology": 4}, "topology must be a spec string"),
    ({"topology": "torus:3"}, "unknown topology"),
    ({"topology": "mesh:3"}, "malformed topology"),
    ({"bandwidth": True}, "bandwidth must be a positive number"),
    ({"bandwidth": float("inf")}, "bandwidth must be a positive number"),
    ({"f": "1"}, "f must be an integer"),
    ({"f": 0}, "BTR needs f >= 1"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"stretch": 0}, "stretch must be an integer >= 1"),
])
def test_from_meta_names_the_bad_field(meta, names):
    with pytest.raises(ValueError, match=names):
        Deployment.from_meta(meta)


def test_system_takes_how_not_what():
    deployment = Deployment("pipeline", "fullmesh:4", seed=5, stretch=3)
    system = deployment.system(cache="/nonexistent", trace_mode="milestones")
    assert system.config == BTRConfig(f=1, seed=5, cache="/nonexistent",
                                      trace_mode="milestones")
    assert system.workload.name == "pipelinex3"
    assert system.topology.name == "fullmesh4"
    assert system.strategy is None  # unprepared
