"""The repro.perf layer: strategy cache and hot paths.

The contract under test:

* the on-disk cache is content-keyed — hits round-trip losslessly, any
  planner-version bump (or input change) invalidates;
* the Trace per-kind indices agree with the naive O(n) definitions
  they replaced.
"""

import json

import pytest

from repro import BTRConfig, BTRSystem
from repro.core.planner import (
    PlacementConfig,
    build_strategy,
    strategy_to_json,
)
from repro.net import Router, full_mesh_topology
from repro.perf import StrategyCache, strategy_cache_key
from repro.sim.trace import Custom, MessageSent, OutputProduced, Trace
from repro.workload import industrial_workload, pipeline_workload


def planning_inputs(n_nodes=6, workload=None):
    workload = workload or industrial_workload()
    topology = full_mesh_topology(n_nodes, bandwidth=1e8)
    topology.place_endpoints_round_robin(workload.sources, workload.sinks)
    return workload, topology, Router(topology)


# --------------------------------------------------------------- cache


class TestStrategyCache:
    def test_miss_then_hit_round_trips(self, tmp_path):
        workload, topology, router = planning_inputs()
        strategy = build_strategy(workload, topology, router, f=1)
        cache = StrategyCache(str(tmp_path))
        key = strategy_cache_key(workload, topology, 1)
        assert cache.load(key) is None
        cache.store(key, strategy)
        cached = cache.load(key)
        assert cached is not None
        assert strategy_to_json(cached) == strategy_to_json(strategy)
        assert cache.quarantined == 0

    def test_key_covers_inputs(self):
        workload, topology, _ = planning_inputs()
        base = strategy_cache_key(workload, topology, 1)
        assert strategy_cache_key(workload, topology, 2) != base
        for flag in ("minimize_distance", "use_locality", "use_exposure"):
            moved = PlacementConfig(**{flag: False})
            assert strategy_cache_key(workload, topology, 1, moved) != base
        other = pipeline_workload()
        topology.place_endpoints_round_robin(other.sources, other.sinks)
        assert strategy_cache_key(other, topology, 1) != base

    def test_planner_version_bump_invalidates(self, monkeypatch):
        workload, topology, _ = planning_inputs()
        before = strategy_cache_key(workload, topology, 1)
        import repro.perf.cache as cache_module
        monkeypatch.setattr(cache_module, "PLANNER_VERSION",
                            cache_module.PLANNER_VERSION + 1)
        assert strategy_cache_key(workload, topology, 1) != before

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = StrategyCache(str(tmp_path))
        key = "0" * 64
        (tmp_path / f"{key}.json").write_text("{not json")
        assert cache.load(key) is None
        assert cache.load(key) is None  # set aside, not re-read
        assert cache.quarantined == 1

    @pytest.mark.parametrize("garbage", [
        "{not json",                      # not JSON at all
        "",                               # truncated to nothing
        "[1, 2, 3]",                      # JSON, wrong shape
        '{"format_version": 999}',        # JSON, wrong content
        '"just a string"',                # JSON scalar
    ])
    def test_corrupt_entry_is_quarantined(self, tmp_path, garbage):
        cache = StrategyCache(str(tmp_path))
        key = "1" * 64
        entry = tmp_path / f"{key}.json"
        entry.write_text(garbage)
        assert cache.load(key) is None
        assert cache.quarantined == 1
        # The bad bytes were moved aside, freeing the slot for a replan
        # and keeping them inspectable.
        assert not entry.exists()
        assert (tmp_path / f"{key}.json.corrupt").read_text() == garbage

    def test_non_utf8_entry_is_quarantined(self, tmp_path):
        cache = StrategyCache(str(tmp_path))
        key = "3" * 64
        entry = tmp_path / f"{key}.json"
        entry.write_bytes(b"\xff\xfe")
        assert cache.load(key) is None
        assert cache.quarantined == 1
        assert (tmp_path / f"{key}.json.corrupt").read_bytes() == \
            b"\xff\xfe"

    def test_missing_entry_is_plain_miss_not_quarantine(self, tmp_path):
        cache = StrategyCache(str(tmp_path))
        assert cache.load("2" * 64) is None
        assert cache.quarantined == 0

    def test_prepare_survives_corrupt_cache_entry(self, tmp_path):
        # End to end: a bad entry in the exact slot prepare() will consult
        # must behave as a miss — planning succeeds, cache_hit=False, and
        # the quarantine is visible in plan_stats and the metrics channel.
        # Two kinds: bytes that are not JSON, and a well-formed artifact
        # whose plan graph does not validate (a WorkloadError on rebuild).
        config = BTRConfig(f=1, cache=str(tmp_path))

        def prepared():
            system = BTRSystem(industrial_workload(), full_mesh_topology(6),
                               config)
            system.prepare()
            return system

        # Match prepare()'s actual key inputs by preparing once, then
        # corrupting whatever entry it wrote.
        written = prepared().plan_stats.cache_key
        entry = tmp_path / f"{written}.json"
        artifact = json.loads(entry.read_text())
        artifact["plans"][0]["workload"]["flows"][0]["src"] = "nowhere"
        for garbage in ('{"truncated": ', json.dumps(artifact)):
            entry.write_text(garbage)
            system = prepared()
            assert system.budget.total_us > 0
            assert system.plan_stats.cache_hit is False
            assert system.plan_stats.cache_quarantined == 1
            assert system.metrics.counter_value(
                "cache_entries_quarantined") == 1
            assert (tmp_path / f"{written}.json.corrupt").read_text() \
                == garbage
            # The replan overwrote the slot; the next prepare hits again.
            assert prepared().plan_stats.cache_hit is True

    def test_system_prepare_hits_across_fresh_systems(self, tmp_path):
        def prepared(seed):
            system = BTRSystem(
                industrial_workload(), full_mesh_topology(6),
                BTRConfig(f=1, seed=seed, cache=str(tmp_path)))
            system.prepare()
            return system

        # The run seed is not a planning input: every seed of a sweep
        # shares one entry.
        first = prepared(seed=1)
        assert not first.plan_stats.cache_hit
        second = prepared(seed=2)
        assert second.plan_stats.cache_hit
        assert len(list(tmp_path.iterdir())) == 1
        assert (strategy_to_json(second.strategy)
                == strategy_to_json(first.strategy))
        # The cached strategy powers a real run.
        result = second.run(n_periods=3)
        assert result.n_periods == 3

    def test_default_config_records_plan_stats(self):
        system = BTRSystem(industrial_workload(), full_mesh_topology(6),
                           BTRConfig(f=1))
        system.prepare()
        stats = system.plan_stats
        assert stats.cache_key is None and not stats.cache_hit
        assert stats.plans_computed == stats.plans_total == len(
            system.strategy)
        assert stats.wall_s > 0


# ------------------------------------------------------- trace indices


class TestTraceIndices:
    def test_interleaved_record_and_queries_match_naive(self):
        trace = Trace()
        shadow = []

        def naive(kind):
            return [e for e in shadow if type(e) is kind]

        for i in range(50):
            sent = MessageSent(time=i * 10, src="a", dst="b",
                               kind="data", size_bits=8, flow="f")
            trace.record(sent)
            shadow.append(sent)
            if i % 3 == 0:
                out = OutputProduced(time=i * 10 + 1, sink="b", flow="f",
                                     period_index=i, value=i,
                                     deadline=i * 10 + 5, criticality="A")
                trace.record(out)
                shadow.append(out)
            # Query between writes: indices must always be current.
            assert trace.of_kind(MessageSent) == naive(MessageSent)
            assert trace.of_kind(OutputProduced) == naive(OutputProduced)
            assert trace.count(MessageSent) == len(naive(MessageSent))
            assert trace.last(type(shadow[-1])) is shadow[-1]
        assert trace.of_kind(Custom) == []
        assert trace.count(Custom) == 0
        assert trace.last(Custom) is None

    def test_of_kind_returns_a_copy(self):
        trace = Trace()
        trace.record(Custom(time=0, label="x", data={}))
        trace.of_kind(Custom).clear()
        assert trace.count(Custom) == 1
