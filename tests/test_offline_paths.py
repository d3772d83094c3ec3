"""The offline half computes the same artifacts, faster.

The planner, synthesiser, verifier and bounds analyzer now remember what
does not depend on the pattern being planned (docs/PERFORMANCE.md,
"Offline hot paths"). What must not move is pinned here against
``tests/golden/planner_digests.json``, generated by the planner that
recomputed everything: every cell of the grid, however the strategy was
obtained, under any string-hash salt.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
import repro.perf.cache as cache_module
from repro.perf import StrategyCache, strategy_cache_key
from tests import golden

#: Multi-hop cells whose routes have equally short alternatives (either
#: hub of the dual star; either way round a mesh face).
TIE_BREAK_CELLS = ("industrial@dualstar:5/f2", "industrial@mesh:3x3/f1")


#: The fast subset: every cell that plans. ``python -m tests.golden
#: planner`` (CI, two hash seeds) also re-checks the unschedulable ones.
PLANNED_CELLS = [key for key in golden.PLANNER_KEYS
                 if golden.expected_plan(key) != golden.UNSCHEDULABLE]


@pytest.mark.parametrize("key", PLANNED_CELLS)
def test_planner_cell_matches_committed_digest(key):
    assert golden.run_planner_cell(key) == golden.expected_plan(key)


@pytest.mark.parametrize("key", TIE_BREAK_CELLS)
def test_cache_round_trip_matches_the_same_digest(key, tmp_path):
    cold = golden.planner_system(key, cache=str(tmp_path))
    warm = golden.planner_system(key, cache=str(tmp_path))
    assert not cold.plan_stats.cache_hit and warm.plan_stats.cache_hit
    assert golden.planner_digest(cold) == golden.expected_plan(key)
    assert golden.planner_digest(warm) == golden.expected_plan(key)


def test_planner_artifacts_are_equal_across_hash_seeds():
    """The router's hop tables and the analyzer's flood depths are keyed
    by frozensets of node names, whose iteration order is salted per
    process: nothing of that order may reach an artifact. (``mesh:3x3``
    cannot be planned at f=2 — a corner hosts the sources — so the f=2
    cell is the dual star.)"""
    code = ("import json; from tests import golden; "
            "print(json.dumps([golden.run_planner_cell(k) "
            f"for k in {TIE_BREAK_CELLS}], sort_keys=True))")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    seen = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([root, src]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        seen.add(out.stdout.strip())
    assert seen == {json.dumps([golden.expected_plan(k)
                                for k in TIE_BREAK_CELLS], sort_keys=True)}


# ------------------------------------------------- StrategyCache.store


@pytest.fixture
def planned():
    system = golden.planner_system("pipeline@fullmesh:6/f1")
    key = strategy_cache_key(system.workload, system.topology, 1)
    return key, system.strategy


def assert_store_left_nothing(cache, key, tmp_path):
    assert os.listdir(tmp_path) == []
    assert cache.load(key) is None
    assert cache.quarantined == 0


def test_store_that_cannot_serialise_leaves_no_temp_file(
        planned, tmp_path, monkeypatch):
    key, strategy = planned

    def refuse(_strategy):
        raise ValueError("unserialisable strategy")

    monkeypatch.setattr(cache_module, "strategy_to_json", refuse)
    cache = StrategyCache(str(tmp_path))
    with pytest.raises(ValueError, match="unserialisable"):
        cache.store(key, strategy)
    assert_store_left_nothing(cache, key, tmp_path)


def test_store_that_cannot_rename_removes_its_temp_file(
        planned, tmp_path, monkeypatch):
    key, strategy = planned

    def refuse(_src, _dst):
        raise OSError("rename refused")

    cache = StrategyCache(str(tmp_path))
    with monkeypatch.context() as patched:
        patched.setattr(cache_module.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            cache.store(key, strategy)
    assert_store_left_nothing(cache, key, tmp_path)
    assert cache.store(key, strategy) == cache.path_for(key)
    assert os.listdir(tmp_path) == [os.path.basename(cache.path_for(key))]
