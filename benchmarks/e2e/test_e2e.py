"""Self-tests of the benchmark: ``python -m pytest benchmarks/e2e -q``.

They test the benchmark's own arithmetic and plumbing, not the program:
span self time, seeded op lists, the tolerant config helper, compare.py
verdicts, the BENCHMARK.json registration, and one ``--smoke`` pass of
all four workloads with goldens checked.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

import catalogue  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def clock(monkeypatch):
    """A settable ``perf_counter_ns`` for the tracer."""
    now = [0]
    monkeypatch.setattr(spans.time, "perf_counter_ns", lambda: now[0])
    return now


def test_self_time_of_nested_and_sibling_spans(clock):
    tracer = spans.Tracer()
    tracer.begin_op()
    parent = tracer.open("parent")
    clock[0] = 10
    first = tracer.open("child")
    clock[0] = 15
    grandchild = tracer.open("grandchild")
    clock[0] = 25
    tracer.close(grandchild)
    clock[0] = 30
    tracer.close(first)
    clock[0] = 40
    second = tracer.open("child")
    clock[0] = 50
    tracer.close(second)
    clock[0] = 100
    tracer.close(parent)
    totals, _ = tracer.end_op()
    # [calls, inclusive, self]
    assert totals["parent"] == [1, 100, 100 - 20 - 10]
    assert totals["child"] == [2, 30, (20 - 10) + 10]
    assert totals["grandchild"] == [1, 10, 10]
    by_name = {(s[1], s[2]): s for s in tracer.spans}
    parent_id = by_name[("parent", 0)][0]
    assert by_name[("child", 10)][4] == parent_id
    assert by_name[("child", 40)][4] == parent_id
    assert by_name[("grandchild", 15)][4] == by_name[("child", 10)][0]
    assert all(s[5] == 0 for s in tracer.spans)


def test_wrap_closes_its_span_on_error_and_observes_results(clock):
    tracer = spans.Tracer(fine_span_cap=1)
    tracer.begin_op()
    seen = []

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        spans.wrap(boom, "boom", tracer)()
    assert tracer.stack == [] and tracer.totals["boom"][0] == 1

    double = spans.wrap(lambda x: 2 * x, "double", tracer, fine=True,
                        observe=lambda t, args, out: seen.append(out))
    assert [double(1), double(2)] == [2, 4] and seen == [2, 4]
    # Beyond the cap a fine span is counted but not retained.
    assert tracer.totals["double"][0] == 2
    assert tracer.fine_spans_dropped == 1


def test_op_list_depends_on_the_seed_only():
    def first_rounds(seed):
        rounds = workloads.FullTraceN7("unused").rounds(seed)
        return [[inp.key for inp in next(rounds)] for _ in range(3)]

    assert first_rounds(11) == first_rounds(11)
    assert first_rounds(11) != first_rounds(12)
    for keys in first_rounds(11):
        # Every round is one pass over the cases, whatever the order.
        assert sorted(k.split("/")[0] for k in keys) \
            == sorted(workloads.FullTraceN7.cases)


def test_every_generated_input_has_a_golden():
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    for name, cls in workloads.WORKLOADS.items():
        assert sorted(golden[name]) == sorted(
            inp.key for inp in cls("unused").pool())


def test_make_config_drops_fields_the_program_no_longer_has():
    config = workloads.make_config(f=2, trace_mode="milestones",
                                   a_flag_deleted_by_a_refactor=True)
    assert config.f == 2 and config.trace_mode == "milestones"


def test_derivations_cover_the_catalogue_and_use_self_time():
    def op(round_index, run_ns, record_self_ns):
        return {"round": round_index, "wall_ns": run_ns + 1_000_000,
                "key": f"case{round_index % 2}/s0/o0",
                "totals": {
                    "core.runtime.run": [1, run_ns, run_ns - record_self_ns],
                    "sim.trace.record": [40, record_self_ns, record_self_ns],
                    "sim.schedule": [500, 0, 0]},
                "counters": {"sim.events": 1000, "crypto.memo_hits": 3,
                             "crypto.memo_lookups": 4}}

    untraced = [op(i // 2, 10_000_000, 0) for i in range(8)]
    traced = [op(i // 2, 16_000_000, 4_000_000) for i in range(4)]
    probes = {name: 1000.0 for name, _, _ in catalogue.PER_LAYER
              if ".probe." in name}
    layer = catalogue.derive_per_layer(untraced, traced, 2, probes)
    assert list(layer) and sorted(layer) \
        == sorted(name for name, _, _ in catalogue.PER_LAYER)
    assert layer["core.runtime.run_ms"] == 10.0          # inclusive
    assert layer["sim.trace.record_ms"] == 4.0           # self, traced
    assert layer["core.runtime.run_unattributed_share"] == 0.75
    assert layer["sim.events_per_s"] == 100_000.0
    assert layer["sim.heap_floor_share"] == 1000.0 * 500 / 1e6 / 10.0
    assert layer["crypto.memo_hit_ratio"] == 0.75
    assert layer["bench.trace_overhead_ratio"] == 17 / 11
    assert layer["bench.half_split_ratio"] == 1.0
    end = catalogue.derive_end_to_end(untraced, 2.5, 64.0)
    assert end["ops_per_s"] == pytest.approx(1e9 / 11_000_000)
    assert end["op_p50_ms"] == 11.0


def _result(ops_per_s=10.0, half_split=1.0, events=100.0, failed=0):
    return {"seed": 11, "workloads": {"w": {
        "end_to_end": {"ops_per_s": ops_per_s, "op_p50_ms": 100.0,
                       "setup_s": 2.0, "peak_rss_mb": 80.0},
        "diagnostics": {"half_split_ratio": half_split},
        "setup_samples_s": [2.0, 2.0, 2.0],
        "ops_failed": failed,
        "per_layer": {"sim.events": events, "core.runtime.run_ms": 5.0},
    }}}


def _verdicts(a, b):
    return {metric: outcome
            for _, metric, _, _, outcome in compare.compare(a, b)}


def test_compare_verdicts():
    bound = dict((m[0], m[3]) for m in catalogue.END_TO_END)["ops_per_s"]
    worse, better = 10.0 * (1 - bound - 0.05), 10.0 * (1 + bound + 0.05)
    same = _verdicts(_result(), _result(ops_per_s=10.0 * (1 - bound / 2)))
    assert set(same.values()) == {"unchanged"}
    assert _verdicts(_result(), _result(ops_per_s=worse))["ops_per_s"] \
        == "regressed"
    assert _verdicts(_result(), _result(ops_per_s=better))["ops_per_s"] \
        == "improved"
    # A run whose halves disagree by more than the bound judges nothing.
    noisy = _verdicts(_result(), _result(ops_per_s=worse,
                                         half_split=1 - bound - 0.05))
    assert noisy["ops_per_s"] == "unresolved"
    assert noisy["setup_s"] == "unchanged"
    assert _verdicts(_result(), _result(events=101.0))["sim.events"] \
        == "count-changed"
    assert _verdicts(_result(), _result(failed=1))["ops_failed"] \
        == "regressed"


def test_compare_exit_codes(tmp_path):
    paths = []
    for i, doc in enumerate((_result(), _result(ops_per_s=5.0))):
        paths.append(str(tmp_path / f"{i}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(doc, fh)
    assert compare.main([paths[0], paths[0]]) == 0
    assert compare.main(paths) == 1


def test_benchmark_json_registers_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        registered = json.load(fh)
    assert set(registered) == {"command", "paths", "run_seconds",
                               "workloads", "end_to_end", "per_layer"}
    assert registered["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in registered["workloads"]] \
        == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in registered["end_to_end"]] == catalogue.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in registered["per_layer"]] == catalogue.PER_LAYER
    names = [m["name"] for m in registered["end_to_end"]
             + registered["per_layer"] + registered["workloads"]]
    assert len(names) == len(set(names)) and len(catalogue.PER_LAYER) <= 128
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)


def test_smoke_run_checks_goldens_on_all_four_workloads():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    for name in workloads.WORKLOADS:
        assert f"{name}  ops_attempted  2 count" in done.stdout
        assert f"{name}  ops_failed  0 count" in done.stdout
    assert "PROBLEM" not in done.stdout
