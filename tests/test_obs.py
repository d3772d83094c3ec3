"""Tests for the observability layer: metrics registry, recovery-timeline
reconstruction, export round-trip, and the silent-failure counters."""

import json
import re

import pytest

from repro import BTRConfig, BTRSystem
from repro.faults import single_fault
from repro.net import full_mesh_topology
from repro.obs import (
    MILESTONES,
    PHASES,
    MetricsRegistry,
    budget_attribution,
    export_run,
    load_report,
    reconstruct_timelines,
    render_key,
    render_phase_report,
    run_report,
)
from repro.workload import industrial_workload, pipeline_workload

FAULT_AT = 220_000


def btr_run(kind="commission", workload=None, n_periods=30, seed=42,
            **config_kw):
    system = BTRSystem(workload or industrial_workload(),
                       full_mesh_topology(7),
                       BTRConfig(f=1, seed=seed, **config_kw))
    system.prepare()
    adversary = (single_fault(system, kind, at=FAULT_AT).script
                 if kind else None)
    return system, system.run(n_periods, adversary)


@pytest.fixture(scope="module")
def commission_run():
    return btr_run("commission")


@pytest.fixture(scope="module")
def crash_run():
    return btr_run("crash", n_periods=24, seed=41)


# ------------------------------------------------------------------ metrics


class TestMetricsRegistry:
    def test_counters_with_labels(self):
        m = MetricsRegistry()
        m.inc("messages_dropped", reason="no_route")
        m.inc("messages_dropped", reason="no_route")
        m.inc("messages_dropped", reason="link_loss", value=3)
        assert m.counter_value("messages_dropped", reason="no_route") == 2
        assert m.counter_value("messages_dropped", reason="link_loss") == 3
        assert m.counter_value("messages_dropped", reason="other") == 0

    def test_label_order_is_irrelevant(self):
        m = MetricsRegistry()
        m.inc("x", a="1", b="2")
        m.inc("x", b="2", a="1")
        assert m.counter_value("x", b="2", a="1") == 2

    def test_render_key(self):
        assert render_key("n", []) == "n"
        assert render_key("n", [("a", "1"), ("b", "2")]) == "n{a=1,b=2}"

    def test_gauges(self):
        m = MetricsRegistry()
        m.set_gauge("sim_events_executed", 123)
        m.set_gauge("sim_events_executed", 456)  # last write wins
        assert m.gauge_value("sim_events_executed") == 456
        assert m.gauge_value("missing") is None

    def test_snapshot_is_deterministic_and_json_ready(self):
        def build(order):
            m = MetricsRegistry()
            for reason in order:
                m.inc("messages_dropped", reason=reason)
            m.set_gauge("g", 1)
            return m.snapshot()

        a = build(["b", "a", "c"])
        b = build(["c", "b", "a"])
        assert json.dumps(a, sort_keys=False) == json.dumps(b,
                                                            sort_keys=False)
        assert list(a["counters"]) == sorted(a["counters"])

    def test_empty_registry(self):
        m = MetricsRegistry()
        assert len(m) == 0
        assert m.snapshot() == {"counters": {}, "gauges": {}}


# ----------------------------------------------------------------- timeline


class TestReconstruction:
    def test_phase_sum_equals_recovery_time(self, commission_run):
        from repro.analysis import smallest_sufficient_R

        _, result = commission_run
        timelines = reconstruct_timelines(result)
        assert len(timelines) == 1
        t = timelines[0]
        assert t.fault_kind == "commission"
        assert t.manifest_us == FAULT_AT
        assert t.phase_sum() == t.total_us == smallest_sufficient_R(result)
        assert set(t.phases) == set(PHASES)
        assert all(span >= 0 for span in t.phases.values())

    def test_milestones_are_ordered_when_observed(self, commission_run,
                                                  crash_run):
        for _, result in (commission_run, crash_run):
            t = reconstruct_timelines(result)[0]
            observed = [t.milestones[m] for m in MILESTONES
                        if t.milestones[m] is not None]
            assert observed, "expected at least one observed milestone"
            assert all(v >= t.manifest_us for v in observed)
            # The conviction cannot precede the first charge, nor the
            # quorum the conviction; the fleet switches only after the
            # first charge (fault -> detect -> switch).
            assert t.milestones["first_charge"] <= t.milestones["conviction"]
            assert t.milestones["conviction"] <= t.milestones["quorum"]
            assert t.milestones["first_charge"] <= \
                t.milestones["switch_boundary"]

    def test_fault_free_run_has_no_timelines(self):
        _, result = btr_run(kind=None, n_periods=5,
                            workload=pipeline_workload())
        assert reconstruct_timelines(result) == []

    def test_reconstruction_is_deterministic(self, commission_run):
        _, result = commission_run
        a = [t.to_dict() for t in reconstruct_timelines(result)]
        b = [t.to_dict() for t in reconstruct_timelines(result)]
        assert a == b

    def test_masked_fault_yields_zero_total(self):
        # pipeline + commission is fully masked by replication: recovery
        # is 0 and every phase span collapses to 0 with it.
        _, result = btr_run(workload=pipeline_workload())
        timelines = reconstruct_timelines(result)
        if timelines and timelines[0].total_us == 0:
            assert timelines[0].phase_sum() == 0

    def test_budget_attribution_rows(self, commission_run):
        system, result = commission_run
        t = reconstruct_timelines(result)[0]
        rows = budget_attribution(t, system.budget)
        assert [r[0] for r in rows] == list(PHASES)
        for _phase, span, component, promised in rows:
            assert span >= 0
            assert promised == int(getattr(system.budget, component))


# ------------------------------------------------------------------- export


class TestExport:
    def test_round_trip(self, commission_run, tmp_path):
        _, result = commission_run
        path = str(tmp_path / "run.json")
        report = export_run(result, path)
        loaded = load_report(path)
        assert loaded == json.loads(json.dumps(report))  # JSON-stable
        assert loaded["faults"][0]["fault_kind"] == "commission"
        assert loaded["budget"]["total_us"] > 0
        assert loaded["trace_counts"]["FaultInjected"] == 1
        assert "counters" in loaded["metrics"]

    def test_report_phase_sums_hold_after_round_trip(self, commission_run,
                                                     tmp_path):
        # The CI obs-smoke gate: exported spans must sum to the exported
        # total for every fault.
        _, result = commission_run
        path = str(tmp_path / "run.json")
        export_run(result, path)
        for fault in load_report(path)["faults"]:
            assert sum(fault["phases"].values()) == fault["total_us"]

    def test_load_rejects_a_report_of_another_version(self, commission_run,
                                                      tmp_path):
        from repro.cli import main as cli_main
        from repro.obs.export import REPORT_VERSION

        _, result = commission_run
        path = tmp_path / "run.json"
        report = export_run(result, str(path))
        report["version"] = REPORT_VERSION + 1
        path.write_text(json.dumps(report))
        with pytest.raises(ValueError) as caught:
            load_report(str(path))
        message = str(caught.value)
        assert str(path) in message and "\n" not in message
        assert f"version {REPORT_VERSION + 1}" in message
        assert f"version {REPORT_VERSION})" in message
        assert cli_main(["trace", str(path)]) == 2

    @pytest.mark.parametrize("corrupt, named", [
        # Phases summing to 100,000 us beside a total of 5 us.
        (lambda r, f: f.update(
            phases=dict.fromkeys(PHASES, 0) | {"detect": 100_000},
            total_us=5), "sum to 100000 us, not its total_us 5"),
        # A negative phase, the sum kept.
        (lambda r, f: f["phases"].update(
            detect=-1, residual=f["phases"]["residual"] + 1),
         "'detect'] is negative"),
        (lambda r, f: f["milestones"].update(first_charge="x"),
         "'first_charge'] must be an integer or null"),
        (lambda r, f: r.update(duration_us="x"),
         "'duration_us'] must be an integer"),
        # A phase of 10**30 beside a matching total.
        (lambda r, f: (f["phases"].update(detect=10**30),
                       f.update(total_us=sum(f["phases"].values()))),
         "outside the run's [0, 1500000] us"),
        (lambda r, f: f.update(manifest_us=-1),
         "manifests at -1 us"),
        (lambda r, f: f["milestones"].update(conviction=1_500_001),
         "'conviction'] at 1500001 us is outside the run's [0, 1500000]"),
        (lambda r, f: r.update(duration_us=r["duration_us"] + 1),
         "duration_us 1500001 is not period_us 50000 * n_periods 30"),
        (lambda r, f: r.update(period_us=0, duration_us=0),
         "duration_us 0 is not period_us 0 * n_periods 30 with both >= 1"),
    ], ids=["phase sum", "negative phase", "string milestone",
            "string duration", "phase past the run", "negative manifest",
            "milestone past the run", "duration not periods",
            "zero period"])
    def test_load_rejects_a_report_no_writer_produces(
            self, commission_run, tmp_path, capsys, corrupt, named):
        from repro.cli import main as cli_main

        _, result = commission_run
        path = tmp_path / "run.json"
        report = export_run(result, str(path))
        corrupt(report, report["faults"][0])
        path.write_text(json.dumps(report))
        with pytest.raises(ValueError, match=re.escape(named)):
            load_report(str(path))
        assert cli_main(["trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro trace: {path}: ")
        assert err.count("\n") == 1 and named in err

    def test_failed_export_leaves_no_litter_and_the_previous_report(
            self, commission_run, tmp_path, monkeypatch):
        import os

        _, result = commission_run
        path = tmp_path / "run.json"
        export_run(result, str(path))
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            export_run(result, str(path))
        assert os.listdir(tmp_path) == ["run.json"]
        assert path.read_bytes() == before
        load_report(str(path))

    def test_render_phase_report(self, commission_run):
        _, result = commission_run
        text = render_phase_report(run_report(result))
        assert "commission" in text
        for phase in PHASES:
            assert phase in text
        assert "Budget attribution" in text

        # A kind longer than the fault column's 12 characters
        # (flood_plus_fault's evidence_flood) widens the column: every
        # row stays aligned under the header.
        report = run_report(result)
        report["faults"].append(dict(report["faults"][0],
                                     fault_kind="evidence_flood"))
        lines = render_phase_report(report).splitlines()
        header, rows = lines[1], lines[3:3 + len(report["faults"])]
        for fault, row in zip(report["faults"], rows):
            assert row.startswith(fault["fault_kind"])
            assert row[header.index("node"):].startswith(fault["node"])
            assert len(row) == len(header)

    def test_render_handles_faultless_report(self):
        _, result = btr_run(kind=None, n_periods=5,
                            workload=pipeline_workload())
        text = render_phase_report(run_report(result))
        assert "no faults injected" in text


# ------------------------------------------------------------- run metrics


class TestRunMetrics:
    def test_run_result_carries_metrics_snapshot(self, commission_run):
        _, result = commission_run
        counters = result.metrics["counters"]
        assert counters.get("evidence_verdicts{reason=valid}", 0) > 0
        assert result.metrics["gauges"]["sim_events_executed"] > 0

    def test_link_losses_are_counted(self):
        from repro.sim import MessageDropped

        system = BTRSystem(pipeline_workload(), full_mesh_topology(6),
                           BTRConfig(f=1, seed=7))
        system.prepare()
        # Degrade every link heavily from the start.
        script = [(0, link_id, 0.5) for link_id in system.topology.links]
        result = system.run(6, link_script=script)
        dropped = result.metrics["counters"].get(
            "messages_dropped{reason=link_loss}", 0)
        assert dropped > 0
        assert result.trace.count(MessageDropped) == dropped

    def test_timeline_cli_trace_command(self, commission_run, tmp_path,
                                        capsys):
        from repro.cli import main as cli_main

        _, result = commission_run
        path = str(tmp_path / "run.json")
        export_run(result, path)
        assert cli_main(["trace", path]) == 0
        out = capsys.readouterr().out
        assert "Recovery phase breakdown" in out
        assert "commission" in out

    def test_trace_command_rejects_garbage(self, tmp_path):
        from repro.cli import main as cli_main

        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert cli_main(["trace", str(bad)]) == 2
