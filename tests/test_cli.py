"""Tests for the command-line interface (``python -m repro``)."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.net import TopologyError, topology_from_spec

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# ----------------------------------------------------------------- topology


def test_topology_from_spec_builds_each_kind():
    assert len(topology_from_spec("fullmesh:5", 1e8).nodes) == 5
    assert len(topology_from_spec("ring:6", 1e8).nodes) == 6
    assert len(topology_from_spec("mesh:2x3", 1e8).nodes) == 6
    assert len(topology_from_spec("dualstar:4", 1e8).nodes) == 6
    assert len(topology_from_spec("bus:4", 1e8).nodes) == 4


def test_topology_from_spec_rejects_unknown():
    with pytest.raises(TopologyError, match="unknown topology"):
        topology_from_spec("torus:9", 1e8)


# -------------------------------------------------------------- the verbs

#: Every verb, as ``python -m repro`` spells it.
VERBS = [["plan"], ["run"], ["compare"], ["verify"], ["bounds"],
         ["trace"], ["check"], ["fuzz", "campaign"], ["fuzz", "corpus-check"],
         ["replay"]]


@pytest.mark.parametrize("verb", VERBS, ids=" ".join)
def test_python_m_repro_verb_help_exits_0(verb):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    out = subprocess.run([sys.executable, "-m", "repro", *verb, "--help"],
                         capture_output=True, text=True, env=env, cwd=REPO)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: repro " + " ".join(verb))


@pytest.mark.parametrize("verb", VERBS, ids=" ".join)
def test_only_run_accepts_trace_mode(verb, capsys):
    """No verb accepts ``--trace-mode``: ``run`` records milestones,
    ``compare`` keeps full traces for its traffic column."""
    positional = {"trace": ["r.json"], "replay": ["a.json"]}
    argv = [*verb, *positional.get(verb[-1], []),
            "--trace-mode", "milestones"]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --trace-mode" in capsys.readouterr().err


# --------------------------------------------------------------------- plan


def test_cli_plan(capsys):
    code, out = run_cli(capsys, "plan", "--workload", "industrial",
                        "--topology", "fullmesh:7")
    assert code == 0
    assert "nominal" in out
    assert "faulty:" in out
    assert "recovery budget" in out


def test_cli_plan_avionics_shows_criticality(capsys):
    code, out = run_cli(capsys, "plan", "--workload", "avionics",
                        "--topology", "fullmesh:8", "--bandwidth", "2e8")
    assert code == 0
    assert "ABCD" in out


# ---------------------------------------------------------------------- run


def test_cli_run_fault_free(capsys):
    code, out = run_cli(capsys, "run", "--periods", "10")
    assert code == 0
    assert "Definition 3.1 holds" in out
    assert "True" in out
    assert "0.000s" in out  # no recovery needed


def test_cli_run_with_fault(capsys):
    code, out = run_cli(capsys, "run", "--periods", "24",
                        "--fault", "commission", "--fault-at", "0.22")
    assert code == 0  # BTR holds -> exit 0
    assert "1 faults" in out


def test_cli_run_rejects_unknown_fault(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--fault", "gremlins"])


def test_cli_run_fault_names_its_victim(capsys):
    """``--fault K --fault-at T`` stages ``single_fault`` and prints the
    line ``--scenario`` prints."""
    code, out = run_cli(capsys, "run", "--workload", "pipeline",
                        "--topology", "fullmesh:4", "--periods", "12",
                        "--fault", "crash", "--fault-at", "0.05")
    assert code == 0
    assert out.splitlines()[0] == "scenario: single_crash - one crash " \
                                  "fault on n1"


@pytest.mark.parametrize("argv, names", [
    (["--scenario", "single_crash", "--fault", "commission"],
     "argument --fault: not allowed with argument --scenario"),
    (["--scenario", "single_crash", "--fault-at", "0.05"],
     "--fault-at needs --fault"),
    (["--fault-at", "0.05"], "--fault-at needs --fault"),
])
def test_cli_run_refuses_a_fault_flag_it_would_drop(argv, names, capsys):
    """``--scenario`` stages its own faults: a ``--fault`` or
    ``--fault-at`` beside it, or a ``--fault-at`` with no ``--fault``,
    is a usage error before anything is planned, not silently
    dropped."""
    with pytest.raises(SystemExit) as exc:
        main(["run", "--workload", "pipeline", "--topology", "fullmesh:4",
              "--periods", "4", *argv])
    assert exc.value.code == 2
    assert f"repro run: error: {names}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, names", [
    (["--scenario", "nosuch"], "unknown scenario 'nosuch'"),
    (["--scenario", "gateway_crash", "--topology", "fullmesh:5"],
     "no WAN links"),
    (["--scenario", "paced_double", "--f", "1"], "needs f >= 2"),
])
def test_cli_run_names_a_scenario_it_cannot_stage(argv, names, capsys):
    assert main(["run", "--periods", "4", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("repro run: ")
    assert names in captured.err and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("verb", ["run", "compare"])
def test_cli_refuses_a_fault_at_or_after_the_run_end(verb, capsys):
    """4 periods of industrial's 50 ms end at 0.2 s; stretched 10x they
    end at 2 s, so the same fault is inside the run."""
    argv = [verb, "--fault", "crash", "--fault-at", "1", "--periods", "4"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert ("--fault-at 1s is not before the run's end at 0.2s (4 periods)"
            in capsys.readouterr().err)
    assert main(argv + ["--stretch", "10"]) == 0


# ------------------------------------------------------------------ compare


def test_cli_compare(capsys):
    code, out = run_cli(capsys, "compare", "--periods", "16",
                        "--fault", "crash")
    assert code == 0
    for name in ("btr", "unreplicated", "bft", "zz", "selfstab",
                 "crash_restart"):
        assert name in out
    assert "recovery" in out


def test_cli_requires_command(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_cli_plan_export(tmp_path, capsys):
    out_file = tmp_path / "strategy.json"
    code, out = run_cli(capsys, "plan", "--export", str(out_file))
    assert code == 0
    assert "strategy written" in out
    from repro import Deployment
    from repro.core.planner import strategy_from_json, strategy_to_json
    exported = out_file.read_text()
    restored = strategy_from_json(exported)
    assert len(restored) >= 1
    # The export is the planned strategy's artifact, only indented.
    system = Deployment().system()
    system.prepare()
    assert (json.dumps(json.loads(exported), sort_keys=True)
            == strategy_to_json(system.strategy))


def test_cli_verify_names_a_plan_that_does_not_rebuild(tmp_path, capsys):
    """An exported strategy whose plan graph no longer validates (a flow
    from an unknown task) is not a strategy artifact: one line, exit 2."""
    path = tmp_path / "strategy.json"
    assert run_cli(capsys, "plan", "--export", str(path))[0] == 0
    data = json.loads(path.read_text())
    data["plans"][0]["workload"]["flows"][0]["src"] = "nowhere"
    path.write_text(json.dumps(data))
    assert main(["verify", "--strategy", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert err.startswith(f"repro verify: {path}: malformed strategy ")


@pytest.mark.parametrize("verb", [v for v in VERBS if v != ["trace"]],
                         ids=" ".join)
@pytest.mark.parametrize("flag", [["--cache", "DIR"], ["--no-cache"]],
                         ids=lambda flag: flag[0])
def test_no_deployment_verb_takes_a_strategy_cache(verb, flag, capsys):
    """A strategy comes from the planner: no verb reads a cache."""
    positional = {"replay": ["a.json"]}
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(
            [*verb, *positional.get(verb[-1], []), *flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: repro ")
    assert f"unrecognized arguments: {' '.join(flag)}" in err


# ------------------------------------------------------------- bad input


@pytest.mark.parametrize("argv, names", [
    (["verify", "--strategy", "{not json"], "strategy.json: not valid JSON"),
    (["verify", "--strategy", '{"format_version": 1}'],
     "strategy.json: malformed strategy artifact"),
    (["plan", "--topology", "fullmesh:abc"], "malformed topology"),
    (["plan", "--topology", "mesh:3"], "malformed topology"),
    (["plan", "--topology", "geo:2"], "malformed topology"),
    (["plan", "--f", "0"], "BTR needs f >= 1"),
    (["run", "--periods", "-3"], "argument --periods: must be > 0"),
    (["run", "--periods", "0"], "argument --periods: must be > 0"),
    (["run", "--topology", "fullmesh:1"], "malformed topology"),
    (["run", "--fault", "crash", "--fault-at", "-1"],
     "argument --fault-at: must be >= 0"),
    (["bounds", "--R", "-1"], "argument --R: must be > 0"),
    (["plan", "--f", "9"], "unschedulable deployment"),
    (["run", "--stretch", "0"], "argument --stretch: must be > 0"),
    (["check", "--periods", "-1"], "argument --periods: must be >= 0"),
    (["fuzz", "campaign", "--max-artifacts", "-1"],
     "argument --max-artifacts: must be >= 0"),
    (["verify", "--strategy", b"\xff\xfe"], "strategy.json: not UTF-8 text"),
    (["check", "--window", "3", "2"], "injection window must satisfy"),
    (["check", "--window", "-1", "2"], "injection window must satisfy"),
    (["fuzz", "campaign", "--window", "-1", "2"],
     "injection window must satisfy"),
    (["fuzz", "campaign", "--window", "3", "2"],
     "injection window must satisfy"),
])
def test_cli_names_bad_input_in_one_line(argv, names, tmp_path, capsys):
    if "--strategy" in argv:  # the payload stands for a file holding it
        path = tmp_path / "strategy.json"
        payload = argv[-1]
        if isinstance(payload, bytes):
            path.write_bytes(payload)
        else:
            path.write_text(payload)
        argv = argv[:-1] + [str(path)]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    if isinstance(code, str):  # SystemExit(message): stderr, status 1
        err += code
    assert code not in (0, None)
    assert "Traceback" not in err
    # argparse echoes its usage block before the one line that matters.
    message = [line for line in err.splitlines()
               if line and not line.startswith(("usage:", " "))]
    assert len(message) == 1 and names in message[0]


# -------------------------------------------------------------------- trace


def test_cli_trace_missing_file(tmp_path, capsys):
    code = main(["trace", str(tmp_path / "nope.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("repro trace: ") and err.count("\n") == 1
    assert "No such file or directory" in err and "nope.json" in err


def test_cli_trace_truncated_json(tmp_path, capsys):
    path = tmp_path / "trunc.json"
    path.write_text('{"version": 1, "faults": [')
    code = main(["trace", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "truncated" in err


#: Parts of a report that passes every check ``load_report`` makes.
VALID_BUDGET = {"detection_us": 1, "distribution_us": 1, "switch_us": 1,
                "settling_us": 1, "total_us": 4}
VALID_FAULT = {"node": "n1", "fault_kind": "crash", "manifest_us": 0,
               "milestones": {m: None for m in (
                   "first_charge", "conviction", "quorum",
                   "switch_boundary", "first_correct_output")},
               "phases": {p: 0 for p in ("detect", "convict", "quorum",
                                         "switch", "settle", "residual")},
               "total_us": 0}


def test_cli_trace_structurally_invalid(tmp_path, capsys):
    base = {"version": 1, "period_us": 1, "n_periods": 1,
            "duration_us": 1, "budget": VALID_BUDGET,
            "faults": [VALID_FAULT], "metrics": {}}
    no_detection = {k: v for k, v in VALID_BUDGET.items()
                    if k != "detection_us"}
    # (what replaces part of the valid report, text the one line names)
    cases = [
        ({"faults": [{"node": "n1"}]}, "faults[0]"),
        ({"budget": no_detection}, "detection_us"),
        ({"budget": [1, 2]}, "'budget'"),
        ({"faults": [dict(VALID_FAULT, manifest_us="x")]}, "manifest_us"),
        ({"metrics": [1]}, "'metrics'"),
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(base))
    assert main(["trace", str(path)]) == 0
    capsys.readouterr()
    for change, named in cases:
        path.write_text(json.dumps(dict(base, **change)))
        code = main(["trace", str(path)])
        err = capsys.readouterr().err
        assert code == 2, change
        assert err.startswith(f"repro trace: {path}: "), err
        assert err.count("\n") == 1 and named in err, err


def test_cli_run_timeline_prints_what_trace_prints(tmp_path, capsys):
    """One view of a recovery: the block ``run --timeline`` prints is,
    byte for byte, what ``trace`` prints for the same run's report."""
    obs = tmp_path / "run.json"
    code, out = run_cli(capsys, "run", "--workload", "pipeline",
                        "--topology", "fullmesh:4", "--periods", "12",
                        "--fault", "crash", "--fault-at", "0.05",
                        "--timeline", "--obs", str(obs))
    assert code == 0
    block = out.split("\nincident timeline:\n", 1)[1]
    block = block.split("observability report written", 1)[0]
    code, rendered = run_cli(capsys, "trace", str(obs))
    assert code == 0
    assert "Recovery phase breakdown" in rendered
    assert block == rendered
    assert all(len(line) < 120 for line in block.splitlines())


def test_cli_run_timeline_and_obs_reconstruct_once(tmp_path, capsys,
                                                   monkeypatch):
    """``run --timeline --obs F`` prints and exports one reconstruction
    of the run's timelines."""
    import repro.obs
    import repro.obs.export
    import repro.obs.recovery

    reconstruct = repro.obs.recovery.reconstruct_timelines
    calls = []

    def counting(result):
        calls.append(result)
        return reconstruct(result)

    for module in (repro.obs, repro.obs.export, repro.obs.recovery):
        monkeypatch.setattr(module, "reconstruct_timelines", counting)
    code, out = run_cli(capsys, "run", "--workload", "pipeline",
                        "--topology", "fullmesh:4", "--periods", "12",
                        "--fault", "crash", "--fault-at", "0.05",
                        "--timeline", "--obs", str(tmp_path / "run.json"))
    assert code == 0
    assert "\nincident timeline:\n" in out
    assert len(calls) == 1


def test_cli_bounds_pins_r_after_a_prepare_that_priced_the_budget(
        tmp_path, capsys, monkeypatch):
    """The strategy keeps the report a strict ``prepare()`` priced at the
    computed budget; ``repro bounds --R`` still reports its pinned R."""
    import repro.cli.bounds

    planned = repro.cli.bounds.planned

    def priced(args, **how):
        system = planned(args, **how)
        system.prepare(strict=True)
        assert system.strategy._bounds[-1].R_us == system.budget.total_us
        return system

    monkeypatch.setattr(repro.cli.bounds, "planned", priced)
    out = tmp_path / "bounds.json"
    code, _ = run_cli(capsys, "bounds", "--workload", "industrial",
                      "--topology", "fullmesh:5", "--f", "1",
                      "--R", "0.5", "--json", str(out))
    assert code == 0
    assert json.loads(out.read_text())["R_us"] == 500_000


def test_cli_trace_renders_valid_report(tmp_path, capsys):
    obs = tmp_path / "run.json"
    code = main(["run", "--workload", "pipeline", "--topology",
                 "fullmesh:4", "--periods", "12", "--fault", "crash",
                 "--fault-at", "0.05", "--obs", str(obs)])
    assert code == 0
    capsys.readouterr()
    code, out = run_cli(capsys, "trace", str(obs))
    assert code == 0
    assert "Recovery phase breakdown" in out


# -------------------------------------------------------------------- check

CHECK_SMOKE = ["check", "--workload", "pipeline", "--topology",
               "fullmesh:4", "--ticks", "1", "--max-depth", "1",
               "--branch", "2", "--max-states", "30"]


def test_cli_check_certifies(capsys):
    code, out = run_cli(capsys, *CHECK_SMOKE, "--kinds", "crash")
    assert code == 0
    assert "CERTIFIED" in out


def test_cli_check_counterexample_and_replay(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    code, out = run_cli(capsys, *CHECK_SMOKE, "--kinds", "commission",
                        "--R", "0.03", "--corpus-dir", str(corpus),
                        "--report", str(tmp_path / "report.json"))
    assert code == 1
    assert "NOT CERTIFIED" in out
    assert "replay-confirmed" in out
    artifacts = sorted(corpus.glob("mc-*.json"))
    assert artifacts
    code, out = run_cli(capsys, "replay", str(artifacts[0]))
    assert code == 1
    assert "replay CONFIRMS" in out


#: A stretched deployment whose crash recovery overruns R = 20 ms.
STRETCHED = ["--workload", "pipeline", "--topology", "fullmesh:4",
             "--stretch", "2", "--R", "0.02", "--kinds", "crash",
             "--ticks", "1"]


def test_cli_stretched_check_counterexamples_replay(tmp_path, capsys):
    """An artifact names its deployment's stretch, so ``replay`` re-runs
    the stretched workload the campaign searched."""
    corpus = tmp_path / "corpus"
    code, out = run_cli(capsys, "check", *STRETCHED, "--max-depth", "0",
                        "--corpus-dir", str(corpus))
    assert code == 1 and "replay-confirmed" in out
    artifacts = sorted(corpus.glob("mc-*.json"))
    assert len(artifacts) == 2
    for path in artifacts:
        assert json.loads(path.read_text())["meta"]["stretch"] == 2
        code, out = run_cli(capsys, "replay", str(path))
        assert code == 1
        assert "replay CONFIRMS" in out


#: The smallest check that finds counterexamples (two cells, ~0.4 s).
CHECK_FINDS = ["check", "--workload", "pipeline", "--topology",
               "fullmesh:4", "--kinds", "commission", "--R", "0.03",
               "--max-depth", "0", "--ticks", "1"]


def test_cli_check_counterexamples_are_corpus_entries(tmp_path, capsys):
    """``check --corpus-dir`` writes what ``fuzz campaign`` does: each
    counterexample under its content name, with a replay digest the
    corpus gate confirms, and a rerun rewrites the same names."""
    from repro.fuzz import check_corpus, load_corpus

    corpus = tmp_path / "corpus"
    code, _ = run_cli(capsys, *CHECK_FINDS, "--corpus-dir", str(corpus))
    assert code == 1
    names = sorted(p.name for p in corpus.iterdir())
    assert names and all(n.startswith("mc-") for n in names)
    assert all("replay_digest" in payload
               for _, payload in load_corpus(str(corpus)))
    report = check_corpus(str(corpus))
    assert report["ok"] and report["checked"] == len(names)
    assert all(e["confirmed"] and e["digest_match"]
               for e in report["entries"])
    code, _ = run_cli(capsys, *CHECK_FINDS, "--corpus-dir", str(corpus))
    assert code == 1
    assert sorted(p.name for p in corpus.iterdir()) == names


def test_cli_stretched_fuzz_corpus_entry_replays(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    code, _ = run_cli(capsys, "fuzz", "campaign", *STRETCHED,
                      "--generations", "0", "--batch", "1",
                      "--corpus-dir", str(corpus))
    assert code == 1
    (entry,) = corpus.glob("*.json")
    code, out = run_cli(capsys, "replay", str(entry))
    assert code == 1
    assert "replay CONFIRMS" in out


def test_cli_check_replay_rejects_bad_artifact(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("[1, 2]")
    code = main(["replay", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"repro replay: {path}: ")


#: A committed, replayable artifact that each case below breaks in one
#: place.
CORPUS_ENTRY = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                            "corpus", "fuzz-3a9355964d00.json")


def _unknown_node_script():
    with open(CORPUS_ENTRY) as f:
        script = json.load(f)["fault_script"]
    script["injections"][0]["node"] = "zz"
    return script


#: The entry's script, well-formed but injecting a node it lacks.
UNKNOWN_NODE = _unknown_node_script()


#: Every verb that replays an artifact: ``replay`` reads the file,
#: ``fuzz corpus-check`` the corpus directory holding it.
@pytest.mark.parametrize("argv", [["replay"], ["fuzz", "corpus-check"]])
@pytest.mark.parametrize("field,value", [
    ("cell", 5),
    ("cell", {"victim": ["n2"], "kind": "crash", "inject_at": 0}),
    ("deliveries", [1, 2]),
    ("deliveries", [[1, "2"]]),
    ("fault_script", [{"x": 1}]),
    ("fault_script", {"version": 2, "injections": [{"x": 1}]}),
    ("n_periods", True),
    ("k", 0),
    ("seed", "7"),
    ("violations", [{"detail": "no invariant"}]),
    ("meta", {"workload": "nope"}),
    ("meta", {"f": "1"}),
    ("meta", []),
    ("fault_script", UNKNOWN_NODE),
    (None, None),  # the file cut in half
])
def test_cli_replay_names_each_malformed_artifact(tmp_path, capsys, argv,
                                                  field, value):
    """Hostile replay input: one line naming the artifact and exit 2,
    never a traceback."""
    with open(CORPUS_ENTRY) as f:
        text = f.read()
    if field is not None:
        payload = json.loads(text)
        payload[field] = value
        text = json.dumps(payload)
    else:
        text = text[:len(text) // 2]
    path = tmp_path / "artifact.json"
    path.write_text(text)
    where = (["--corpus", str(tmp_path)] if argv[0] == "fuzz"
             else [str(path)])
    code = main([*argv, *where])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"repro {argv[0]}: ")
    if value == UNKNOWN_NODE:
        # The script decodes; the run refuses it on its deployment.
        assert "injects zz: no such node" in line
        assert argv[0] == "replay" or f"{path}: " in line
    else:
        assert line.startswith(f"repro {argv[0]}: {path}: ")


@pytest.mark.parametrize("argv", [["check", "--replay"], ["fuzz", "replay"],
                                  ["check", "--cex-dir"]])
def test_cli_retired_replay_entry_points_exit_2(argv, capsys):
    """``repro replay`` is the one replay verb and ``--corpus-dir`` the
    one artifact sink: the entry points they replaced are argparse
    errors, not silent aliases."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, CORPUS_ENTRY])
    assert exc.value.code == 2
    assert "error: " in capsys.readouterr().err.splitlines()[-1]


def test_cli_check_rejects_bad_bounds(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--ticks", "0"])
    assert exc.value.code == 2
    assert "argument --ticks: must be > 0" in capsys.readouterr().err


# --------------------------------------------------------------------- fuzz


def test_cli_fuzz_campaign_finds_and_corpus_check_passes(tmp_path, capsys):
    """R=30ms under-provisions commission recovery on the smoke config
    (~40-76ms): the campaign must exit 1 with minimised, replay-confirmed
    counterexamples; the checked-in corpus must replay clean."""
    import json
    import os

    report_path = tmp_path / "report.json"
    code, _ = run_cli(
        capsys, "fuzz", "campaign", "--workload", "pipeline",
        "--topology", "fullmesh:4", "--f", "1", "--seed", "7",
        "--kinds", "crash", "commission", "timing", "--ticks", "2",
        "--generations", "2", "--batch", "4", "--elite", "3",
        "--R", "0.03", "--corpus-dir", str(tmp_path / "found"),
        "--report", str(report_path))
    assert code == 1
    report = json.loads(report_path.read_text())
    assert report["found"]
    assert report["counterexamples"]
    assert all(a["replay_confirmed"] for a in report["counterexamples"])
    corpus = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "corpus")
    code, _ = run_cli(capsys, "fuzz", "corpus-check", "--corpus", corpus)
    assert code == 0
