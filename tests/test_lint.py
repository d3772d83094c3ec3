"""Tests for the AST determinism linter (``tools.lint``).

Each rule is exercised against minimal sources at paths inside and
outside the restricted layers, plus the suppression pragma and the CLI
entry point's exit codes.
"""

import textwrap
from pathlib import Path

from tools.lint import (
    ALL_RULES,
    lint_paths,
    lint_source,
    main,
    suppressed_rules,
)

SIM_PATH = "src/repro/sim/example.py"
CORE_PATH = "src/repro/core/runtime/example.py"
ANALYSIS_PATH = "src/repro/analysis/example.py"


def rules_hit(source, path=SIM_PATH):
    source = textwrap.dedent(source)
    return sorted({v.rule for v in lint_source(source, path, ALL_RULES)})


# ---------------------------------------------------------------- wallclock


def test_wallclock_flags_time_calls():
    src = """\
        import time
        def now():
            return time.time()
    """
    assert rules_hit(src) == ["wallclock"]
    assert rules_hit(src, path=CORE_PATH) == ["wallclock"]


def test_wallclock_flags_perf_counter_and_datetime():
    assert rules_hit("import time\nt = time.perf_counter()\n") \
        == ["wallclock"]
    assert rules_hit("import datetime\nd = datetime.datetime.now()\n") \
        == ["wallclock"]
    assert rules_hit("from time import monotonic\n") == ["wallclock"]
    assert rules_hit("from datetime import datetime\n") == ["wallclock"]


def test_wallclock_scoped_to_restricted_layers():
    src = "import time\nt = time.time()\n"
    assert rules_hit(src, path=ANALYSIS_PATH) == []
    assert rules_hit(src, path="tools/example.py") == []


def test_wallclock_exempts_the_clock_facade():
    src = "import time\nt = time.monotonic()\n"
    assert rules_hit(src, path="src/repro/sim/time.py") == []
    assert rules_hit(src, path="src/repro/sim/clock.py") == []


def test_wallclock_ignores_relative_and_harmless_imports():
    assert rules_hit("from .time import now_us\n") == []
    assert rules_hit("from time import struct_time\n") == []
    assert rules_hit("import time\nz = time.timezone\n") == []


# ---------------------------------------------------------- unseeded-random


def test_global_random_flagged_in_restricted_layers():
    src = "import random\nx = random.randint(0, 1)\n"
    assert rules_hit(src) == ["unseeded-random"]
    assert rules_hit(src, path=ANALYSIS_PATH) == []


def test_numpy_global_random_flagged():
    assert rules_hit("import numpy as np\nx = np.random.rand()\n") \
        == ["unseeded-random"]


def test_from_random_import_flagged_but_relative_exempt():
    assert rules_hit("from random import choice\n") == ["unseeded-random"]
    # The engine's own facade: `from .random import DeterministicRandom`.
    assert rules_hit("from .random import DeterministicRandom\n") == []
    assert rules_hit(
        "import random\n", path="src/repro/sim/random.py") == []


# ------------------------------------------------------------ set-iteration


def test_set_literal_iteration_flagged_everywhere():
    src = "for x in {1, 2, 3}:\n    pass\n"
    assert rules_hit(src) == ["set-iteration"]
    assert rules_hit(src, path=ANALYSIS_PATH) == ["set-iteration"]


def test_set_call_keys_view_and_comprehensions_flagged():
    assert rules_hit("for x in set(items):\n    pass\n") \
        == ["set-iteration"]
    assert rules_hit("for k in table.keys():\n    pass\n") \
        == ["set-iteration"]
    assert rules_hit("xs = [x for x in frozenset(items)]\n") \
        == ["set-iteration"]
    assert rules_hit("xs = {x for x in set(a) - b}\n") == ["set-iteration"]


def test_sorted_iteration_not_flagged():
    assert rules_hit("for x in sorted({1, 2, 3}):\n    pass\n") == []
    assert rules_hit("for x in items:\n    pass\n") == []


# ----------------------------------------------------------------- float-eq


def test_float_literal_equality_flagged():
    assert rules_hit("ok = deadline == 1.5\n") == ["float-eq"]
    assert rules_hit("ok = 0.25 != jitter\n") == ["float-eq"]


def test_int_equality_and_float_ordering_not_flagged():
    assert rules_hit("ok = deadline == 1\n") == []
    assert rules_hit("ok = deadline <= 1.5\n") == []


# ------------------------------------------------------------------ pragmas


def test_pragma_parses_rule_lists_and_star():
    assert suppressed_rules("x = 1  # lint: ignore[wallclock]") \
        == {"wallclock"}
    assert suppressed_rules("x = 1  # lint: ignore[a, b]") == {"a", "b"}
    assert suppressed_rules("x = 1  # lint: ignore[*]") == {"*"}
    assert suppressed_rules("x = 1  # plain comment") is None


def test_pragma_suppresses_only_named_rule():
    src = "import time\nt = time.time()  # lint: ignore[wallclock]\n"
    assert rules_hit(src) == []
    src = "import time\nt = time.time()  # lint: ignore[float-eq]\n"
    assert rules_hit(src) == ["wallclock"]
    src = "import time\nt = time.time()  # lint: ignore[*]\n"
    assert rules_hit(src) == []


# -------------------------------------------------------------- the engine


def test_syntax_error_reported_as_parse_error():
    assert rules_hit("def broken(:\n") == ["parse-error"]


def test_violation_str_is_grep_friendly():
    violation = lint_source("t = time.time()\n", SIM_PATH, ALL_RULES)[0]
    assert str(violation).startswith(f"{SIM_PATH}:1:")
    assert "wallclock" in str(violation)


def test_lint_paths_walks_directories(tmp_path):
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "dirty.py").write_text("import time\nt = time.time()\n")
    (pkg / "clean.py").write_text("x = 1\n")
    (pkg / "notes.txt").write_text("not python")
    violations = lint_paths([str(tmp_path)])
    assert [v.rule for v in violations] == ["wallclock"]
    assert violations[0].path.endswith("dirty.py")


def test_main_exit_codes(tmp_path, capsys):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "dirty.py").write_text("import random\nx = random.random()\n")
    assert main([str(tmp_path)]) == 1
    assert "unseeded-random" in capsys.readouterr().out

    (pkg / "dirty.py").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    assert "no violations" in capsys.readouterr().out


def test_main_rejects_missing_paths(capsys):
    assert main(["/no/such/path"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_main_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.id in out


def test_docs_rule_table_lists_exactly_the_registered_rules():
    doc = (Path(__file__).resolve().parent.parent / "docs"
           / "STATIC_ANALYSIS.md").read_text(encoding="utf-8")
    layer2 = doc.split("## Layer 2", 1)[1].split("\n## ", 1)[0]
    documented = [line.split("`")[1] for line in layer2.splitlines()
                  if line.startswith("| `")]
    assert sorted(documented) == sorted(rule.id for rule in ALL_RULES)


def test_shipped_tree_is_lint_clean():
    src = Path(__file__).resolve().parent.parent / "src"
    assert lint_paths([str(src)]) == []


def test_fastpath_module_is_in_lint_scope(tmp_path):
    """The verify memo lives in a determinism-critical layer: a
    wall-clock read or unseeded RNG sneaking into repro/crypto/memo.py
    (its home since perf/fastpath.py was retired) must be flagged, and
    only perf/timing.py is sanctioned to read time."""
    from tools.lint.rules import _in_restricted_layer

    assert _in_restricted_layer("src/repro/crypto/memo.py")
    assert _in_restricted_layer("src/repro/perf/batchcore.py")
    assert not _in_restricted_layer("src/repro/perf/timing.py")

    pkg = tmp_path / "repro" / "crypto"
    pkg.mkdir(parents=True)
    (pkg / "memo.py").write_text(
        "import time\nstamp = time.monotonic()\n")
    violations = lint_paths([str(tmp_path)])
    assert [v.rule for v in violations] == ["wallclock"]


# ------------------------------------------- unsorted-node-iteration

MC_PATH = "src/repro/mc/example.py"
FAULTS_PATH = "src/repro/faults/example.py"


def test_unsorted_node_iteration_flags_dict_views():
    src = """\
        def merge(table):
            for node, state in table.items():
                print(node, state)
            return [v for v in table.values()]
    """
    # ...and the offline half, whose artifacts are pinned byte for byte.
    for path in (MC_PATH, FAULTS_PATH, "src/repro/net/routing.py",
                 "src/repro/core/planner/example.py",
                 "src/repro/sched/example.py"):
        assert rules_hit(src, path=path) == ["unsorted-node-iteration"], path


def test_unsorted_node_iteration_accepts_sorted_views():
    src = """\
        def merge(table):
            for node, state in sorted(table.items()):
                print(node, state)
            return [table[k] for k in sorted(table)]
    """
    assert rules_hit(src, path=MC_PATH) == []


def test_unsorted_node_iteration_scope_and_pragma():
    src = "pairs = [v for v in table.values()]\n"
    # Outside the node-order-critical layers the rule stays silent.
    assert rules_hit(src, path=ANALYSIS_PATH) == []
    assert rules_hit(src, path=SIM_PATH) == []
    assert rules_hit(src, path=CORE_PATH) == []
    assert rules_hit(src, path="src/repro/net/topology.py") == []
    suppressed = ("pairs = [v for v in table.values()]"
                  "  # lint: ignore[unsorted-node-iteration]\n")
    assert rules_hit(suppressed, path=MC_PATH) == []


def test_mc_layer_is_in_restricted_scope():
    """repro/mc drives the deterministic engine: wall-clock and global
    RNG are as forbidden there as in sim/core."""
    from tools.lint.rules import _in_restricted_layer

    assert _in_restricted_layer("src/repro/mc/explorer.py")
    assert rules_hit("import time\nt = time.time()\n",
                     path=MC_PATH) == ["wallclock"]


def test_baselines_are_in_restricted_and_schedule_scope():
    """Baselines cross links through the same hop runtime and are
    digest-pinned like BTR: clocks and the global RNG are forbidden
    there too, and so is unsorted dict-view iteration. ``sim.schedule``
    and ``sim.call_at`` are one engine push, so neither spelling is
    flagged."""
    path = "src/repro/baselines/example.py"
    assert rules_hit("import time\nt = time.time()\n",
                     path=path) == ["wallclock"]
    assert rules_hit("self.sim.schedule(5, cb)\n", path=path) == []
    assert rules_hit("self.sim.call_at(5, cb)\n", path=path) == []
    assert rules_hit("pairs = [v for v in table.values()]\n",
                     path=path) == ["unsorted-node-iteration"]


# ------------------------------------------------------- hop runtime


BATCHCORE_PATH = "src/repro/perf/batchcore.py"


def test_batchcore_is_in_schedule_and_node_order_scope():
    """The batched core feeds the event queue directly, so the dict-view
    ordering rule watches it; its schedule calls need no pragma."""
    assert rules_hit("sim.schedule(5, cb)\n", path=BATCHCORE_PATH) == []
    assert rules_hit("pairs = [v for v in table.values()]\n",
                     path=BATCHCORE_PATH) == ["unsorted-node-iteration"]


# ------------------------------------------- float-time-arithmetic

BOUNDS_PATH = "src/repro/verify/bounds/analyzer.py"


def test_float_time_arithmetic_flags_division_and_float_literals():
    src = """\
        def detect(period, slack):
            mid = period / 2
            padded = period + 1.5
            return mid + padded
    """
    assert rules_hit(src, path=BOUNDS_PATH) == ["float-time-arithmetic"]


def test_float_time_arithmetic_accepts_integer_us():
    src = """\
        def detect(period, slack):
            mid = period // 2
            padded = period + slack * 3
            return -(-padded // 2)
    """
    assert rules_hit(src, path=BOUNDS_PATH) == []


def test_float_time_arithmetic_scope_and_pragma():
    src = "ratio = bound / empirical\n"
    # Only the bounds package is in scope: float arithmetic is fine in,
    # say, the analysis layer's reporting code.
    assert rules_hit(src, path=ANALYSIS_PATH) == []
    assert rules_hit(src, path=SIM_PATH) == []
    suppressed = ("ratio = bound / empirical"
                  "  # lint: ignore[float-time-arithmetic]\n")
    assert lint_source(suppressed, BOUNDS_PATH, ALL_RULES) == []


# --------------------------------------------------------- builtin-hash


def test_builtin_hash_flags_values_that_leave_the_process():
    assert rules_hit("eid = hash(evidence.evidence_id) & 0xFFFFFFFF\n",
                     path=CORE_PATH) == ["builtin-hash"]
    assert rules_hit("bucket = hash((node, k)) % 7\n",
                     path=FAULTS_PATH) == ["builtin-hash"]
    assert rules_hit("key = hash((self.a, other.a))\n",
                     path=MC_PATH) == ["builtin-hash"]


def test_builtin_hash_accepts_own_fields_digests_and_methods():
    src = """
        import hashlib

        class Key:
            def __hash__(self):
                return hash((self.a, self.b.c))

        eid = int(hashlib.sha256(b"x").hexdigest()[:8], 16)
        tag = obj.hash(payload)
    """
    assert rules_hit(src, path=CORE_PATH) == []


def test_builtin_hash_scope_and_pragma():
    src = "eid = hash(name)\n"
    # The analysis layer renders reports from traces; nothing it hashes
    # feeds back into a run.
    assert rules_hit(src, path=ANALYSIS_PATH) == []
    assert rules_hit(src, path="src/repro/workload/example.py") == []
    for path in (SIM_PATH, CORE_PATH, MC_PATH, FAULTS_PATH,
                 BATCHCORE_PATH, "src/repro/obs/example.py",
                 "src/repro/fuzz/example.py", "src/repro/net/example.py",
                 "src/repro/sched/example.py",
                 "src/repro/verify/example.py"):
        assert rules_hit(src, path=path) == ["builtin-hash"], path
    suppressed = "eid = hash(name)  # lint: ignore[builtin-hash]\n"
    assert lint_source(suppressed, CORE_PATH, ALL_RULES) == []


# --------------------------------------------------- JSON output


def test_violations_carry_column_numbers():
    src = textwrap.dedent("""\
        import time
        def now():
            return 1 + time.time()
    """)
    violations = lint_source(src, SIM_PATH, ALL_RULES)
    assert violations and violations[0].col > 0
    payload = violations[0].to_dict()
    assert set(payload) == {"path", "line", "col", "rule", "message"}
    assert payload["col"] == violations[0].col


def test_main_format_json(tmp_path, capsys):
    import json

    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "dirty.py").write_text("import random\nx = random.random()\n")
    assert main(["--format=json", str(tmp_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checked_files"] == 1
    [violation] = report["violations"]
    assert violation["rule"] == "unseeded-random"
    assert violation["line"] == 2 and violation["col"] > 0

    (pkg / "dirty.py").write_text("x = 1\n")
    assert main(["--format=json", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"checked_files": 1, "violations": []}


def test_main_list_rules_json(capsys):
    import json

    assert main(["--list-rules", "--format=json"]) == 0
    catalogue = json.loads(capsys.readouterr().out)
    assert {r["id"] for r in catalogue} == {r.id for r in ALL_RULES}
