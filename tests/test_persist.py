"""Every persisted JSON artifact is written whole or not at all
(``repro.persist.write_atomic``), and every indented one by
``repro.persist.json_text``, which leaves no reference cycle behind.

Each writer below keeps its file's bytes (the layout is pinned per
writer), and a write whose rename fails leaves the previous file as it
was and no temp file beside it. A ``repro`` verb reports that failure
as one line and exit 2.
"""

import contextlib
import gc
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import Deployment
from repro.cli import main as cli_main
from repro.cli.flags import write_json
from repro.core.planner.serialize import strategy_to_json
from repro.fuzz.corpus import load_corpus, write_corpus
from repro.obs import export_run
from repro.perf import StrategyCache, strategy_cache_key
from repro.persist import InputError, json_text, read_json, write_atomic

CORPUS_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "corpus")

PAYLOAD = {"b": [1, 2], "a": {"z": None, "y": "text"}}


def _json(payload, newline: bool) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + (
        "\n" if newline else "")


@pytest.fixture(scope="module")
def system():
    system = Deployment("pipeline", "fullmesh:4").system(
        trace_mode="milestones")
    system.prepare()
    return system


@pytest.fixture(scope="module")
def result(system):
    return system.run(n_periods=6)


def _write_json(tmp_path, system, result):
    path = str(tmp_path / "report.json")
    write_json(path, PAYLOAD, "report")
    return path, _json(PAYLOAD, newline=False)


def _cli(*argv):
    """Run a verb. A write it could not finish is its one line and exit
    2, raised here as the ``OSError`` that line reports."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    if code == 2:
        [line] = err.getvalue().splitlines()
        raise OSError(line)
    assert code == 0


def _bounds_json(tmp_path, system, result):
    path = str(tmp_path / "bounds.json")
    _cli("bounds", "--workload", "pipeline", "--topology", "fullmesh:4",
         "--json", path)
    with open(path) as fh:
        return path, _json(json.load(fh), newline=True)


def _plan_export(tmp_path, system, result):
    path = str(tmp_path / "strategy.json")
    _cli("plan", "--workload", "pipeline", "--topology", "fullmesh:4",
         "--export", path)
    with open(path) as fh:
        return path, _json(json.load(fh), newline=False)


def _write_corpus(tmp_path, system, result):
    _, artifact = load_corpus(CORPUS_DIR)[0]
    path, = write_corpus(str(tmp_path), [artifact])
    return path, _json(artifact, newline=True)


def _export_run(tmp_path, system, result):
    path = str(tmp_path / "run.json")
    report = export_run(result, path)
    return path, _json(report, newline=True)


def _cache_store(tmp_path, system, result):
    key = strategy_cache_key(system.workload, system.topology,
                             system.config.f)
    path = StrategyCache(str(tmp_path)).store(key, system.strategy)
    return path, strategy_to_json(system.strategy)


WRITERS = {
    "cli.flags.write_json": _write_json,
    "repro bounds --json": _bounds_json,
    "repro plan --export": _plan_export,
    "fuzz.write_corpus": _write_corpus,
    "obs.export_run": _export_run,
    "StrategyCache.store": _cache_store,
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_rename_keeps_the_previous_file_and_no_temp_file(
        writer, tmp_path, system, result, monkeypatch, capsys):
    write = WRITERS[writer]
    path, expected = write(tmp_path, system, result)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == expected
    # The previous file differs from what the failing write would leave.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("previous")
    listing = sorted(os.listdir(tmp_path))

    def refuse(_src, _dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write(tmp_path, system, result)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "previous"
    assert sorted(os.listdir(tmp_path)) == listing


def test_failed_write_names_the_target_not_its_temp_file(tmp_path):
    """``repro plan --export D`` onto a directory ``D`` reports ``D``."""
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(IsADirectoryError) as exc:
        write_atomic(str(target), "{}")
    assert exc.value.filename == str(target)
    assert ".tmp." not in str(exc.value) and exc.value.filename2 is None
    assert os.listdir(tmp_path) == ["taken"]


@pytest.mark.parametrize("content, says", [
    (b"\xff\xfe[]", "not UTF-8 text ('utf-8' codec can't decode"),
    (b"[" * 100_000 + b"]" * 100_000,
     "nested deeper than the decoder allows"),
    (b'{"a": [1, 2', "not valid JSON (Expecting"),
], ids=["not-utf8", "too-deep", "truncated"])
def test_read_json_names_why_it_cannot_decode(content, says, tmp_path):
    """Only a JSON syntax error gets the truncated-write hint."""
    path = tmp_path / "artifact.json"
    path.write_bytes(content)
    with pytest.raises(InputError) as exc:
        read_json(str(path), InputError, lambda document: document)
    message = str(exc.value)
    assert message.startswith(f"{path}: {says}"), message
    assert ("truncated mid-write" in message) == (says.startswith(
        "not valid JSON")), message


# ---------------------------------------------------------- the JSON text

JSON_LEAVES = (st.none() | st.booleans() | st.integers()
               | st.floats(allow_nan=True, allow_infinity=True)
               | st.text())
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES)
def test_property_json_text_is_the_indented_sorted_dump(value):
    """Nested string-keyed JSON values, empty containers, unicode,
    floats, bools and ``None`` included."""
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_text_keeps_the_standard_key_and_tuple_rules():
    value = {1: (), 2.5: [True, -0.0], False: {}, None: ("é", 3)}
    for dump in (json_text,
                 lambda v: json.dumps(v, indent=2, sort_keys=True)):
        with pytest.raises(TypeError):
            dump(value)  # keys of mixed types do not sort
    for keys in ({1: "a", 2: "b"}, {2.5: 1, 0.5: 2}, {True: 1, False: 0}):
        assert json_text(keys) == json.dumps(keys, indent=2,
                                             sort_keys=True)
    assert json_text(((), ("x",))) == json.dumps(((), ("x",)), indent=2)
    with pytest.raises(TypeError):
        json_text({"set": {1}})


def test_json_text_leaves_no_cycle():
    value = {"b": [1, {"c": [2.5, None]}], "a": {"z": [], "y": "text"}}
    json_text(value)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            json_text(value)
        assert gc.collect() == 0
    finally:
        gc.enable()
