"""``python -m tests.golden`` reads every digest file it will compare
before it recomputes a cell: a malformed file is one named line and
exit 2, never a traceback after minutes of recomputation."""

import sys

import pytest

from tests import golden

MALFORMED = {
    "truncated": '{"schema": 1, "cells": {"k": {"events_executed": 1',
    "not_an_object": '["k"]',
    "no_cells": '{"schema": 1}',
    "non_object_cell": '{"schema": 1, "cells": {"k": 3}}',
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_digest_file_is_refused_before_any_cell(
        text, tmp_path, monkeypatch, capsys):
    path = tmp_path / "baseline_digests.json"
    path.write_text(text)
    recomputed = []
    monkeypatch.setitem(golden.FILES, "baseline",
                        (str(path), recomputed.append, lambda: ["k"]))
    monkeypatch.setattr(sys, "argv", ["tests.golden", "baseline"])
    with pytest.raises(SystemExit) as exited:
        golden.main()
    assert exited.value.code == 2
    assert recomputed == []
    err = capsys.readouterr().err
    assert err.startswith(f"tests.golden: cannot read {path}: ")
    assert err.count("\n") == 1


def test_one_pass_digest_and_reprs_equal_the_two_passes():
    """E17 takes a full trace's digest and milestone events from one pass
    over it: exactly what :func:`digest` and :func:`milestone_reprs`
    return from two."""
    key = "geo:2x4@geo2x4/industrialx10/f1/p6/s42"
    cell = golden.parse_cell(key)
    system = cell.deployment.system()
    system.prepare()
    result = golden.run_scenario(system, cell)
    found, reprs = golden.digest_and_reprs(system, result)
    assert found == golden.digest(system, result) == golden.expected(key)
    assert reprs == golden.milestone_reprs(result.trace)
    assert reprs
