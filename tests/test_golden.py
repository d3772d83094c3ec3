"""``python -m tests.golden`` reads every digest file it will compare
before it recomputes a cell: a malformed file is one named line and
exit 2, never a traceback after minutes of recomputation. A cell that
differs prints what moved, not just its key."""

import copy
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


#: A small committed engine cell the comparison tests perturb.
KEY = "single_commission@fullmesh7/industrial/f1/p12/s42"


def _fewer_sends(digest):
    digest["kind_counts"]["MessageSent"] -= 2


def _more_events_and_switches_no_outputs(digest):
    digest["events_executed"] += 2
    digest["kind_counts"]["ModeSwitchStarted"] += 1
    del digest["kind_counts"]["OutputProduced"]


def _other_fingerprint(digest):
    digest["fingerprint"] = "0" * 64


@pytest.mark.parametrize("perturb, line", [
    (_fewer_sends, "MessageSent +2"),
    (_more_events_and_switches_no_outputs,
     "events_executed -2, ModeSwitchStarted -1, OutputProduced +56"),
    (_other_fingerprint, "census equal, fingerprint differs"),
], ids=["kind", "events_and_kinds", "fingerprint_only"])
def test_a_moved_cell_names_what_moved(perturb, line):
    """The recomputed digest is the committed one; the expected digest
    fed to the comparison is perturbed."""
    found = golden.expected(KEY)
    perturbed = copy.deepcopy(found)
    perturb(perturbed)
    assert golden.compare({KEY: found}, {KEY: perturbed}) == [
        f"{KEY}: {line}"]
    assert golden.compare({KEY: found}, {KEY: found}) == []
