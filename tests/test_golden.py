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
