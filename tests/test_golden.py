"""``python -m tests.golden`` reads every digest file it will compare
before it recomputes a cell: a malformed file is one named line and
exit 2, never a traceback after minutes of recomputation. A cell that
differs prints what moved, not just its key, and an engine cell that
breaks a per-cell fact prints one line naming the cell and the fact."""

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
    """The engine job takes a full trace's digest and milestone events
    from one pass over it: exactly what :func:`digest` and
    :func:`milestone_reprs` return from two."""
    key = "geo:2x4@geo2x4/industrialx10/f1/p6/s42"
    cell = golden.parse_cell(key)
    system = cell.deployment.system()
    system.prepare()
    result = golden.run_scenario(system, cell)
    job = golden.engine_job(key)
    assert job["digest"] == golden.digest(system, result) == golden.expected(
        key)
    assert job["events"]["full"] == golden.milestone_reprs(result.trace)
    assert job["events"]["full"]


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


@pytest.fixture(scope="module")
def job():
    """The engine job of the real :data:`KEY` cell."""
    return golden.engine_job(KEY)


def test_the_real_cell_matches_and_breaks_no_fact(job):
    assert job["digest"] == golden.expected(KEY)
    assert golden.broken_facts(KEY, job) == []


#: The cell run under a delivery hook, where deferral is off.
HOOKED_KEY = f"{golden.HOOKED}@geo3x4/industrialx10/f1/p6/s42"


def _counts(**changes):
    """Set counts, each a function of the job's own counts."""
    def perturb(job):
        counts = job["counts"]
        counts.update({name: change(counts)
                       for name, change in changes.items()})
    return perturb


def _hooked_census(job):
    """The job of a cell with the hooked cell's committed census."""
    job["milestones"].update(golden.census(golden.expected(HOOKED_KEY)))


def _one_more_event(job):
    job["milestones"]["events_executed"] += 1


def _drop_event(job):
    del job["events"]["milestones"][1]


def _drop_last_event(job):
    job["events"]["milestones"].pop()


@pytest.mark.parametrize("key, perturb, line", [
    (KEY, _counts(memo_hits=lambda c: 0), "verify memo never hit"),
    (KEY, _counts(verifies=lambda c: c["memo_misses"] - 1),
     "{memo_misses} memo misses but {verifies} verifications"),
    (KEY, _counts(batches_fired=lambda c: c["entries_batched"]),
     "{batches_fired} batches fired for {entries_batched} entries"),
    (KEY, _counts(deferred_refloods_full=lambda c: 3),
     "3 re-floods deferred on the full trace"),
    (HOOKED_KEY, _hooked_census,
     "{deferred_refloods} re-floods deferred under the delivery hook"),
    (KEY, _counts(deferred_refloods=lambda c: 0),
     "no settled re-flood deferred"),
    (KEY, _counts(trace_events_milestones=lambda c:
                  (c["trace_events_full"] + 3) // 4),
     "{trace_events_milestones} milestone rows, not under a quarter of "
     "the full trace's {trace_events_full}"),
    (KEY, _one_more_event, "events_executed +1"),
    (KEY, _drop_event, "milestone event 1: full {full}, milestones {next}"),
    (KEY, _drop_last_event, "milestones run has -1 milestone events"),
], ids=["memo_never_hit", "miss_without_verification", "no_coalescing",
        "deferred_on_full_trace", "deferred_under_hook",
        "not_deferred_unhooked", "milestone_rows_quarter", "census_moved",
        "dropped_milestone_event", "dropped_last_event"])
def test_each_broken_fact_is_one_named_line(job, key, perturb, line):
    broken = copy.deepcopy(job)
    perturb(broken)
    events = job["events"]["full"]
    assert golden.broken_facts(key, broken) == [f"{key}: " + line.format(
        **broken["counts"], full=events[1], next=events[2])]
