"""Verify memo, canonicalization caching and trace modes: the same run,
byte for byte, for less work. These tests pin that promise from four
sides —

* determinism property: the full trace equals the committed digest the
  per-message legacy path generated (``tests/golden``), and all trace
  modes produce the same milestone events, the same recovery timelines,
  the same event census, across seeds;
* verify-memo semantics: forged or invalid signatures are never cached,
  eviction is deterministic, and the memo-less mode is gone;
* canonicalization caching: one serialization per statement lifetime;
* trace modes: the reduced mode keeps the census and every kind
  reconstruction needs.
"""

import pytest

from repro import BTRConfig, BTRSystem
from repro.core.evidence.records import Evidence
from repro.crypto.authenticator import AuthenticatedStatement
from repro.crypto import memo as memo_module
from repro.crypto.memo import VerifyMemo
from repro.crypto.signatures import KeyDirectory, Signature, canonical_bytes
from repro.faults.scenarios import stage
from repro.net import full_mesh_topology
from repro.obs.recovery import reconstruct_timelines
from repro.sim.trace import (
    MILESTONE_KINDS,
    TRACE_MODES,
    EvidenceAccepted,
    EvidenceGenerated,
    FaultInjected,
    MessageSent,
    ModeSwitchCompleted,
    ModeSwitchStarted,
    OutputProduced,
    PathDeclared,
    Trace,
)
from repro.workload import industrial_workload
from tests import golden

N_PERIODS = 12
SCENARIO = "single_commission"


def run_scenario(seed: int, mode: str):
    system = BTRSystem(
        industrial_workload(),
        full_mesh_topology(7, bandwidth=1e8),
        BTRConfig(f=1, seed=seed, trace_mode=mode),
    )
    system.prepare()
    scn = stage(SCENARIO, system)
    result = system.run(N_PERIODS, adversary=scn.script,
                        link_script=scn.link_script)
    return system, result


class TestDeterminismProperty:
    """Same seed => same observable run, whatever the knobs."""

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_fastpath_and_trace_modes_agree(self, seed):
        full_sys, full = run_scenario(seed, mode="full")
        mi_sys, miles = run_scenario(seed, mode="milestones")

        # The full-mode trace is byte-identical to the one the legacy
        # per-message path recorded for this cell.
        golden.assert_matches(full_sys, full, SCENARIO)

        # Every heartbeat copy in the full trace is one of the emission
        # plan's own prebuilt rows — the same tuple object, so recording
        # a copy allocated nothing. (Sends are recognisable by content:
        # only a heartbeat is a 128-bit control frame to a neighbour.)
        entries = [entry
                   for plan in full_sys.batch_runtime._hb_plans.values()
                   for entry in plan]
        sends = {entry[7] for entry in entries}
        own = {id(row) for entry in entries for row in entry[7:]}
        rows = full.trace._rows
        sent = [row for row in rows if type(row) is tuple and row in sends]
        assert sent and all(id(row) in own for row in sent)
        # ...and so are their deliveries and link losses.
        arrived = sum(id(row) in own for row in rows) - len(sent)
        assert 0 < arrived <= len(sent)
        assert len(sent) + arrived > len(rows) // 2

        # The milestone trace is exactly the milestone-kind subsequence
        # of the full trace — same events, same fields, same order.
        assert (golden.milestone_reprs(miles.trace)
                == golden.milestone_reprs(full.trace))

        # Recovery timelines (detect/convict/.../residual spans) agree.
        full_tl = [t.to_dict() for t in reconstruct_timelines(full)]
        mi_tl = [t.to_dict() for t in reconstruct_timelines(miles)]
        assert mi_tl == full_tl
        assert sum(t.phase_sum() for t in reconstruct_timelines(miles)) \
            == sum(t.phase_sum() for t in reconstruct_timelines(full))

        # The event census is mode-independent (tallies fill the gap)...
        assert miles.trace.kind_counts() == full.trace.kind_counts()
        # ...and the simulation itself executed the same event sequence.
        assert full_sys.sim.events_executed == mi_sys.sim.events_executed


class TestVerifyMemo:
    def directory(self) -> KeyDirectory:
        directory = KeyDirectory(master_seed=7, verify_memo=True)
        directory.register("n1")
        directory.register("n2")
        return directory

    def test_repeat_verification_hits_memo_once_per_statement(self):
        directory = self.directory()
        stmt = AuthenticatedStatement.make(directory, "n1", {"flow": "a", "period": 3})
        assert all(stmt.valid(directory) for _ in range(5))
        memo = directory.verify_memo
        assert memo.misses == 1
        assert memo.hits == 4
        # Only the miss performed HMAC work.
        assert directory.verifies == 1

    def test_forged_signature_is_never_cached(self):
        directory = self.directory()
        payload = {"flow": "a", "period": 3}
        forged = AuthenticatedStatement(
            statement=payload, signature=directory.forge("n1", payload))
        for _ in range(4):
            assert not forged.valid(directory)
        # Every attempt recomputed the HMAC; nothing was stored.
        assert directory.verifies == 4
        assert directory.verify_memo.hits == 0
        assert len(directory.verify_memo._valid) == 0

    def test_wrong_signer_tag_is_recomputed(self):
        directory = self.directory()
        stmt = AuthenticatedStatement.make(directory, "n1", {"flow": "b", "period": 1})
        assert stmt.valid(directory)  # miss: stores the honest statement
        assert stmt.valid(directory)  # hit
        # Same tag, different claimed signer: invalid, and stays invalid
        # on every retry even though the honest statement is cached.
        crossed = AuthenticatedStatement(
            statement=stmt.statement,
            signature=Signature(signer="n2", tag=stmt.signature.tag))
        assert not crossed.valid(directory)
        assert not crossed.valid(directory)
        assert directory.verify_memo.hits == 1  # only the honest repeat

    def test_eviction_is_deterministic_and_bounded(self, monkeypatch):
        monkeypatch.setattr(memo_module, "MEMO_ENTRIES", 4)
        memo = VerifyMemo()
        keys = [("n", f"tag{i}", f"d{i}") for i in range(5)]
        for key in keys:
            assert not memo.hit(key)
            memo.add_valid(key)
        # Inserting the 5th evicted the oldest half (insertion order).
        assert memo.evictions == 2
        assert len(memo._valid) <= 4
        assert not memo.hit(keys[0])
        assert not memo.hit(keys[1])
        assert memo.hit(keys[4])

    def test_removed_memo_less_mode_is_named(self):
        """``verify_memo`` survives as a keyword (the e2e harness passes
        ``True``); asking for the removed memo-less mode fails loudly."""
        with pytest.raises(ValueError, match="memo-less verify mode"):
            KeyDirectory(master_seed=7, verify_memo=False)

    def test_begin_run_clears_memo_and_counters(self):
        directory = self.directory()
        stmt = AuthenticatedStatement.make(directory, "n1", {"x": 1})
        assert stmt.valid(directory) and stmt.valid(directory)
        directory.begin_run()
        assert directory.signs == 0
        assert directory.verifies == 0
        assert directory.verify_memo.hits == 0
        assert len(directory.verify_memo._valid) == 0


class TestCanonicalizationCaching:
    def test_one_serialization_per_statement_lifetime(self, monkeypatch):
        import repro.crypto.authenticator as auth_mod

        calls = []

        def counting(payload):
            calls.append(payload)
            return canonical_bytes(payload)

        monkeypatch.setattr(auth_mod, "canonical_bytes", counting)
        directory = KeyDirectory(master_seed=7, verify_memo=True)
        directory.register("n1")
        stmt = AuthenticatedStatement.make(directory, "n1", {"flow": "f", "period": 9})
        assert len(calls) == 1  # serialized once, at make()
        # Everything downstream reuses the cached bytes/digest.
        stmt.wire_bits()
        stmt.wire_bits()
        stmt.payload_digest()
        stmt.payload_digest()
        assert stmt.valid(directory) and stmt.valid(directory)
        assert len(calls) == 1

    def test_evidence_id_reuses_statement_digest(self, monkeypatch):
        import repro.crypto.authenticator as auth_mod

        directory = KeyDirectory(master_seed=7, verify_memo=True)
        for node in ("n1", "n2"):
            directory.register(node)
        s1 = AuthenticatedStatement.make(directory, "n1", {"flow": "f", "value": 1})
        s2 = AuthenticatedStatement.make(directory, "n1", {"flow": "f", "value": 2})

        calls = []

        def counting(payload):
            calls.append(payload)
            return canonical_bytes(payload)

        monkeypatch.setattr(auth_mod, "canonical_bytes", counting)
        evidence = Evidence.make(directory, kind="equivocation",
                                 accused="n1", detector="n2",
                                 detected_at=100, statements=[s1, s2])
        _ = evidence.evidence_id
        _ = evidence.evidence_id
        # The envelope is a fresh statement (one serialization); the
        # support digests and evidence_id all come from cached digests.
        assert len(calls) == 1


class TestTraceModes:
    def test_mode_validation(self):
        with pytest.raises(ValueError, match="trace mode"):
            Trace(mode="everything")
        with pytest.raises(ValueError, match="trace_mode"):
            BTRConfig(trace_mode="everything")
        assert TRACE_MODES == ("full", "milestones")

    def test_required_kinds_are_retained_in_milestones_mode(self):
        # The kinds reconstruct_timelines reads.
        required = {FaultInjected, PathDeclared, EvidenceGenerated,
                    EvidenceAccepted, ModeSwitchStarted,
                    ModeSwitchCompleted, OutputProduced}
        assert required <= MILESTONE_KINDS
        trace = Trace(mode="milestones")
        for kind in required:
            assert trace.retains(kind)

    def test_tally_merges_into_census(self):
        trace = Trace(mode="milestones")
        trace.record(MessageSent(time=1, src="a", dst="b", kind="data",
                                 size_bits=8))
        trace.tally(MessageSent, 4)
        assert len(trace) == 0
        assert trace.count(MessageSent) == 5
        assert trace.kind_counts() == {"MessageSent": 5}
