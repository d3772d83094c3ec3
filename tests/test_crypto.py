"""Tests for the simulated signature scheme and cost model."""

import dataclasses
import hashlib
import hmac
import pickle

import pytest
from hypothesis import example, given, strategies as st

from repro.crypto import (
    AuthenticatedStatement,
    KeyDirectory,
    Signature,
    SignatureError,
    canonical_bytes,
    digest,
)
from repro.crypto.signatures import hmac_pads, hmac_tag
from tests import golden


@pytest.fixture
def directory():
    d = KeyDirectory(master_seed=7)
    for node in ("a", "b", "c"):
        d.register(node)
    return d


def test_sign_verify_roundtrip(directory):
    payload = {"flow": "f1", "value": 42, "period": 3}
    sig = directory.sign("a", payload)
    assert directory.verify(payload, sig)


def test_tampered_payload_rejected(directory):
    payload = {"value": 42}
    sig = directory.sign("a", payload)
    assert not directory.verify({"value": 43}, sig)


def test_wrong_signer_rejected(directory):
    payload = {"value": 42}
    sig = directory.sign("a", payload)
    claimed = Signature(signer="b", tag=sig.tag)
    assert not directory.verify(payload, claimed)


def test_unknown_signer_cannot_sign(directory):
    with pytest.raises(SignatureError):
        directory.sign("ghost", {"x": 1})


def test_unknown_signer_never_verifies(directory):
    sig = Signature(signer="ghost", tag="00" * 32)
    assert not directory.verify({"x": 1}, sig)


def test_forged_signature_rejected(directory):
    payload = {"accused": "b", "fault": "commission"}
    forged = directory.forge("c", payload)
    assert forged.signer == "c"
    assert not directory.verify(payload, forged)


def test_register_is_idempotent(directory):
    payload = {"x": 1}
    sig = directory.sign("a", payload)
    directory.register("a")
    assert directory.verify(payload, sig)


def test_keys_deterministic_across_directories():
    d1 = KeyDirectory(master_seed=5)
    d2 = KeyDirectory(master_seed=5)
    d1.register("n")
    d2.register("n")
    payload = {"v": 9}
    assert d2.verify(payload, d1.sign("n", payload))


def test_different_master_seeds_do_not_cross_verify():
    d1 = KeyDirectory(master_seed=5)
    d2 = KeyDirectory(master_seed=6)
    d1.register("n")
    d2.register("n")
    payload = {"v": 9}
    assert not d2.verify(payload, d1.sign("n", payload))


def test_canonical_bytes_is_key_order_independent():
    assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes({"b": 2, "a": 1})


def test_canonical_bytes_rejects_exotic_objects():
    with pytest.raises(TypeError):
        canonical_bytes({"x": object()})


@given(st.dictionaries(st.text(max_size=8),
                       st.integers() | st.text(max_size=8), max_size=5))
def test_property_any_json_payload_roundtrips(payload):
    d = KeyDirectory()
    d.register("n")
    sig = d.sign("n", payload)
    assert d.verify(payload, sig)


def test_digest_stable_and_sensitive():
    assert digest({"a": 1}) == digest({"a": 1})
    assert digest({"a": 1}) != digest({"a": 2})


def test_authenticated_statement(directory):
    stmt = AuthenticatedStatement.make(directory, "b", {"claim": "late"})
    assert stmt.signer == "b"
    assert stmt.valid(directory)
    assert stmt.wire_bits() > Signature.WIRE_BITS


@given(st.binary(max_size=200), st.binary(max_size=300))
@example(b"k" * 64, b"at the block size")
@example(b"k" * 65, b"one past it: the key is hashed first")
def test_property_pad_tag_equals_hmac(key, message):
    """Tags from the precomputed RFC 2104 pads are ``hmac.new``'s, for
    keys on both sides of SHA-256's 64-byte block."""
    assert hmac_tag(hmac_pads(key), message) \
        == hmac.new(key, message, hashlib.sha256).hexdigest()


def test_warm_memo_rejects_forged_tag_and_altered_payload():
    d = KeyDirectory(master_seed=7, verify_memo=True)
    d.register("a")
    stmt = AuthenticatedStatement.make(d, "a", {"flow": "f", "value": 1})
    assert stmt.valid(d) and stmt.valid(d)
    memo = d.verify_memo
    assert (len(memo), memo.hits) == (1, 1)
    tag = stmt.signature.tag
    forged = AuthenticatedStatement(
        stmt.statement,
        Signature("a", tag[:-1] + ("0" if tag[-1] != "0" else "1")))
    altered = AuthenticatedStatement({"flow": "f", "value": 2},
                                     stmt.signature)
    for bad in (forged, altered, forged, altered):
        assert not bad.valid(d)
    assert (len(memo), memo.hits) == (1, 1)
    assert d.verifies == 5  # one honest miss, four rejected recomputes


def test_value_classes_behave_like_frozen_dataclasses():
    sig = Signature("a", "00ff")
    assert sig == Signature(signer="a", tag="00ff") != Signature("b", "00ff")
    assert sig != ("a", "00ff")
    assert hash(sig) == hash(("a", "00ff"))
    assert repr(sig) == "Signature(signer='a', tag='00ff')"
    stmt = AuthenticatedStatement({"x": 1}, sig)
    assert stmt == AuthenticatedStatement(statement={"x": 1}, signature=sig)
    assert repr(stmt) == ("AuthenticatedStatement(statement={'x': 1}, "
                          "signature=Signature(signer='a', tag='00ff'))")
    with pytest.raises(TypeError):
        hash(stmt)  # the payload is a dict, as with the dataclass
    for obj, field in ((sig, "tag"), (stmt, "signature")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, field)
        assert pickle.loads(pickle.dumps(obj)) == obj
    assert pickle.loads(pickle.dumps(stmt)).canonical() == stmt.canonical()


def test_a_runs_crypto_work_is_pinned():
    """The HMAC and memo counters of a committed engine cell. No digest
    pins them, yet a change to how statements are signed or checked
    must leave them as they are: the same signatures, each verified by
    HMAC once per run and served from the memo after."""
    cell = golden.parse_cell(
        "single_commission@fullmesh7/industrial/f1/p12/s42")
    system = cell.deployment.system()
    system.prepare()
    counters = golden.run_scenario(system, cell).metrics["counters"]
    assert {name: counters[name] for name in (
        "crypto_hmac{op=sign}", "crypto_hmac{op=verify}",
        "verify_memo{result=hit}", "verify_memo{result=miss}",
    )} == {
        "crypto_hmac{op=sign}": 323, "crypto_hmac{op=verify}": 309,
        "verify_memo{result=hit}": 470, "verify_memo{result=miss}": 309,
    }
