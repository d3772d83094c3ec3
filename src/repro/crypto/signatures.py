"""Simulated digital signatures.

The paper's evidence machinery needs signatures with the usual properties:
only the keyholder can produce a valid tag, anyone can verify, and evidence
is transferable. Inside a simulation, HMAC over a per-node secret gives
exactly this — the fault injectors only hand compromised nodes *their own*
keys, so a compromised node cannot forge statements by correct nodes, which
is the property all of §4.2–4.3 rests on.

CPU cost of verifying is charged separately in *simulated* time via
:data:`~repro.crypto.costs.VERIFY_US`; the Python-level HMAC here is just
the soundness mechanism.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from .memo import VerifyMemo

#: SHA-256's block size in bytes: RFC 2104's ``B``.
_BLOCK_BYTES = 64
#: ``bytes.translate`` tables XOR-ing every byte with RFC 2104's pads.
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


class SignatureError(Exception):
    """Raised when signing is attempted with an unknown identity."""


def canonical_bytes(payload: Any) -> bytes:
    """Deterministic serialization for signing.

    JSON with sorted keys; tuples become lists; unsupported objects are
    rejected rather than silently repr'd, so two nodes can never disagree on
    the byte string being signed.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_reject).encode()


def _reject(obj: Any) -> Any:
    raise TypeError(f"unsignable object in payload: {type(obj).__name__}")


@dataclass(frozen=True, slots=True, init=False)
class Signature:
    """A (signer, tag) pair attached to a message or evidence record.

    One is built per signature, so the frozen dataclass keeps its
    equality, hash, repr and immutability but stores into ``__slots__``
    through the slot descriptors: a generated frozen ``__init__`` pays
    an ``object.__setattr__`` name lookup per field.
    """

    signer: str
    tag: str

    #: Wire size of one signature, in bits (Ed25519-like: 64 bytes).
    WIRE_BITS = 512

    def __init__(self, signer: str, tag: str) -> None:
        _set_signer(self, signer)
        _set_tag(self, tag)


_set_signer = Signature.signer.__set__
_set_tag = Signature.tag.__set__


def hmac_pads(key: bytes) -> Tuple[Any, Any]:
    """SHA-256 states that have absorbed RFC 2104's inner and outer key
    blocks (a key longer than the block is hashed first, a shorter one
    zero-padded). :func:`hmac_tag` forks them per message, so the key
    schedule is paid once per signer instead of once per tag."""
    if len(key) > _BLOCK_BYTES:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK_BYTES, b"\0")
    return (hashlib.sha256(key.translate(_IPAD)),
            hashlib.sha256(key.translate(_OPAD)))


def hmac_tag(pads: Tuple[Any, Any], message: bytes) -> str:
    """``hmac.new(key, message, sha256).hexdigest()`` from
    ``hmac_pads(key)``: two ``copy()`` + ``update()`` passes."""
    inner = pads[0].copy()
    inner.update(message)
    outer = pads[1].copy()
    outer.update(inner.digest())
    return outer.hexdigest()


class KeyDirectory:
    """Per-node signing keys, derived deterministically from a master seed.

    The directory object plays both roles of a deployed PKI: nodes sign with
    their private key (the HMAC secret) and verify using the public mapping.
    Access control is enforced by the fault injectors — only the behaviour
    running *as* node X calls ``sign(X, ...)``.

    ``verify_memo`` is accepted for callers written when a memo-less
    directory also existed; ``True`` is its only legal value.
    """

    def __init__(self, master_seed: int = 0,
                 verify_memo: bool = True) -> None:
        if verify_memo is not True:
            raise ValueError(
                "verify_memo=False selected the memo-less verify mode, "
                "which was removed; every directory memoises valid "
                "signature checks")
        self._master_seed = master_seed
        #: Per-signer :func:`hmac_pads`: the key schedule pre-applied.
        self._pads: Dict[str, Tuple[Any, Any]] = {}
        #: HMAC computations actually performed (memo hits excluded).
        self.signs = 0
        self.verifies = 0
        self.verify_memo = VerifyMemo()

    def begin_run(self) -> None:
        """Reset per-run state (memo + counters) so runs stay independent."""
        self.signs = 0
        self.verifies = 0
        self.verify_memo.clear()

    def register(self, node_id: str) -> None:
        """Provision a key for ``node_id`` (idempotent)."""
        if node_id not in self._pads:
            self._pads[node_id] = hmac_pads(hashlib.sha256(
                f"key:{self._master_seed}:{node_id}".encode()).digest())

    def sign(self, signer: str, payload: Any) -> Signature:
        return self.sign_bytes(signer, canonical_bytes(payload))

    def sign_bytes(self, signer: str, canonical: bytes) -> Signature:
        """Sign an already-canonicalized payload."""
        pads = self._pads.get(signer)
        if pads is None:
            raise SignatureError(f"no key registered for {signer!r}")
        self.signs += 1
        return Signature(signer, hmac_tag(pads, canonical))

    def verify(self, payload: Any, signature: Signature) -> bool:
        """True iff ``signature`` is a valid tag by its claimed signer."""
        return self.verify_bytes(canonical_bytes(payload), signature)

    def verify_bytes(self, canonical: bytes, signature: Signature) -> bool:
        """Verify against an already-canonicalized payload."""
        pads = self._pads.get(signature.signer)
        if pads is None:
            return False
        self.verifies += 1
        return hmac.compare_digest(hmac_tag(pads, canonical), signature.tag)

    def verify_statement(self, stmt) -> bool:
        """Verify an :class:`AuthenticatedStatement` through the memo.

        The memo key is ``(signer, tag, canonical bytes)`` — exactly
        what the HMAC check reads, with no digest standing in for the
        bytes — and only *valid* results are stored, so a forged
        signature is recomputed (and rejected) on every call and can
        never be served as valid from the cache. The statement already
        holds its canonical bytes, and bytes cache their own hash, so
        building the key hashes nothing new.
        """
        memo = self.verify_memo
        sig = stmt.signature
        canonical = stmt.canonical()
        key = (sig.signer, sig.tag, canonical)
        if memo.hit(key):
            return True
        ok = self.verify_bytes(canonical, sig)
        if ok:
            memo.add_valid(key)
        return ok

    def forge(self, claimed_signer: str, payload: Any) -> Signature:
        """An *invalid* signature claiming to be from ``claimed_signer``.

        Used only by fault injectors to model fabricated evidence; verify()
        rejects it.
        """
        bogus = hashlib.sha256(
            b"forged:" + canonical_bytes(payload)
        ).hexdigest()
        return Signature(claimed_signer, bogus)
