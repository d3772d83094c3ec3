"""Hash digests and authenticated message records.

Evidence records carry *signed statements* — e.g. "node X sent value v for
flow f in period k at local time t". An :class:`AuthenticatedStatement`
bundles the statement payload with its signature and knows its wire size, so
the evidence distributor can account for bandwidth precisely.

Statements are immutable, so the canonical byte string and its digest are
computed at most once per statement lifetime and cached on the instance;
``sign``, ``verify``, dedup keys, and ``wire_bits`` all reuse the same
bytes instead of re-running ``json.dumps`` per call site.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Optional

from .signatures import KeyDirectory, Signature, canonical_bytes


def digest(payload: Any) -> str:
    """A short deterministic content digest (used for dedup and receipts)."""
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()[:16]


@dataclass(frozen=True, slots=True, init=False)
class AuthenticatedStatement:
    """A statement plus the signature of the node that made it.

    The payload dict is treated as frozen after construction (nothing in
    the runtime mutates a signed statement — doing so would invalidate
    the signature anyway), which is what makes the canonical-bytes and
    digest caches sound. The caches take no part in equality, hash or
    repr; like :class:`Signature`, ``__init__`` stores through the slot
    descriptors.
    """

    statement: dict
    signature: Signature
    _canonical: Optional[bytes] = field(default=None, compare=False,
                                        repr=False)
    _digest: Optional[str] = field(default=None, compare=False, repr=False)

    def __init__(self, statement: dict, signature: Signature,
                 canonical: Optional[bytes] = None) -> None:
        """``canonical``, when given, is ``canonical_bytes(statement)``."""
        _set_statement(self, statement)
        _set_signature(self, signature)
        _set_canonical(self, canonical)
        _set_digest(self, None)

    @classmethod
    def make(cls, directory: KeyDirectory, signer: str, statement: dict,
             canonical: Optional[bytes] = None) -> "AuthenticatedStatement":
        """Sign ``statement``. ``canonical`` is its
        :func:`canonical_bytes` when the caller already holds them (the
        runtime's compiled statement templates do)."""
        if canonical is None:
            canonical = canonical_bytes(statement)
        return cls(statement, directory.sign_bytes(signer, canonical),
                   canonical)

    def canonical(self) -> bytes:
        """The canonical serialization, computed at most once."""
        cached = self._canonical
        if cached is None:
            cached = canonical_bytes(self.statement)
            _set_canonical(self, cached)
        return cached

    def payload_digest(self) -> str:
        """``digest(self.statement)``, computed at most once. Evidence
        ids and declaration dedup read it; signature checks do not."""
        cached = self._digest
        if cached is None:
            cached = hashlib.sha256(self.canonical()).hexdigest()[:16]
            _set_digest(self, cached)
        return cached

    def valid(self, directory: KeyDirectory) -> bool:
        return directory.verify_statement(self)

    @property
    def signer(self) -> str:
        return self.signature.signer

    def wire_bits(self) -> int:
        """Approximate wire size: canonical payload + signature."""
        return len(self.canonical()) * 8 + Signature.WIRE_BITS


_set_statement = AuthenticatedStatement.statement.__set__
_set_signature = AuthenticatedStatement.signature.__set__
_set_canonical = AuthenticatedStatement._canonical.__set__
_set_digest = AuthenticatedStatement._digest.__set__
