"""The signature verify memo.

The simulation hot path avoids redundant per-receiver crypto work the way
real BFT implementations do — PBFT batches authenticators and Zyzzyva's
speculative path exists for the same reason: :class:`VerifyMemo` is a
positive-only memo of signature verification results keyed by
``(signer, tag, canonical bytes)``, consulted by
:meth:`~repro.crypto.signatures.KeyDirectory.verify_statement` so a
statement broadcast to N correct receivers pays the HMAC once. Forged or
otherwise invalid results are **never cached**: a miss always recomputes,
so a forgery can never be laundered into validity by a cache hit.

Determinism: the memo stores only results that are pure functions of its
key; eviction (when the memo holds ``MEMO_ENTRIES``) drops the oldest
half in insertion order — no wall clock, no randomness.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Tuple

#: Memo key: (claimed signer, signature tag, canonical payload bytes).
#: The bytes are the statement's cached serialization, and bytes cache
#: their own hash, so building and looking up the key costs nothing
#: beyond the tuple itself; the key is exactly what the HMAC reads.
MemoKey = Tuple[str, str, bytes]

#: Memo capacity. A run's working set is one entry per distinct
#: (statement, signer) pair in flight; 64k entries comfortably covers the
#: benchmark sweeps while bounding memory under evidence-flooding attacks.
MEMO_ENTRIES = 1 << 16


class VerifyMemo:
    """Positive-only memo of HMAC verification results.

    Only *successful* verifications are stored — a forged signature is
    re-verified (and re-rejected) every time it is seen, so no bug in
    eviction or key construction can ever turn an invalid record valid.
    Negative results are deliberately not cached either: under an
    evidence-flooding attack each bogus record is unique, so negative
    entries would only grow the memo without ever hitting (the runtime's
    per-sender quota already bounds how many forgeries a node verifies).

    Eviction is deterministic: when full, the oldest half of the entries
    (dict insertion order) is dropped. Two identical runs therefore make
    identical memo decisions at every step.
    """

    __slots__ = ("hits", "misses", "evictions", "_valid")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._valid: Dict[MemoKey, bool] = {}

    def hit(self, key: MemoKey) -> bool:
        """True iff ``key`` is a known-valid signature. Counts the lookup."""
        if key in self._valid:
            self.hits += 1
            return True
        self.misses += 1
        return False

    def add_valid(self, key: MemoKey) -> None:
        """Record a *successful* verification (the only kind stored)."""
        if len(self._valid) >= MEMO_ENTRIES:
            drop = len(self._valid) // 2
            for stale in list(islice(self._valid, drop)):
                del self._valid[stale]
            self.evictions += drop
        self._valid[key] = True

    def clear(self) -> None:
        """Forget everything (called at the start of each run so runs
        stay independent — a memo warmed by run A must not change what
        run B pays for, even though the verdicts would be identical)."""
        self._valid.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._valid)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._valid),
            "hit_rate": round(self.hit_rate(), 4),
        }
