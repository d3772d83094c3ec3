"""Simulated cryptography: signatures, authenticated statements, costs."""

from .authenticator import AuthenticatedStatement, digest
from .costs import DEFAULT_COSTS, CryptoCosts
from .memo import VerifyMemo
from .signatures import (
    KeyDirectory,
    Signature,
    SignatureError,
    canonical_bytes,
)

__all__ = [
    "AuthenticatedStatement",
    "digest",
    "DEFAULT_COSTS",
    "CryptoCosts",
    "KeyDirectory",
    "Signature",
    "SignatureError",
    "VerifyMemo",
    "canonical_bytes",
]
