"""Simulated cryptography: signatures, authenticated statements, costs."""

from .authenticator import AuthenticatedStatement, digest
from .costs import VERIFY_US
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
    "VERIFY_US",
    "KeyDirectory",
    "Signature",
    "SignatureError",
    "VerifyMemo",
    "canonical_bytes",
]
