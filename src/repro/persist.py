"""Persisted artifacts: written whole or not at all, read through one
checked reader.

Every JSON file the program leaves on disk — strategy cache entries and
exported strategies, observability reports, check / fuzz / bounds
reports, counterexamples and corpus entries — goes through
:func:`write_atomic`, so a reader (a concurrent experiment shard, the
next ``repro trace``) sees the previous file or the new one, never a
torn one. The indented ones are written by :func:`json_text`.

Every artifact a ``repro`` verb reads goes through :func:`read_json`,
and every format's error derives from :class:`InputError`.
"""

from __future__ import annotations

import json
import os
from json.encoder import INFINITY, encode_basestring_ascii
from typing import Any, Callable, List, Type, TypeVar

T = TypeVar("T")


class InputError(ValueError):
    """Input the program cannot use: not the artifact its writer writes,
    or no deployment, script or run that can be built."""


def read_json(path: str, error: Type[InputError],
              decode: Callable[[Any], T]) -> T:
    """``decode`` (a format's checks) of the UTF-8 JSON document in the
    file at ``path``. Bytes that are not UTF-8 text or not JSON, a
    document nested deeper than the decoder recurses, or an
    :class:`InputError` from ``decode``, raise ``error`` naming
    ``path``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        document = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:  # before ValueError, its base
        raise error(f"{path}: not UTF-8 text ({exc})") from None
    except RecursionError:
        raise error(f"{path}: nested deeper than the decoder "
                    f"allows") from None
    except ValueError as exc:
        raise error(f"{path}: not valid JSON ({exc}) — was the file "
                    f"truncated mid-write?") from None
    try:
        return decode(document)
    except InputError as exc:
        raise error(f"{path}: {exc}") from None


def json_text(value: object) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, character for
    character, for the values that call accepts without a ``default``.

    The standard encoder's indented path builds closures that refer to
    each other, so every call leaves a reference cycle for the cyclic
    collector; this encoder is one plain recursive function and leaves
    nothing behind. Strings go through the standard library's own
    ASCII escaper."""
    out: List[str] = []
    _encode(value, out, "\n")
    return "".join(out)


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == INFINITY:
        return "Infinity"
    if value == -INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _key(key: object) -> str:
    """An object key as ``json`` converts it before escaping."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _encode(value: object, out: List[str], newline: str) -> None:
    """Append ``value``'s text to ``out``; ``newline`` is the line break
    plus the indent of the line ``value`` starts on."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _encode(item, out, inner)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            out.append(separator)
            out.append(encode_basestring_ascii(_key(key)))
            out.append(": ")
            _encode(item, out, inner)
            separator = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} "
                        f"is not JSON serializable")


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file beside it and
    ``os.replace``. A write or rename that fails takes its temp file
    with it, leaves whatever ``path`` held untouched, and re-raises; an
    operating-system error is re-raised naming ``path`` alone, not the
    temp file the caller never asked for."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise
