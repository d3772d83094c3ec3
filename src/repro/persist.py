"""Writing a persisted artifact: whole or not at all.

Every JSON file the program leaves on disk — strategy cache entries and
exported strategies, observability reports, check / fuzz / bounds
reports, counterexamples and corpus entries — goes through :func:`write_atomic`, so a reader (a
concurrent experiment shard, the next ``repro trace``) sees the previous
file or the new one, never a torn one.
"""

from __future__ import annotations

import os


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file beside it and
    ``os.replace``. A write or rename that fails takes its temp file
    with it, leaves whatever ``path`` held untouched, and re-raises."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
