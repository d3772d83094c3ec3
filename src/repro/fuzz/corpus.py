"""The corpus: found counterexamples as permanent regression benchmarks.

Every artifact a search confirms — ``fuzz campaign``'s or ``check``'s,
through ``--corpus-dir`` — gets written into a ``corpus/`` directory,
named by its source and a content hash of its replay-relevant fields, so a
corpus is append-only and merge-friendly: re-finding a known script is
a no-op, two campaigns never collide on a name, and renames cannot
detach an entry from its content. ``check_corpus`` is the regression
gate CI runs — every checked-in entry must still reproduce its recorded
verdict (and its replay digest, when recorded) through the normal
``BTRSystem.run`` path.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Tuple

from ..deployment import Deployment
from ..mc.counterexample import (
    CounterexampleError,
    read_counterexample,
    replay_counterexample,
)
from ..mc.explorer import state_fingerprint
from ..persist import InputError, json_text, write_atomic

#: Artifact fields that determine what a replay executes (meta and the
#: recorded verdicts are excluded: they describe, they don't replay —
#: except the deployment the meta pins, hashed separately).
_IDENTITY_KEYS = ("fault_script", "deliveries", "n_periods", "R_us", "k",
                  "seed")


def artifact_name(artifact: dict) -> str:
    """Content-derived corpus file name for one artifact, prefixed by
    the search that found it (``meta["source"]``; mc's artifacts carry
    none)."""
    identity = {key: artifact.get(key) for key in _IDENTITY_KEYS}
    # The deployment as its meta names it. The meta seed is left out,
    # and ``stretch`` is in only when it is not 1, so names given before
    # either was hashed stay valid.
    meta = artifact.get("meta") or {}
    identity["deployment"] = {key: meta.get(key)
                              for key in Deployment().to_meta()
                              if key != "seed"}
    if meta.get("stretch", 1) != 1:
        identity["deployment"]["stretch"] = meta["stretch"]
    digest = hashlib.sha256(
        json.dumps(identity, sort_keys=True,
                   separators=(",", ":")).encode()).hexdigest()
    return f"{meta.get('source', 'mc')}-{digest[:12]}.json"


def write_corpus(dirpath: str, artifacts: List[dict]) -> List[str]:
    """Write artifacts into the corpus; returns the paths written.

    Writing is idempotent: an entry that already exists under its
    content name is rewritten with identical bytes.
    """
    os.makedirs(dirpath, exist_ok=True)
    paths = []
    for artifact in artifacts:
        path = os.path.join(dirpath, artifact_name(artifact))
        write_atomic(path, json_text(artifact) + "\n")
        paths.append(path)
    return paths


def load_corpus(dirpath: str) -> List[Tuple[str, dict]]:
    """All corpus entries as (name, payload), sorted by name. A malformed
    one fails the gate loudly: ``CounterexampleError`` naming its file.
    """
    return [(name, read_counterexample(os.path.join(dirpath, name)))
            for name in sorted(os.listdir(dirpath))
            if name.endswith(".json")]


def check_corpus(dirpath: str, base: Optional[Deployment] = None,
                 entries: Optional[List[Tuple[str, dict]]] = None) -> dict:
    """Replay every corpus entry; the CI regression gate.

    Each entry replays on the :class:`~repro.deployment.Deployment` its
    ``meta`` pins (keys it lacks come from ``base``), prepared once per
    distinct deployment. Each entry passes iff its replay still produces
    every recorded invariant verdict, and — when the artifact recorded a
    ``replay_digest`` — the replayed path's primitives-only fingerprint
    matches byte-for-byte.
    An entry whose script cannot run on its deployment raises
    ``CounterexampleError`` naming the entry's file.
    """
    if entries is None:
        entries = load_corpus(dirpath)
    systems: Dict[Deployment, object] = {}
    results = []
    for name, payload in entries:
        deployment = Deployment.from_meta(payload.get("meta"), base)
        system = systems.get(deployment)
        if system is None:
            system = systems[deployment] = deployment.system()
            system.prepare()
        try:
            violations, result = replay_counterexample(system, payload)
        except InputError as exc:  # a script naming a node not deployed
            raise CounterexampleError(
                f"{os.path.join(dirpath, name)}: {exc}") from None
        recorded = sorted({v["invariant"]
                           for v in payload.get("violations", [])})
        observed = sorted({v.invariant for v in violations})
        verdict_ok = bool(violations) and set(recorded) <= set(observed)
        digest = state_fingerprint(result)
        expected = payload.get("replay_digest")
        digest_ok = expected is None or digest == expected
        results.append({
            "name": name,
            "confirmed": verdict_ok,
            "digest_match": digest_ok,
            "recorded": recorded,
            "observed": observed,
            "digest": digest,
        })
    return {
        "entries": results,
        "checked": len(results),
        "failed": sum(1 for r in results
                      if not (r["confirmed"] and r["digest_match"])),
        "ok": all(r["confirmed"] and r["digest_match"]
                  for r in results),
    }
