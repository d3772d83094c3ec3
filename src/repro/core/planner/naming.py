"""Naming scheme for augmented task instances and flow copies.

The planner rewrites the user's dataflow graph into an *augmented* graph
whose vertices are task **instances**: replicas (``t#r0``, ``t#r1``, …) and
one checker (``t#c``) per original task. Flow copies are suffixed the same
way (``f@r1``, ``f@c``, ``f@out``). All naming/parsing lives here so the
convention exists in exactly one place.
"""

from __future__ import annotations

from typing import Optional

REPLICA_SEP = "#r"
CHECKER_SUFFIX = "#c"
FLOW_SEP = "@"


def replica_name(task: str, index: int) -> str:
    return f"{task}{REPLICA_SEP}{index}"


def checker_name(task: str) -> str:
    return f"{task}{CHECKER_SUFFIX}"


def flow_copy_name(flow: str, suffix: str) -> str:
    return f"{flow}{FLOW_SEP}{suffix}"


def replica_output_flow(task: str, index: int) -> str:
    """Name of the flow carrying replica ``index``'s output to the
    checker of ``task``."""
    return f"{task}!r{index}"


def is_replica_output_flow(flow: str) -> bool:
    return "!r" in flow


def replica_output_parts(flow: str) -> tuple[str, int]:
    """(base task, replica index) for a replica-output flow name."""
    task, _, suffix = flow.rpartition("!r")
    return task, int(suffix)


def base_task(instance: str) -> str:
    """Original task name of a replica/checker instance (identity for
    plain names)."""
    if instance.endswith(CHECKER_SUFFIX):
        return instance[: -len(CHECKER_SUFFIX)]
    sep = instance.rfind(REPLICA_SEP)
    if sep != -1 and instance[sep + len(REPLICA_SEP):].isdigit():
        return instance[:sep]
    return instance


def base_flow(flow_copy: str) -> str:
    """Original flow name of a flow copy (identity for plain names)."""
    sep = flow_copy.rfind(FLOW_SEP)
    return flow_copy[:sep] if sep != -1 else flow_copy


def is_checker(instance: str) -> bool:
    return instance.endswith(CHECKER_SUFFIX)


def replica_index(instance: str) -> Optional[int]:
    sep = instance.rfind(REPLICA_SEP)
    if sep == -1:
        return None
    suffix = instance[sep + len(REPLICA_SEP):]
    return int(suffix) if suffix.isdigit() else None
