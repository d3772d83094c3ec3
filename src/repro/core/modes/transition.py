"""Mode transitions: what actually changes between two plans (§4.4).

A transition "can involve starting new tasks or terminating existing ones,
sending or receiving the state of migrating tasks, and adjusting the local
schedule". This module computes the per-node work of a transition:

* which instances a node must stop;
* which instances it must start, and where each new instance's state comes
  from: the old plan's host of the *same* instance if it is still correct,
  else the surviving host of a *sibling replica* (replicas carry the same
  state), else nowhere (the state must be rebuilt locally).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..planner import naming
from ..planner.plan import Plan


@dataclass(frozen=True)
class StateFetch:
    """One state acquisition a node must perform before starting a task."""

    instance: str
    bits: int
    #: Node to fetch from; None means rebuild locally.
    source: Optional[str]


@dataclass
class NodeTransition:
    """The work one node performs when switching plans."""

    node: str
    stop: List[str] = field(default_factory=list)
    start: List[str] = field(default_factory=list)
    fetches: List[StateFetch] = field(default_factory=list)


def state_source(instance: str, old_plan: Plan, faulty: Set[str]
                 ) -> Optional[str]:
    """Where a migrating/new ``instance`` should fetch its state.

    Preference order: the instance's old host, then the old host of any
    sibling replica of the same base task (replicas hold identical state),
    checkers never need state. Hosts in ``faulty`` are skipped.
    """
    old_host = old_plan.assignment.get(instance)
    if old_host is not None and old_host not in faulty:
        return old_host
    for sibling, host in old_plan.replica_hosts(naming.base_task(instance)):
        if sibling != instance and host not in faulty:
            return host
    return None


def compute_transition(node: str, old_plan: Plan, new_plan: Plan,
                       faulty: Set[str]) -> NodeTransition:
    """The work ``node`` must do to move from ``old_plan`` to
    ``new_plan``."""
    old_mine = set(old_plan.instances_on(node))
    new_mine = set(new_plan.instances_on(node))
    transition = NodeTransition(node=node)
    transition.stop = sorted(old_mine - new_mine)
    transition.start = sorted(new_mine - old_mine)
    for instance in transition.start:
        task = new_plan.augmented.tasks[instance]
        if task.state_bits <= 0:
            continue
        source = state_source(instance, old_plan, faulty)
        if source == node:
            continue  # state already local (was hosted here before)
        transition.fetches.append(StateFetch(
            instance=instance, bits=task.state_bits, source=source,
        ))
    return transition
