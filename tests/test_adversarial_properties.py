"""Adversarial property battery: random fault scripts, one invariant.

For *any* adversary within the fault budget (k ≤ f nodes, any mix of fault
kinds, any timing), a prepared BTR deployment must:

* satisfy Definition 3.1 at its promised bound, and
* never implicate a correct node.

These are the two promises everything else rests on; hypothesis drives the
adversary.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import BTRConfig, BTRSystem
from repro.analysis import btr_verdict
from repro.faults import BEHAVIORS, random_faults
from repro.net import full_mesh_topology
from repro.workload import industrial_workload

N_PERIODS = 28
#: Every registered kind: a new one joins the battery by construction.
KINDS = tuple(BEHAVIORS)

_SYSTEMS = {}


def prepared(f: int) -> BTRSystem:
    """Strategy construction is deterministic; share it across examples."""
    if f not in _SYSTEMS:
        system = BTRSystem(
            industrial_workload(),
            full_mesh_topology(7 + f, bandwidth=1e8),
            BTRConfig(f=f, seed=99),
        )
        system.prepare()
        _SYSTEMS[f] = system
    return _SYSTEMS[f]


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    f=st.integers(min_value=1, max_value=2),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3,
                   unique=True),
)
def test_property_btr_holds_under_any_in_budget_adversary(seed, f, kinds):
    system = prepared(f)
    # Vary the adversary, not the deployment: seed only the script.
    from repro.sim import DeterministicRandom
    script = random_faults(
        system, min(f, len(system.compromisable_nodes())),
        DeterministicRandom(seed),
        horizon=(N_PERIODS - 10) * system.workload.period,
        kinds=kinds,
        min_time=2 * system.workload.period,
    ).script
    result = system.run(N_PERIODS, script)

    faulty = set(result.fault_times())
    # 1. No correct node is ever implicated.
    for node, fault_set in result.final_fault_sets.items():
        if node in faulty:
            continue
        assert fault_set <= faulty, (
            f"seed={seed} kinds={kinds}: correct node(s) "
            f"{sorted(fault_set - faulty)} implicated by {node}"
        )
    # 2. Definition 3.1 holds at the promised bound.
    verdict = btr_verdict(result, R_us=system.budget.total_us)
    assert verdict.holds, (
        f"seed={seed} kinds={kinds}: violations "
        f"{[(v.flow, v.period_index, v.status) for v in verdict.violations[:5]]}"
    )
