"""E8 — Inertia: why a bounded outage is physically survivable.

Paper claim (§1): "Because of inertia, a short malfunction will not be
enough to push the airplane out of this envelope and can thus be tolerated,
as long as the system returns to correct operation quickly enough." And §2:
"the physical part of the system has properties like inertia or thermal
capacity".

Figure series: for each plant, sweep the outage length and record whether
the safety envelope holds — the threshold R* is the physical quantity BTR's
R must stay under. Then close the loop: a BTR deployment whose measured
recovery is below R* keeps the plant safe through a real fault.
"""

import pytest

from harness import FAULT_AT, one_shot, prepared_btr, write_result
from repro.analysis import (
    CORRECT_CMD,
    HOSTILE_CMD,
    InvertedPendulum,
    PitchAxis,
    WaterTank,
    classify_slots,
    commands_from_slots,
    format_table,
    smallest_sufficient_R,
)
from repro.faults import single_fault
from repro.sim import to_seconds

DT = 0.02  # 20 ms control period
PLANTS = {
    "inverted_pendulum": InvertedPendulum,
    "pitch_axis": PitchAxis,
    "water_tank": WaterTank,
}


def survives(plant_cls, outage: int) -> bool:
    plant = plant_cls()
    commands = ([CORRECT_CMD] * 50 + [HOSTILE_CMD] * outage
                + [CORRECT_CMD] * 50)
    return plant.run_sequence(DT, commands)


def run_sweep():
    thresholds = {}
    series = {}
    for name, cls in PLANTS.items():
        r_star = cls().max_tolerable_outage(DT)
        thresholds[name] = r_star
        points = []
        for outage in sorted({1, r_star // 2, r_star, r_star + 1,
                              2 * r_star}):
            points.append((outage, survives(cls, outage)))
        series[name] = points
    return thresholds, series


def test_e8_outage_sweep(benchmark):
    thresholds, series = one_shot(benchmark, run_sweep)
    rows = []
    for name in PLANTS:
        r_star = thresholds[name]
        for outage, safe in series[name]:
            rows.append([
                name, outage, f"{outage * DT:.2f}s",
                "safe" if safe else "ENVELOPE VIOLATED",
            ])
        rows.append([name, f"R* = {r_star}", f"{r_star * DT:.2f}s",
                     "<- tolerance threshold"])
    write_result("e8_plant_inertia", format_table(
        "E8: hostile-control outage sweep per plant (dt = 20 ms)",
        ["plant", "outage (periods)", "outage (s)", "outcome"],
        rows,
    ))
    for name, cls in PLANTS.items():
        r_star = thresholds[name]
        assert r_star >= 1, f"{name} has no inertia at all?"
        assert survives(cls, r_star)
        assert not survives(cls, r_star + 1)
    # Thermal capacity beats unstable dynamics, beats lightly-damped
    # airframes: the ordering the paper's examples imply.
    assert (thresholds["water_tank"] > thresholds["pitch_axis"]
            > thresholds["inverted_pendulum"])


def test_e8_btr_recovery_stays_inside_plant_tolerance(benchmark):
    def run():
        system = prepared_btr(seed=8)
        result = system.run(
            40, single_fault(system, "commission", at=FAULT_AT).script)
        recovery_us = smallest_sufficient_R(result)
        slots = sorted(
            (s for s in classify_slots(result)
             if s.flow == "valve_cmd"),
            key=lambda s: s.period_index,
        )
        commands = commands_from_slots([s.status for s in slots])
        dt = result.workload.period / 1e6
        tank_safe = WaterTank().run_sequence(dt, commands)
        r_star_us = int(WaterTank().max_tolerable_outage(dt) * dt * 1e6)
        return recovery_us, r_star_us, tank_safe

    recovery_us, r_star_us, tank_safe = one_shot(benchmark, run)
    write_result("e8_closed_loop", (
        f"\nE8b: measured BTR recovery {to_seconds(recovery_us):.3f}s vs "
        f"plant tolerance R* = {to_seconds(r_star_us):.1f}s -> "
        f"plant safe: {tank_safe}\n"
    ))
    assert recovery_us < r_star_us
    assert tank_safe
