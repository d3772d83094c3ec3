"""Unit tests for local clocks, time helpers, and traces."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import (
    FaultInjected,
    LocalClock,
    OutputProduced,
    S,
    Trace,
    ms,
    seconds,
    to_seconds,
    us,
)


def test_perfect_clock_tracks_true_time():
    clock = LocalClock()
    assert clock.read(0) == 0
    assert clock.read(12345) == 12345


def test_offset_shifts_reading():
    clock = LocalClock(offset=100)
    assert clock.read(0) == 100
    assert clock.error(500) == 100


def test_drift_accumulates():
    clock = LocalClock(drift_ppm=100.0)  # 100 µs per second fast
    assert clock.read(1 * S) == 1 * S + 100
    assert clock.error(10 * S) == 1000


def test_negative_drift_runs_slow():
    clock = LocalClock(drift_ppm=-50.0)
    assert clock.error(1 * S) == -50


def test_synchronize_to_reference():
    clock = LocalClock(drift_ppm=200.0, offset=999)
    clock.synchronize_to(true_time=5 * S, reference=5 * S)
    assert clock.error(5 * S) == 0
    # Drift resumes from the new anchor.
    assert clock.error(6 * S) == 200


@given(st.floats(min_value=-500, max_value=500),
       st.integers(min_value=0, max_value=10 * S))
def test_property_drift_error_bounded_by_ppm(drift_ppm, t):
    clock = LocalClock(drift_ppm=drift_ppm)
    bound = abs(drift_ppm) * 1e-6 * t + 1
    assert abs(clock.error(t)) <= bound


# --------------------------------------------------------------- time units


def test_time_conversions():
    assert seconds(5) == 5_000_000
    assert ms(1.5) == 1500
    assert us(2.4) == 2
    assert to_seconds(2_500_000) == pytest.approx(2.5)


# -------------------------------------------------------------------- trace


def test_trace_records_and_filters_by_kind():
    trace = Trace()
    trace.record(FaultInjected(time=10, node="a", fault_kind="crash"))
    trace.record(OutputProduced(time=20, sink="s", flow="f", period_index=0,
                                value=1, deadline=25, criticality="A"))
    assert len(trace) == 2
    assert [e.node for e in trace.of_kind(FaultInjected)] == ["a"]
    assert len(trace.outputs()) == 1


def test_trace_rejects_out_of_order():
    trace = Trace()
    trace.record(FaultInjected(time=10, node="a", fault_kind="crash"))
    with pytest.raises(ValueError):
        trace.record(FaultInjected(time=5, node="b", fault_kind="crash"))


def test_trace_last():
    trace = Trace()
    assert trace.last(FaultInjected) is None
    trace.record(FaultInjected(time=10, node="a", fault_kind="crash"))
    trace.record(FaultInjected(time=20, node="b", fault_kind="omission"))
    assert trace.last(FaultInjected).node == "b"
