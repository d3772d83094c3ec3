"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import NEVER, SimulationError, Simulator


def drain(sim):
    """Fire every pending event, leaving the clock at the last one."""
    while sim.pending_events():
        sim.run_until(sim.peek_next_time())


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.call_at(30, lambda: order.append("c"))
    sim.call_at(10, lambda: order.append("a"))
    sim.call_at(20, lambda: order.append("b"))
    drain(sim)
    assert order == ["a", "b", "c"]


def test_ties_break_in_insertion_order():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.call_at(100, lambda label=label: order.append(label))
    drain(sim)
    assert order == list("abcde")


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.call_at(42, lambda: seen.append(sim.now))
    drain(sim)
    assert seen == [42]
    assert sim.now == 42


def test_call_after_is_relative():
    sim = Simulator()
    times = []
    sim.call_at(100, lambda: sim.call_after(50, lambda: times.append(sim.now)))
    drain(sim)
    assert times == [150]


def test_run_until_stops_at_boundary_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.call_at(10, lambda: fired.append(10))
    sim.call_at(100, lambda: fired.append(100))
    sim.run_until(50)
    assert fired == [10]
    assert sim.now == 50
    sim.run_until(200)
    assert fired == [10, 100]


def test_event_at_run_until_boundary_fires():
    sim = Simulator()
    fired = []
    sim.call_at(50, lambda: fired.append(50))
    sim.run_until(50)
    assert fired == [50]


def test_scheduling_in_past_raises():
    sim = Simulator()
    sim.call_at(10, lambda: None)
    drain(sim)
    with pytest.raises(SimulationError):
        sim.call_at(5, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_after(-1, lambda: None)


def test_peek_next_time_empty_is_never():
    sim = Simulator()
    assert sim.peek_next_time() == NEVER


def test_pending_events_counts_live_events():
    sim = Simulator()
    sim.call_at(10, lambda: None)
    sim.schedule(20, lambda: None)
    assert sim.pending_events() == 2
    sim.run_until(10)
    assert sim.pending_events() == 1
    assert sim.peek_next_time() == 20


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.call_after(5, lambda: order.append("second"))

    sim.call_at(10, first)
    drain(sim)
    assert order == ["first", "second"]
    assert sim.now == 15


def test_events_executed_counter():
    sim = Simulator()
    for t in (1, 2, 3):
        sim.call_at(t, lambda: None)
    drain(sim)
    assert sim.events_executed == 3


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50))
def test_property_events_always_fire_in_nondecreasing_time(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.call_at(t, lambda t=t: fired.append(sim.now))
    drain(sim)
    assert fired == sorted(times)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_property_same_seed_same_rng_stream(seed):
    a = Simulator(seed=seed)
    b = Simulator(seed=seed)
    assert [a.rng.random() for _ in range(5)] == [b.rng.random() for _ in range(5)]


def test_rng_fork_is_order_independent():
    a = Simulator(seed=7)
    b = Simulator(seed=7)
    # Consume some of b's parent stream first; forks must still agree.
    b.rng.random()
    fork_a = a.rng.fork("faults")
    fork_b = b.rng.fork("faults")
    assert [fork_a.random() for _ in range(3)] == [fork_b.random() for _ in range(3)]


def test_rng_forks_with_different_labels_differ():
    sim = Simulator(seed=7)
    x = sim.rng.fork("x").random()
    y = sim.rng.fork("y").random()
    assert x != y


# ------------------------------------------------------ tuple heap / guards


def test_run_is_reentrancy_guarded():
    """The one event loop, ``run_until``, refuses a run to the end of
    time from inside an event, and the guard releases after the drain."""
    sim = Simulator()
    seen = []

    def reenter():
        with pytest.raises(SimulationError, match="re-entrantly"):
            sim.run_until(NEVER)
        seen.append(sim.now)

    sim.call_at(5, reenter)
    drain(sim)
    assert seen == [5]
    # The guard releases: a fresh drain afterwards works.
    sim.call_at(10, lambda: seen.append(sim.now))
    drain(sim)
    assert seen == [5, 10]


def test_run_until_is_reentrancy_guarded_with_fast_heap():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError, match="re-entrantly"):
            sim.run_until(100)

    sim.call_at(1, reenter)
    sim.run_until(50)
    assert sim.now == 50


def test_removed_legacy_heap_mode_is_named():
    """``fast_heap`` survives as a keyword (older callers pass ``True``);
    asking for the removed object-ordered mode fails loudly."""
    Simulator(fast_heap=True)
    with pytest.raises(SimulationError, match="legacy heap mode"):
        Simulator(fast_heap=False)


def test_schedule_and_call_at_share_seq_order():
    """schedule() (handle-free fast-path entries) shares the sequence
    counter with call_at, so ties at one timestamp fire in submission
    order regardless of which API queued them."""
    sim = Simulator()
    fired = []
    sim.call_at(7, lambda: fired.append("a"))
    sim.schedule(7, lambda: fired.append("b"))
    sim.call_at(7, lambda: fired.append("c"))
    sim.schedule(5, lambda: fired.append("early"))
    assert sim.pending_events() == 4
    drain(sim)
    assert fired == ["early", "a", "b", "c"]
    assert sim.events_executed == 4


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("call_at"), st.integers(0, 500)),
        st.tuples(st.just("call_after"), st.integers(0, 100)),
        st.tuples(st.just("schedule"), st.integers(0, 500)),
        st.tuples(st.just("next"), st.just(0)),
        st.tuples(st.just("run_until"), st.integers(0, 600)),
        st.tuples(st.just("observe"), st.just(0)),
    ),
    min_size=1, max_size=80,
)


class _Oracle:
    """Independent model of the engine: a list, stably sorted by time
    (ties keep insertion order), fired entries skipped."""

    def __init__(self):
        self.now, self.executed, self.entries = 0, 0, []

    def add(self, time, tag):
        self.entries.append({"time": time, "tag": tag, "live": True})
        return self.entries[-1]

    def live(self):
        return sorted((e for e in self.entries if e["live"]),
                      key=lambda e: e["time"])

    def fire(self, log, until):
        """Every live entry up to ``until``."""
        for entry in self.live():
            if entry["time"] > until:
                break
            entry["live"] = False
            self.now = entry["time"]
            self.executed += 1
            log.append((entry["tag"], entry["time"]))

    def observe(self):
        live = self.live()
        return (self.now, live[0]["time"] if live else NEVER, len(live),
                self.executed)


@given(_OPS)
def test_property_op_programs_match_sort_oracle(ops):
    """Random op programs leave the engine in the state an independent
    model predicts: same fire log, same ``peek_next_time`` and
    ``pending_events`` after every operation, same clock and executed
    count."""
    sim, model = Simulator(seed=11), _Oracle()
    log, expected = [], []

    def add(api, time, tag):
        api(time, lambda: log.append((tag, sim.now)))
        model.add(time, tag)

    for op, arg in ops:
        if op == "call_at":
            add(sim.call_at, max(arg, sim.now), "fire")
        elif op == "call_after":
            sim.call_after(arg, lambda: log.append(("after", sim.now)))
            model.add(model.now + arg, "after")
        elif op == "schedule":
            add(sim.schedule, max(arg, sim.now), "sched")
        elif op == "next" and sim.pending_events():
            until = sim.peek_next_time()
            sim.run_until(until)
            model.fire(expected, until=until)
        elif op == "run_until" and arg >= sim.now:
            sim.run_until(arg)
            model.fire(expected, until=arg)
            model.now = arg
        assert (sim.now, sim.peek_next_time(), sim.pending_events(),
                sim.events_executed) == model.observe()
    drain(sim)
    model.fire(expected, until=NEVER)
    assert log == expected
    assert (sim.now, sim.peek_next_time(), sim.pending_events(),
            sim.events_executed) == model.observe()
