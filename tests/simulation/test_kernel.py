"""Kernel semantics: time, ordering, events, processes."""

import pytest

from repro.simulation import (Event, Interrupt, SimulationError, Simulator)


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_time():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(1.5)
        fired.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert fired == [1.5]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.call_at(1.0, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-0.1)


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        value = yield ev
        got.append(value)

    sim.spawn(waiter())
    sim.call_at(2.0, lambda: ev.succeed("payload"))
    sim.run()
    assert got == ["payload"]


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(waiter())
    sim.call_at(1.0, lambda: ev.fail(ValueError("boom")))
    sim.run()
    assert caught == ["boom"]


def test_multiple_waiters_all_wake():
    sim = Simulator()
    ev = sim.event()
    woke = []

    def waiter(i):
        yield ev
        woke.append(i)

    for i in range(3):
        sim.spawn(waiter(i))
    sim.call_at(1.0, lambda: ev.succeed())
    sim.run()
    assert sorted(woke) == [0, 1, 2]


def test_callback_on_processed_event_runs_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("late")
    sim.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["late"]


def test_run_until_stops_at_time():
    sim = Simulator()
    fired = []

    def proc():
        while True:
            yield sim.timeout(1.0)
            fired.append(sim.now)

    sim.spawn(proc())
    end = sim.run(until=3.5)
    assert end == 3.5
    assert fired == [1.0, 2.0, 3.0]


def test_process_completion_is_waitable():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return "done"

    def parent():
        result = yield sim.spawn(child())
        assert result == "done"
        assert sim.now == 2.0

    p = sim.spawn(parent())
    sim.run()
    assert p.triggered


def test_any_of_fires_on_first():
    sim = Simulator()
    results = []

    def proc():
        first = yield sim.any_of([sim.timeout(5.0, "slow"),
                                  sim.timeout(1.0, "fast")])
        results.append((sim.now, first.value))

    sim.spawn(proc())
    sim.run()
    assert results == [(1.0, "fast")]


def test_all_of_waits_for_every_child():
    sim = Simulator()
    results = []

    def proc():
        yield sim.all_of([sim.timeout(5.0), sim.timeout(1.0)])
        results.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert results == [5.0]


def test_interrupt_wakes_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))

    proc = sim.spawn(sleeper())
    sim.call_at(3.0, lambda: proc.interrupt("stop"))
    sim.run()
    assert log == [("interrupted", 3.0, "stop")]


def test_interrupt_after_completion_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.spawn(quick())
    sim.run()
    proc.interrupt("late")
    sim.run()
    assert proc.triggered


def test_yielding_non_event_raises():
    # Bare ints/floats are valid (timeout shorthand); anything else is not.
    sim = Simulator()

    def bad():
        yield "not an event"

    sim.spawn(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_bare_delay_yield_is_timeout_shorthand():
    sim = Simulator()
    seen = []

    def proc():
        yield 1.5
        seen.append(sim.now)
        yield 2  # ints work too
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [1.5, 3.5]


def test_bare_delay_interrupt_cancels_cleanly():
    sim = Simulator()
    seen = []

    def sleeper():
        try:
            yield 10.0
            seen.append("overslept")
        except Interrupt:
            seen.append(("interrupted", sim.now))
        yield 1.0
        seen.append(("resumed", sim.now))

    proc = sim.spawn(sleeper())

    def waker():
        yield 2.0
        proc.interrupt("wake up")

    sim.spawn(waker())
    sim.run()
    assert seen == [("interrupted", 2.0), ("resumed", 3.0)]


def test_call_at_past_raises():
    sim = Simulator()
    sim.call_at(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_peek_returns_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.call_at(4.0, lambda: None)
    assert sim.peek() == 4.0


def test_determinism_same_program_same_trace():
    def run_once():
        sim = Simulator()
        trace = []

        def proc(name, gap):
            while sim.now < 10:
                yield sim.timeout(gap)
                trace.append((round(sim.now, 6), name))

        sim.spawn(proc("a", 0.7))
        sim.spawn(proc("b", 1.1))
        sim.run(until=10)
        return trace

    assert run_once() == run_once()


def test_done_singleton_resumes_synchronously():
    # Yielding the shared pre-succeeded `done` event must not queue
    # anything: the process continues inside the same dispatch.
    sim = Simulator()
    log = []

    def proc():
        yield 1.0
        heap_before = len(sim._heap)
        yield sim.done
        yield sim.done
        log.append((sim.now, heap_before, len(sim._heap), len(sim._ready)))

    sim.spawn(proc())
    sim.run()
    assert len(log) == 1
    now, before, after, lane = log[0]
    assert now == 1.0          # no simulated time passed
    assert after == before     # no heap entries scheduled
    assert lane == 0           # nor same-instant lane entries


def test_same_instant_entries_use_the_lane_not_the_heap():
    sim = Simulator()
    seen = []

    def proc():
        yield 1.0
        heap_before = len(sim._heap)
        sim.call_at(sim.now, lambda: seen.append("call_at"))
        sim.timeout(0).add_callback(lambda _ev: seen.append("timeout"))
        sim.event().succeed()
        seen.append((len(sim._heap) - heap_before, len(sim._ready)))
        yield 0
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [(0, 3), "call_at", "timeout", 1.0]


def test_peek_is_now_while_lane_holds_live_entry():
    sim = Simulator()
    sim.call_at(5.0, lambda: None)
    ev = sim.timeout(0.0)
    assert sim.peek() == 0.0
    ev._defunct = True  # lazily cancelled: peek skips it
    assert sim.peek() == 5.0
    assert sim.step() and sim.now == 5.0
    assert sim.events_processed == 1


def test_heap_entries_due_now_dispatch_before_lane_entries():
    # Entries pushed at an earlier time for `t` hold lower counters than
    # anything scheduled at `t` itself, so they run first.
    sim = Simulator()
    log = []

    def first():
        log.append("a")
        sim.call_at(sim.now, lambda: log.append("c"))

    sim.call_at(1.0, first)
    sim.call_at(1.0, lambda: log.append("b"))
    sim.run()
    assert log == ["a", "b", "c"]


def test_completed_event_preserves_tie_order():
    # completed() fires "now" but *after* anything already scheduled at the
    # current time with an earlier counter — same ordering as
    # sim.event().succeed().
    sim = Simulator()
    log = []

    def proc():
        sim.call_at(sim.now, lambda: log.append("earlier"))
        ev = sim.completed("value")
        got = yield ev
        log.append(("completed", got))

    sim.spawn(proc())
    sim.run()
    assert log == ["earlier", ("completed", "value")]


def test_schedule_entry_reuses_one_entry_across_fires():
    from repro.simulation.kernel import _Callback

    sim = Simulator()
    log = []
    entry = _Callback(lambda: log.append(sim.now))
    sim.schedule_entry(1.0, entry)
    sim.run()
    sim.schedule_entry(2.0, entry)  # same object, re-armed
    sim.run()
    assert log == [1.0, 2.0]


def test_schedule_entry_multiple_positions_dispatch_each():
    from repro.simulation.kernel import _Callback

    sim = Simulator()
    log = []
    entry = _Callback(lambda: log.append(sim.now))
    sim.schedule_entry(1.0, entry)
    sim.schedule_entry(2.0, entry)  # same object at two heap positions
    sim.run()
    assert log == [1.0, 2.0]


def test_schedule_entry_past_raises():
    from repro.simulation.kernel import _Callback

    sim = Simulator()

    def proc():
        yield 5.0
        with pytest.raises(SimulationError):
            sim.schedule_entry(1.0, _Callback(lambda: None))

    sim.spawn(proc())
    sim.run()
