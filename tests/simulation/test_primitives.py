"""Signal, EdgeWake, BoundedStore and Semaphore behaviour."""

import pytest

from repro.simulation import (BoundedStore, Semaphore, Signal,
                              SimulationError, Simulator)


class TestSignal:
    def test_fire_wakes_waiter(self):
        sim = Simulator()
        log = []
        signal = Signal(sim)

        def proc():
            yield signal.wait()
            log.append(sim.now)

        sim.spawn(proc())
        sim.call_at(2.0, signal.fire)
        sim.run()
        assert log == [2.0]

    def test_fire_before_wait_is_not_lost(self):
        sim = Simulator()
        signal = Signal(sim)
        signal.fire()
        log = []

        def proc():
            yield signal.wait()
            log.append("woke")

        sim.spawn(proc())
        sim.run()
        assert log == ["woke"]

    def test_fire_wakes_all_waiters(self):
        sim = Simulator()
        signal = Signal(sim)
        log = []

        def proc(i):
            yield signal.wait()
            log.append(i)

        for i in range(4):
            sim.spawn(proc(i))
        sim.call_at(1.0, signal.fire)
        sim.run()
        assert sorted(log) == [0, 1, 2, 3]


class TestBoundedStore:
    def test_fifo_order(self):
        sim = Simulator()
        store = BoundedStore(sim, capacity=10)
        got = []

        def producer():
            for i in range(5):
                yield store.put(i)

        def consumer():
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_put_blocks_when_full(self):
        sim = Simulator()
        store = BoundedStore(sim, capacity=2)
        timeline = []

        def producer():
            for i in range(4):
                yield store.put(i)
                timeline.append(("put", i, sim.now))

        def consumer():
            yield sim.timeout(5.0)
            yield store.get()
            yield store.get()

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        put_times = {i: t for _op, i, t in timeline}
        assert put_times[0] == 0.0
        assert put_times[1] == 0.0
        assert put_times[2] == 5.0
        assert put_times[3] == 5.0

    def test_get_blocks_when_empty(self):
        sim = Simulator()
        store = BoundedStore(sim, capacity=2)
        got = []

        def consumer():
            item = yield store.get()
            got.append((item, sim.now))

        sim.spawn(consumer())
        sim.call_at(3.0, lambda: store.try_put("x"))
        sim.run()
        assert got == [("x", 3.0)]

    def test_try_put_respects_capacity(self):
        sim = Simulator()
        store = BoundedStore(sim, capacity=1)
        assert store.try_put(1)
        assert not store.try_put(2)
        assert store.try_get() == 1
        assert store.try_get() is None

    def test_zero_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            BoundedStore(sim, capacity=0)


class TestSemaphore:
    def test_acquire_release_cycle(self):
        sim = Simulator()
        sem = Semaphore(sim, 2)
        order = []

        def worker(i):
            yield sem.acquire()
            order.append(("start", i, sim.now))
            yield sim.timeout(1.0)
            sem.release()

        for i in range(4):
            sim.spawn(worker(i))
        sim.run()
        starts = {i: t for _op, i, t in order}
        assert starts[0] == 0.0 and starts[1] == 0.0
        assert starts[2] == 1.0 and starts[3] == 1.0

    def test_try_acquire(self):
        sim = Simulator()
        sem = Semaphore(sim, 1)
        assert sem.try_acquire()
        assert not sem.try_acquire()
        sem.release()
        assert sem.try_acquire()

    def test_over_release_raises(self):
        sim = Simulator()
        sem = Semaphore(sim, 1)
        with pytest.raises(SimulationError):
            sem.release()

    def test_counts(self):
        sim = Simulator()
        sem = Semaphore(sim, 3)
        assert sem.available == 3 and sem.in_use == 0
        sem.try_acquire()
        assert sem.available == 2 and sem.in_use == 1


class TestEdgeWake:
    def test_fire_wakes_all_current_waiters(self):
        from repro.simulation import EdgeWake

        sim = Simulator()
        wake = EdgeWake(sim)
        log = []

        def proc(i):
            yield wake.wait()
            log.append(i)

        for i in range(3):
            sim.spawn(proc(i))
        sim.call_at(1.0, wake.fire)
        sim.run()
        assert sorted(log) == [0, 1, 2]

    def test_fire_with_no_waiters_is_dropped(self):
        # Edge-triggered: unlike Signal, a fire with nobody waiting latches
        # nothing.  A later wait() parks until the *next* fire.
        from repro.simulation import EdgeWake

        sim = Simulator()
        wake = EdgeWake(sim)
        wake.fire()  # dropped
        log = []

        def proc():
            yield wake.wait()
            log.append(sim.now)

        sim.spawn(proc())
        sim.call_at(3.0, wake.fire)
        sim.run()
        assert log == [3.0]

    def test_interrupted_parked_process_is_unparked(self):
        # An interrupt unparks the process: a later fire() must not resume
        # it, and it can park on the same wake again.
        from repro.simulation import EdgeWake, Interrupt

        sim = Simulator()
        wake = EdgeWake(sim)
        log = []

        def proc():
            try:
                yield wake.wait()
                log.append(("woken", sim.now))
            except Interrupt:
                log.append(("interrupted", sim.now))
            yield 5.0
            log.append(("slept", sim.now))
            yield wake.wait()
            log.append(("woken", sim.now))

        p = sim.spawn(proc())
        sim.call_at(1.0, p.interrupt)
        sim.call_at(2.0, wake.fire)  # nobody parked: dropped
        sim.call_at(7.0, wake.fire)
        sim.run()
        assert log == [("interrupted", 1.0), ("slept", 6.0),
                       ("woken", 7.0)]
        assert not p.is_alive

    def test_interrupt_after_fire_wins(self):
        # fire() queued the wake, then an interrupt arrived in the same
        # instant: the queued wake is void, the interrupt is delivered.
        from repro.simulation import EdgeWake, Interrupt

        sim = Simulator()
        wake = EdgeWake(sim)
        log = []

        def proc():
            try:
                yield wake.wait()
                log.append("woken")
            except Interrupt:
                log.append("interrupted")
            yield 1.0
            log.append(("done", sim.now))

        p = sim.spawn(proc())

        def fire_then_interrupt():
            wake.fire()
            p.interrupt()

        sim.call_at(1.0, fire_then_interrupt)
        sim.run()
        assert log == ["interrupted", ("done", 2.0)]

    def test_wait_allocates_no_event(self):
        from repro.simulation import EdgeWake

        sim = Simulator()
        wake = EdgeWake(sim)
        assert wake.wait() is wake

    def test_waiters_cleared_after_fire(self):
        from repro.simulation import EdgeWake

        sim = Simulator()
        wake = EdgeWake(sim)
        log = []

        def proc():
            yield wake.wait()
            log.append(("first", sim.now))
            yield wake.wait()
            log.append(("second", sim.now))

        sim.spawn(proc())
        sim.call_at(1.0, wake.fire)
        sim.call_at(2.0, wake.fire)
        sim.run()
        assert log == [("first", 1.0), ("second", 2.0)]
