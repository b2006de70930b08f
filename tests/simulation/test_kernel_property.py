"""Property-based kernel tests: ordering, composites, determinism."""

import heapq
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import EdgeWake, Interrupt, Simulator
from repro.simulation.kernel import _At


@given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_timers_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for i, delay in enumerate(delays):
        sim.call_at(delay, lambda d=delay: fired.append((sim.now, d)))
    sim.run()
    times = [t for t, _d in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays)
    for now, delay in fired:
        assert now == delay


@given(delays=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_any_of_fires_at_minimum_delay(delays):
    sim = Simulator()
    observed = []

    def proc():
        first = yield sim.any_of([sim.timeout(d, d) for d in delays])
        observed.append((sim.now, first.value))

    sim.spawn(proc())
    sim.run()
    now, value = observed[0]
    assert now == min(delays)
    assert value == min(delays)


@given(delays=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_all_of_fires_at_maximum_delay(delays):
    sim = Simulator()
    observed = []

    def proc():
        yield sim.all_of([sim.timeout(d) for d in delays])
        observed.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert observed == [max(delays)]


@given(gaps=st.lists(st.floats(0.001, 2.0), min_size=1, max_size=30),
       seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_identical_programs_produce_identical_traces(gaps, seed):
    def run_once():
        sim = Simulator()
        trace = []

        def proc(name, sequence):
            for gap in sequence:
                yield sim.timeout(gap)
                trace.append((round(sim.now, 9), name))

        sim.spawn(proc("a", gaps))
        sim.spawn(proc("b", list(reversed(gaps))))
        sim.run()
        return trace, sim.events_processed

    first = run_once()
    second = run_once()
    assert first == second


@given(n_waiters=st.integers(1, 20), fire_at=st.floats(0.0, 10.0))
@settings(max_examples=50, deadline=None)
def test_signal_wakes_every_waiter_exactly_once(n_waiters, fire_at):
    from repro.simulation import Signal

    sim = Simulator()
    signal = Signal(sim)
    wakes = []

    def waiter(i):
        yield signal.wait()
        wakes.append(i)

    for i in range(n_waiters):
        sim.spawn(waiter(i))
    sim.call_at(fire_at, signal.fire)
    sim.run()
    assert sorted(wakes) == list(range(n_waiters))


@given(capacity=st.integers(1, 10),
       items=st.lists(st.integers(), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_bounded_store_is_lossless_fifo(capacity, items):
    from repro.simulation import BoundedStore

    sim = Simulator()
    store = BoundedStore(sim, capacity=capacity)
    received = []

    def producer():
        for item in items:
            yield store.put(item)

    def consumer():
        for _ in items:
            value = yield store.get()
            received.append(value)
            yield sim.timeout(0.01)

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert received == items


# -- same-instant ordering oracle ---------------------------------------------
#
# Tie-heavy programs run on the real kernel and on a pure ``(time, seq)``
# heap reference: every schedule draws a counter there and dispatch order is
# the heap order.  The kernel's ready lane and direct process wakes must
# reproduce that order exactly.  Processes are interrupted only while
# suspended at a yield, with at most one interrupt outstanding (the
# interrupt contract the engine relies on).

GRID = (0.0, 0.25, 0.5)
N_EVENTS, N_WAKES, N_CALLBACKS, N_PROCS = 3, 2, 4, 3
BUDGET = 40

_when = st.one_of(st.sampled_from(("now", "now+0.0")),
                  st.integers(0, len(GRID) - 1))
_fire = st.tuples(st.just("fire"), st.integers(0, N_WAKES - 1))
_interrupt = st.tuples(st.just("interrupt"), st.integers(0, N_PROCS - 1))
_park = st.tuples(st.just("park"), st.integers(0, N_WAKES - 1))
# Wake and interrupt operations are listed twice: their interleavings are
# where a direct-wake kernel can go wrong.
_callback_op = st.one_of(
    st.tuples(st.just("call"), _when, st.integers(0, N_CALLBACKS - 1)),
    st.tuples(st.just("timeout0"), st.integers(0, N_CALLBACKS - 1)),
    st.tuples(st.just("succeed"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("listen"), st.integers(0, N_EVENTS - 1),
              st.integers(0, N_CALLBACKS - 1)),
    _fire, _fire, _interrupt, _interrupt,
    st.tuples(st.just("spawn"), st.integers(0, N_PROCS - 1)),
)
_process_op = st.one_of(
    _callback_op,
    st.tuples(st.just("yield0")),
    st.tuples(st.just("delay"), _when),
    st.tuples(st.just("at"), _when),
    st.tuples(st.just("timeout"), _when),
    _park, _park,
    st.tuples(st.just("wait_event"), st.integers(0, N_EVENTS - 1)),
)
_programs = st.fixed_dictionaries({
    "setup": st.lists(_callback_op, min_size=1, max_size=6),
    "callbacks": st.lists(st.lists(_callback_op, max_size=4),
                          min_size=N_CALLBACKS, max_size=N_CALLBACKS),
    "processes": st.lists(st.lists(_process_op, max_size=6),
                          min_size=N_PROCS, max_size=N_PROCS),
})


class _RefEvent:
    def __init__(self):
        self.triggered = False
        self.cbs = []

    def fire(self):
        self.triggered = True
        cbs, self.cbs = self.cbs, None
        for fn in cbs:
            fn()


class _RefProcess:
    def __init__(self, ref, gen):
        self.ref, self.gen, self.token, self.alive = ref, gen, 0, True

    def resume(self, exc):
        while self.alive:
            self.token += 1  # invalidates every earlier wake position
            try:
                target = self.gen.throw(exc) if exc else self.gen.send(None)
            except StopIteration:
                self.alive = False
                return
            exc, token = None, self.token

            def wake():
                if self.token == token:
                    self.resume(None)
            if isinstance(target, _RefEvent):
                if target.cbs is None:
                    continue  # already past: resume synchronously
                target.cbs.append(wake)
            elif target[0] == "park":
                target[1].append(wake)
            else:
                self.ref.call_at(target[1], wake)
            return


class RefKernel:
    """Pure (time, seq) heap kernel: the ordering every run must match."""

    def __init__(self):
        self.t, self.heap, self.seq = 0.0, [], itertools.count()

    def now(self):
        return self.t

    def call_at(self, when, fn):
        heapq.heappush(self.heap, (when, next(self.seq), fn))

    def run(self):
        while self.heap:
            self.t, _seq, fn = heapq.heappop(self.heap)
            fn()

    def event(self):
        return _RefEvent()

    def succeed(self, ev):
        ev.triggered = True
        self.call_at(self.t, ev.fire)

    def timeout(self, delay):
        ev = _RefEvent()
        self.call_at(self.t + delay, ev.fire)
        return ev

    def on(self, ev, fn):
        if ev.cbs is None:
            self.call_at(self.t, fn)
        else:
            ev.cbs.append(fn)

    def wake(self):
        return []

    def fire(self, wake):
        for fn in wake:
            self.call_at(self.t, fn)
        wake.clear()

    def spawn(self, gen):
        proc = _RefProcess(self, gen)
        self.call_at(self.t, lambda: proc.resume(None))
        return proc

    def interrupt(self, proc):
        proc.token += 1
        self.call_at(self.t, lambda: proc.resume(Interrupt()))

    def delay(self, d):
        return ("delay", self.t + d)

    def at(self, when):
        return ("at", when)

    def park(self, wake):
        return ("park", wake)


class RealKernel:
    """The same program surface on :class:`Simulator`."""

    def __init__(self):
        self.sim = Simulator()

    def now(self):
        return self.sim.now

    def call_at(self, when, fn):
        self.sim.call_at(when, fn)

    def event(self):
        return self.sim.event()

    def succeed(self, ev):
        ev.succeed()

    def timeout(self, delay):
        return self.sim.timeout(delay)

    def on(self, ev, fn):
        ev.add_callback(lambda _ev: fn())

    def wake(self):
        return EdgeWake(self.sim)

    def fire(self, wake):
        wake.fire()

    def spawn(self, gen):
        return self.sim.spawn(gen)

    def interrupt(self, proc):
        proc.interrupt()

    def delay(self, d):
        return d

    def at(self, when):
        return _At(when)

    def park(self, wake):
        return wake.wait()


class _Program:
    """Interprets one generated program against a kernel adapter."""

    def __init__(self, kernel, program):
        self.k = kernel
        self.program = program
        self.trace = []
        self.budget = BUDGET
        self.events = [kernel.event() for _ in range(N_EVENTS)]
        self.wakes = [kernel.wake() for _ in range(N_WAKES)]
        self.procs = {}
        self.suspended = set()
        self.interrupting = set()
        for op in program["setup"]:
            self.execute("setup", op)
        for j in range(N_PROCS):  # a no-op for processes already spawned
            self.execute("setup", ("spawn", j))

    def when(self, spec):
        now = self.k.now()
        if spec == "now":
            return now
        if spec == "now+0.0":
            return now + 0.0
        return max(now, GRID[spec])

    def spend(self):
        self.budget -= 1
        return self.budget >= 0

    def execute(self, who, op):
        """Run one operation; returns what a process yields, or None."""
        k = self.k
        now = k.now()
        self.trace.append((now, who, op))
        kind = op[0]
        if kind == "call" and self.spend():
            k.call_at(self.when(op[1]), lambda n=op[2]: self.callback(n))
        elif kind == "timeout0" and self.spend():
            k.on(k.timeout(0.0), lambda n=op[1]: self.callback(n))
        elif kind == "succeed" and not self.events[op[1]].triggered:
            k.succeed(self.events[op[1]])
        elif kind == "listen" and self.spend():
            k.on(self.events[op[1]], lambda n=op[2]: self.callback(n))
        elif kind == "fire":
            k.fire(self.wakes[op[1]])
        elif kind == "interrupt":
            j = op[1]
            if j in self.suspended and j not in self.interrupting:
                self.interrupting.add(j)
                k.interrupt(self.procs[j])
        elif kind == "spawn" and op[1] not in self.procs:
            self.procs[op[1]] = k.spawn(self.process(op[1]))
        elif kind == "yield0":
            return k.delay(0)
        elif kind == "delay":
            return k.delay(self.when(op[1]) - now)
        elif kind == "at":
            return k.at(self.when(op[1]))
        elif kind == "timeout":
            return k.timeout(self.when(op[1]) - now)
        elif kind == "park":
            return k.park(self.wakes[op[1]])
        elif kind == "wait_event":
            return self.events[op[1]]
        return None

    def callback(self, n):
        for op in self.program["callbacks"][n]:
            self.execute(("cb", n), op)

    def process(self, j):
        for op in self.program["processes"][j]:
            target = self.execute(("p", j), op)
            if target is None:
                continue
            self.suspended.add(j)
            try:
                yield target
                self.trace.append((self.k.now(), ("p", j), "resumed"))
            except Interrupt:
                self.interrupting.discard(j)
                self.trace.append((self.k.now(), ("p", j), "interrupted"))
            self.suspended.discard(j)


def _stepwise(sim):
    """Drive ``sim`` with step(); peek() must name each dispatch's time."""
    while True:
        due = sim.peek()
        if not sim.step():
            assert due == float("inf")
            return
        assert sim.now == due


@given(program=_programs)
@settings(max_examples=300, deadline=None)
def test_ready_lane_matches_time_seq_heap_reference(program):
    ref = RefKernel()
    expected = _Program(ref, program)
    ref.run()

    by_run = RealKernel()
    ran = _Program(by_run, program)
    by_run.sim.run()
    assert ran.trace == expected.trace

    by_step = RealKernel()
    stepped = _Program(by_step, program)
    _stepwise(by_step.sim)
    assert stepped.trace == expected.trace
    assert by_step.sim.events_processed == by_run.sim.events_processed
