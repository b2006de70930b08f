"""Discrete-event simulation kernel.

The kernel is a small, deterministic, generator-based process engine in the
style of SimPy.  Simulated components are written as Python generators that
``yield`` :class:`Event` objects; the kernel resumes a process when the event
it waits on fires.  All state transitions happen at discrete simulated times
drawn from one event queue, so runs are fully reproducible: identical
inputs produce identical traces.

Example::

    sim = Simulator()

    def ping(sim, interval):
        while True:
            yield sim.timeout(interval)
            print("ping at", sim.now)

    sim.spawn(ping(sim, 1.0))
    sim.run(until=5.0)

Hot-path notes (see ``docs/performance.md``):

* Heap entries are ``(time, counter, entry)`` where ``entry`` is either an
  :class:`Event` or a bare :class:`_Callback` — ``call_at``/``call_in`` skip
  the full Event machinery.  The run loop calls ``_Callback.fn`` directly
  and ``Event._dispatch()`` otherwise.
* Tie-break order on equal times is the global ``counter`` draw order.  Any
  optimization here must preserve the *relative* order of counter draws for
  retained events; removing a draw-less dispatch (e.g. skipping a defunct
  timeout) shifts nothing and is safe, while reordering draws is not.
* Same-instant ready lane: an entry scheduled for the current time
  (``when == now``: ``succeed``/``fail``, ``completed()``, process start,
  interrupt and :class:`EdgeWake` wakes, zero delays) is appended to a FIFO
  ``deque`` instead of the heap and draws no counter.  Each instant
  dispatches the heap entries due at ``now`` first, then the lane in FIFO
  order, then advances to the next heap time.  This is exactly the heap's
  order: an entry can only enter the heap at time ``now`` while simulated
  time is still earlier, so its counter is lower than any counter drawn at
  this instant; and the lane receives this instant's entries in the order
  their counter draws would have had.
* :class:`EdgeWake` parks a process on the wake itself; ``fire()`` appends
  the process's reusable wake entry to the lane, so a wait allocates no
  Event.
* Cancelled waits are marked ``_defunct`` and skipped on pop instead of
  being sifted out of the queue (lazy cancellation).  Defunct dispatches do
  not count toward ``events_processed``, and dispatch targets that detect a
  superseded schedule position call :meth:`Simulator.discount` so stale
  no-op pops do not inflate the count either.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional

__all__ = [
    "EdgeWake",
    "Event",
    "Process",
    "SimulationError",
    "Simulator",
    "Interrupt",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double-firing events, time travel, ...)."""


class Interrupt(Exception):
    """Thrown into a process when another component interrupts it.

    The ``cause`` attribute carries an arbitrary payload describing why the
    interruption happened (e.g. a scaling controller cancelling a wait).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class _Callback:
    """A bare queue entry that runs a function at its scheduled time.

    Carries none of the Event machinery: no value, no waiters, no triggered
    state.  This is what ``call_at``/``call_in`` schedule, what
    ``Event.add_callback`` schedules for already-processed events, and what
    a process's start, wake and bare-delay entries are.
    """

    __slots__ = ("fn", "_defunct")

    def __init__(self, fn: Callable[[], None]):
        self.fn = fn
        self._defunct = False


_INF = float("inf")

#: Sentinel stored in ``Process._waiting_on`` while the process sleeps on a
#: bare-delay yield (no Event exists to point at).
_TIMEOUT_WAIT = object()


class _At:
    """Absolute-time wait marker: ``yield _At(when)`` sleeps until ``when``.

    The bare-delay shorthand (``yield <float>``) is relative; batch
    execution needs to park until a precomputed absolute end time without
    re-deriving the delta (and its float error) at resume time.  Uses the
    same reusable timeout entry and counter-draw position as a bare delay.
    """

    __slots__ = ("when",)

    def __init__(self, when: float):
        self.when = when


class Event:
    """A one-shot occurrence that processes can wait on.

    Events start *pending*; calling :meth:`succeed` (or :meth:`fail`)
    schedules all registered callbacks to run at the current simulated time.
    An event may be waited on by any number of processes and may carry a
    value, delivered as the result of the ``yield``.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered",
                 "_processed", "_scheduled", "_defunct")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        # True for events already queued with a fire time (timeouts):
        # they cannot be succeeded manually, but they have NOT fired yet —
        # composites must wait for them.
        self._scheduled = False
        # Lazily-cancelled: still queued, skipped at dispatch.
        self._defunct = False

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed`/:meth:`fail` has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event is fully in the past)."""
        return self._processed

    @property
    def value(self) -> Any:
        return self._value

    @property
    def ok(self) -> bool:
        return self._ok

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event successfully, waking all waiters at ``sim.now``."""
        if self._triggered or self._scheduled:
            raise SimulationError("event already triggered or scheduled")
        self._triggered = True
        self._value = value
        self._ok = True
        self.sim._ready.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event as a failure; waiters see the exception raised."""
        if self._triggered or self._scheduled:
            raise SimulationError("event already triggered or scheduled")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._value = exception
        self._ok = False
        self.sim._ready.append(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)``; runs immediately if already past."""
        if self.callbacks is None:
            # Already processed: run at the current time, after the
            # same-time activity already queued (ready lane).
            self.sim._ready.append(_Callback(lambda: callback(self)))
        else:
            self.callbacks.append(callback)

    def _dispatch(self) -> None:
        self._triggered = True
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<Event {state} value={self._value!r}>"


class AnyOf(Event):
    """Composite event that fires when the first of its children fires.

    The value is the child event that fired first.  Used by components that
    must react to whichever of several things happens first (e.g. "a record
    arrived OR the migration completed").

    When the first child fires, the composite detaches from the remaining
    children; a heap-scheduled child (timeout) left with no other observers
    is marked defunct so it does not linger until its fire time.
    """

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf requires at least one child event")
        for child in self._children:
            if child.triggered:
                self.succeed(child)
                return
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._triggered:
            return
        self.succeed(child)
        for other in self._children:
            if other is child:
                continue
            callbacks = other.callbacks
            if callbacks is None:
                continue
            try:
                callbacks.remove(self._on_child)
            except ValueError:
                continue
            if not callbacks and other._scheduled and not other._triggered:
                other._defunct = True


class AllOf(Event):
    """Composite event that fires once every child event has fired."""

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._children = list(events)
        self._remaining = 0
        for child in self._children:
            if not child.triggered:
                self._remaining += 1
                child.add_callback(self._on_child)
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])

    def _on_child(self, _child: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0 and not self.triggered:
            self.succeed([c.value for c in self._children])


class EdgeWake:
    """Edge-triggered wake-up: a :meth:`fire` with no waiter is dropped.

    Strictly cheaper than :class:`~repro.simulation.primitives.Signal` — no
    pending latch means no spurious wake/re-poll round-trip when a producer
    fires while the consumer is busy.  It is only correct for consumers that
    re-check *all* of their wake conditions immediately before each
    :meth:`wait`, with no simulation dispatch in between (the operator and
    source main loops do exactly this: the wakeable state — input queues,
    in-band functions, pause/stop flags — is re-read at the top of every
    loop iteration, so a dropped fire can never strand observable work).
    One-shot waiters that may :meth:`wait` *after* the producer fired must
    keep using ``Signal``.

    A process waits with ``yield wake.wait()``; the yield parks the process
    on the wake itself, and :meth:`fire` appends each parked process's
    reusable wake entry to the simulator's same-instant lane — no
    :class:`Event` per wait.  Interrupting a parked process unparks it.
    """

    __slots__ = ("_sim", "_parked")

    def __init__(self, sim: "Simulator"):
        self._sim = sim
        self._parked: List["Process"] = []

    def wait(self) -> "EdgeWake":
        """The marker a process yields to park here until the next fire."""
        return self

    def fire(self) -> None:
        parked = self._parked
        if parked:
            append = self._sim._ready.append
            for process in parked:
                append(process._wake_entry)
            parked.clear()


class Process(Event):
    """A running generator.  Also an event: fires when the generator ends.

    Yield protocol: the generator yields :class:`Event` instances — or a
    bare ``float``/``int`` delay, shorthand for ``sim.timeout(delay)``
    without the Event allocation (same queue position), an :class:`_At`
    absolute time, or ``EdgeWake.wait()``.  When the yielded event fires,
    the process resumes with the event's value (or the exception, for
    failed events); delays and wakes resume with ``None``.
    """

    __slots__ = ("_generator", "name", "_waiting_on", "_timeout_entry",
                 "_wake_entry")

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: str = ""):
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        #: Reusable queue entry for bare-delay yields; at most one
        #: outstanding position (recreated after an interrupt leaves a
        #: stale, defunct-marked one behind).
        self._timeout_entry: Optional[_Callback] = None
        #: Reusable lane entry :meth:`EdgeWake.fire` queues for this process.
        self._wake_entry = _Callback(self._wake_fire)
        # Kick off the process at the current time.
        sim._ready.append(_Callback(self._start))

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        No-op if the process has already finished.  The abandoned wait is
        detached: its callback is removed so a later fire cannot spuriously
        resume the process, and a heap-scheduled wait left with no other
        observers is marked defunct (lazy cancellation).
        """
        if self.triggered:
            return
        target = self._waiting_on
        if target is _TIMEOUT_WAIT:
            # Waiting on a bare-delay entry: mark it defunct in place (lazy
            # cancellation) and drop it so a later delay gets a fresh one.
            self._waiting_on = None
            entry = self._timeout_entry
            if entry is not None:
                entry._defunct = True
                self._timeout_entry = None
        elif target.__class__ is EdgeWake:
            self._waiting_on = None
            try:
                target._parked.remove(self)
            except ValueError:
                # Already fired: the queued wake entry finds the process
                # no longer waiting and does nothing (see _wake_fire).
                pass
        elif target is not None:
            self._waiting_on = None
            callbacks = target.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(self._resume)
                except ValueError:
                    pass
                else:
                    if (not callbacks and target._scheduled
                            and not target._triggered):
                        target._defunct = True
        wake = Event(self.sim)
        wake._triggered = True
        wake._ok = False
        wake._value = Interrupt(cause)
        wake.callbacks.append(self._resume)
        self.sim._ready.append(wake)

    def _resume(self, event: Event) -> None:
        if self._triggered:  # finished while the wake-up was in flight
            return
        self._waiting_on = None
        gen = self._generator
        while True:
            try:
                if event._ok:
                    target = gen.send(event._value)
                else:
                    target = gen.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except Interrupt:
                # An un-caught interrupt terminates the process quietly.
                self.succeed(None)
                return
            kind = type(target)
            if kind is float or kind is int:
                # Bare-delay yield: same queue position as
                # `yield sim.timeout(delay)`, minus the Event allocation.
                if target < 0:
                    raise SimulationError(f"negative timeout: {target}")
                entry = self._timeout_entry
                if entry is None:
                    entry = self._timeout_entry = _Callback(
                        self._timeout_fire)
                self._waiting_on = _TIMEOUT_WAIT
                sim = self.sim
                now = sim._now
                when = now + target
                if when == now:
                    sim._ready.append(entry)
                else:
                    heappush(sim._heap, (when, next(sim._counter), entry))
                return
            if kind is EdgeWake:
                self._waiting_on = target
                target._parked.append(self)
                return
            if kind is _At:
                # Absolute-time wait: identical machinery to a bare delay,
                # but the time is taken verbatim (no now+delta float
                # round-trip).
                sim = self.sim
                when = target.when
                now = sim._now
                if when < now:
                    raise SimulationError(
                        f"cannot wait until {when}; now is {now}")
                entry = self._timeout_entry
                if entry is None:
                    entry = self._timeout_entry = _Callback(
                        self._timeout_fire)
                self._waiting_on = _TIMEOUT_WAIT
                if when == now:
                    sim._ready.append(entry)
                else:
                    heappush(sim._heap, (when, next(sim._counter), entry))
                return
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes must yield Event instances")
            if target._processed:
                # Already-past event (the shared `done` singleton, or any
                # event that fired in an earlier dispatch): resume
                # synchronously instead of round-tripping a bare callback
                # through the queue — no dispatch.
                event = target
                continue
            self._waiting_on = target
            # Not processed, so `callbacks` is a live list (add_callback
            # minus the processed-path branch).
            target.callbacks.append(self._resume)
            return

    def _start(self) -> None:
        """Dispatch target of the process's start entry."""
        self._resume(self.sim._done)

    def _wake_fire(self) -> None:
        """Dispatch target of the reusable wake entry (EdgeWake.fire).

        An interrupt after the fire clears ``_waiting_on``; the entry then
        dispatches as a no-op, before the interrupt's own wake.  The
        process cannot run in between, so a set ``_waiting_on`` always
        still names the wake that queued this entry.
        """
        if self._waiting_on is not None:
            self._resume(self.sim._done)

    def _timeout_fire(self) -> None:
        """Dispatch target of the reusable bare-delay entry."""
        if self._waiting_on is _TIMEOUT_WAIT:
            self._resume(self.sim.done)
        else:
            # Stale position of the reusable entry: the wait it was armed
            # for was cancelled or replaced.  Nothing happened.
            self.sim.discount()


class Simulator:
    """The event loop: owns simulated time and the pending-event queue.

    Pending entries live in two places: a ``(time, counter, entry)`` binary
    heap for future times and the FIFO ready lane for the current instant
    (see the module's hot-path notes for why the pair dispatches in exact
    heap order).
    """

    __slots__ = ("_now", "_heap", "_ready", "_counter", "_event_count",
                 "dispatch_probe", "discount_probe", "_done")

    def __init__(self):
        self._now = 0.0
        self._heap: List[Any] = []
        #: Same-instant ready lane: entries due at ``_now``, FIFO.
        self._ready: Deque[Any] = deque()
        self._counter = itertools.count()
        self._event_count = 0
        #: Optional zero-arg telemetry hook invoked once per dispatched
        #: event.  None (the default) keeps dispatch on the fast path; the
        #: hook must not schedule simulation events.
        self.dispatch_probe: Optional[Callable[[], None]] = None
        #: Telemetry partner of :attr:`dispatch_probe`: invoked whenever a
        #: dispatch discounts itself (see :meth:`discount`) so probe-side
        #: counters can stay in sync with ``events_processed``.
        self.discount_probe: Optional[Callable[[], None]] = None
        # Shared pre-succeeded event for already-satisfied waits (see
        # the `done` property).
        done = Event(self)
        done._triggered = True
        done._processed = True
        done.callbacks = None
        self._done = done

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Kernel events *dispatched* so far (for diagnostics and benches).

        Counts only dispatches that did work: defunct (lazily-cancelled)
        entries are skipped without counting, and dispatch targets that
        detect a superseded schedule position (a reused entry whose due
        time moved on) call :meth:`discount` to back their pop out of the
        total.  Bench schema ``repro-bench/3`` records counts under this
        definition; older baselines include the stale no-op pops.
        """
        return self._event_count

    def discount(self) -> None:
        """Back the current dispatch out of ``events_processed``.

        For dispatch targets that discover, once popped, that they are a
        superseded or cancelled schedule position (e.g. a reusable channel
        entry whose due time was re-targeted, or a stale bare-delay timer):
        the pop happened but no simulation work did, so it must not count
        as a processed event or inflate bench denominators.
        """
        self._event_count -= 1
        if self.discount_probe is not None:
            self.discount_probe()

    # -- event construction ------------------------------------------------

    def event(self) -> Event:
        """A fresh pending event; fire it with ``.succeed(value)``."""
        return Event(self)

    @property
    def done(self) -> Event:
        """The shared, already-processed success event (value ``None``).

        Hand this to a waiter whose wait is already satisfied and carries no
        value: no allocation, nothing queued.  A process that yields it
        resumes synchronously, inside the same dispatch; a hot caller can
        skip that yield (``if ev is not done: yield ev``) to the same
        effect.  :meth:`Event.add_callback` on it queues the callback at the
        current instant.
        """
        return self._done

    def completed(self, value: Any = None) -> Event:
        """An event already fired at the current time, carrying ``value``.

        Equivalent to ``sim.event().succeed(value)`` — same queue position,
        same dispatch — minus the guard checks.  This is the accepted-send
        fast path: callers that must hand a waiter an event firing "now"
        without reordering anything.
        """
        ev = Event(self)
        ev._triggered = True
        ev._value = value
        self._ready.append(ev)
        return ev

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        ev = Event(self)
        ev._scheduled = True
        ev._value = value
        now = self._now
        when = now + delay
        if when == now:
            self._ready.append(ev)
        else:
            heappush(self._heap, (when, next(self._counter), ev))
        return ev

    def any_of(self, events: Iterable[Event]) -> Event:
        """Fires when the first of ``events`` fires; value = that event."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> Event:
        """Fires when every event in ``events`` has fired."""
        return AllOf(self, events)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Run ``generator`` as a simulation process."""
        return Process(self, generator, name=name)

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` at absolute simulated time ``when``.

        Cheaper than spawning a process or succeeding an event: the queue
        entry is a bare :class:`_Callback`, not an :class:`Event`.
        """
        now = self._now
        if when == now:
            self._ready.append(_Callback(callback))
        elif when > now:
            heappush(self._heap,
                     (when, next(self._counter), _Callback(callback)))
        else:
            raise SimulationError(f"cannot schedule at {when}; now is {now}")

    def call_in(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` ``delay`` seconds from now."""
        self.call_at(self._now + delay, callback)

    def schedule_entry(self, when: float, entry: "_Callback") -> None:
        """Queue a caller-owned :class:`_Callback` entry.

        Hot-path variant of :meth:`call_at` for callers that reuse one
        entry object across many schedules (e.g. a channel drainer): no
        per-call wrapper allocation.  The same entry may be queued at
        several positions at once; ``fn()`` runs once per dispatch.  The
        caller must never mark a reused entry ``_defunct``.
        """
        now = self._now
        if when == now:
            self._ready.append(entry)
        elif when > now:
            heappush(self._heap, (when, next(self._counter), entry))
        else:
            raise SimulationError(f"cannot schedule at {when}; now is {now}")

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Process one event.  Returns False when the queue is empty.

        Dispatches in :meth:`run` order: heap entries due at ``now``, then
        the ready lane, then the next heap time.  Defunct (lazily-cancelled)
        entries are discarded without counting as a processed event.
        """
        heap = self._heap
        ready = self._ready
        while heap or ready:
            if ready and (not heap or heap[0][0] != self._now):
                entry = ready.popleft()
                if entry._defunct:
                    continue
            else:
                when, _seq, entry = heappop(heap)
                if entry._defunct:
                    continue
                if when < self._now:
                    raise SimulationError("event heap went backwards in time")
                self._now = when
            self._event_count += 1
            if self.dispatch_probe is not None:
                self.dispatch_probe()
            if entry.__class__ is _Callback:
                entry.fn()
            else:
                entry._dispatch()
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or simulated time passes ``until``.

        Returns the simulated time at which execution stopped.

        The loop is inlined (no per-event ``step()`` call) and works one
        instant at a time: the heap entries due at ``now``, then the ready
        lane until it is empty (a dispatch at ``now`` can only add lane
        entries), then a pop that advances time.
        """
        limit = _INF if until is None else until
        heap = self._heap
        ready = self._ready
        pop = heappop
        popleft = ready.popleft
        callback = _Callback
        count = 0
        try:
            if self._now <= limit:
                if self.dispatch_probe is None:
                    # Probe-off fast loop: no per-event hook check.
                    while True:
                        when = self._now
                        while heap and heap[0][0] == when:
                            entry = pop(heap)[2]
                            if entry._defunct:
                                continue
                            count += 1
                            if entry.__class__ is callback:
                                entry.fn()
                            else:
                                entry._dispatch()
                        while ready:
                            entry = popleft()
                            if entry._defunct:
                                continue
                            count += 1
                            if entry.__class__ is callback:
                                entry.fn()
                            else:
                                entry._dispatch()
                        if self.dispatch_probe is not None:
                            break  # installed mid-run: instrumented loop
                        # Advance to the next live heap entry.
                        while heap and heap[0][0] <= limit:
                            when, _seq, entry = pop(heap)
                            if not entry._defunct:
                                break
                        else:
                            break
                        self._now = when
                        count += 1
                        if entry.__class__ is callback:
                            entry.fn()
                        else:
                            entry._dispatch()
                # Instrumented loop, step()'s order bounded by ``until``.
                # After a probe-off run it finds nothing left to do.
                while True:
                    if ready and (not heap or heap[0][0] != self._now):
                        entry = popleft()
                    elif heap and heap[0][0] <= limit:
                        when, _seq, entry = pop(heap)
                        if entry._defunct:
                            continue
                        self._now = when
                    else:
                        break
                    if entry._defunct:
                        continue
                    count += 1
                    if self.dispatch_probe is not None:
                        self.dispatch_probe()
                    if entry.__class__ is callback:
                        entry.fn()
                    else:
                        entry._dispatch()
            if until is not None and self._now < until:
                self._now = until
            return self._now
        finally:
            self._event_count += count

    def peek(self) -> float:
        """Time of the next pending event, or ``inf`` if none.

        ``now`` while a live entry waits in the ready lane; defunct entries
        at the front of either queue are discarded first.
        """
        ready = self._ready
        while ready and ready[0]._defunct:
            ready.popleft()
        if ready:
            return self._now
        heap = self._heap
        while heap and heap[0][2]._defunct:
            heappop(heap)
        return heap[0][0] if heap else _INF
