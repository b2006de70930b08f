"""Synchronization primitives built on the DES kernel.

These are the building blocks the streaming engine uses to model bounded
buffers, wake-up conditions and resource gates:

* :class:`Signal` — a re-armable "something changed, re-check your condition"
  wake-up for one-shot waiters.
* :class:`EdgeWake` — its edge-triggered sibling that drives every
  operator's main loop; it lives in the kernel (it parks processes
  directly) and is re-exported here.
* :class:`BoundedStore` — a FIFO buffer with blocking put (backpressure) and
  blocking get.
* :class:`Semaphore` — counted resource gate (used for per-node subscale
  concurrency limits).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from .kernel import EdgeWake, Event, SimulationError, Simulator

__all__ = ["Signal", "EdgeWake", "BoundedStore", "Semaphore"]


class Signal:
    """A level-triggered wake-up for condition-polling loops.

    A waiter calls :meth:`wait` and yields the returned event; any producer
    calls :meth:`fire` to wake *all* current waiters.  If :meth:`fire` is
    called while nobody waits, the next :meth:`wait` returns an already-fired
    event, so wake-ups are never lost.
    """

    def __init__(self, sim: Simulator):
        self._sim = sim
        self._waiters: List[Event] = []
        self._pending = False

    def wait(self) -> Event:
        if self._pending:
            self._pending = False
            # Same counter draw `event().succeed()` made, minus the guards.
            return self._sim.completed()
        ev = self._sim.event()
        self._waiters.append(ev)
        return ev

    def fire(self) -> None:
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for ev in waiters:
                if not ev.triggered:
                    ev.succeed()
        else:
            self._pending = True


class BoundedStore:
    """A bounded FIFO store with blocking put/get.

    ``put`` returns an event that fires once the item has been accepted,
    which may be immediately (space available) or later (backpressure).
    ``get`` returns an event that fires with the oldest item.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self._sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> Deque[Any]:
        """The current buffer contents (read-only use expected)."""
        return self._items

    @property
    def free(self) -> float:
        return self.capacity - len(self._items)

    def put(self, item: Any) -> Event:
        ev = self._sim.event()
        if len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed()
            self._serve_getters()
        else:
            self._putters.append((ev, item))
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full."""
        if len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        self._serve_getters()
        return True

    def get(self) -> Event:
        ev = self._sim.event()
        self._getters.append(ev)
        self._serve_getters()
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; returns None when empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        self._serve_putters()
        return item

    def _serve_getters(self) -> None:
        while self._getters and self._items:
            getter = self._getters.popleft()
            if getter.triggered:
                continue
            getter.succeed(self._items.popleft())
            self._serve_putters()

    def _serve_putters(self) -> None:
        while self._putters and len(self._items) < self.capacity:
            putter, item = self._putters.popleft()
            if putter.triggered:
                continue
            self._items.append(item)
            putter.succeed()
            self._serve_getters()


class Semaphore:
    """Counted resource gate with FIFO acquisition order."""

    def __init__(self, sim: Simulator, count: int):
        if count < 1:
            raise SimulationError("semaphore count must be >= 1")
        self._sim = sim
        self._count = count
        self._capacity = count
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        return self._count

    @property
    def in_use(self) -> int:
        return self._capacity - self._count

    def acquire(self) -> Event:
        ev = self._sim.event()
        if self._count > 0:
            self._count -= 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        if self._count > 0:
            self._count -= 1
            return True
        return False

    def release(self) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.triggered:
                waiter.succeed()
                return
        if self._count >= self._capacity:
            raise SimulationError("semaphore released more than acquired")
        self._count += 1

    def cancel(self, ticket: Event) -> None:
        """Give back an :meth:`acquire` ticket, held or still queued.

        A process interrupted while waiting on ``acquire()`` abandons its
        ticket event; if that event stayed in the waiter queue, a later
        ``release`` would succeed it with nobody listening and the slot
        would leak forever.  ``cancel`` is safe in either state: a granted
        ticket releases the slot, a queued one is simply withdrawn.
        """
        if ticket.triggered:
            self.release()
            return
        try:
            self._waiters.remove(ticket)
        except ValueError:
            pass
