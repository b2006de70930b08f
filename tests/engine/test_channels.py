"""Channel model: delivery, backpressure, control lane, redirection."""

import pytest

from repro.engine import JobGraph, OperatorSpec, Partitioning, StreamJob
from repro.engine.channels import Channel, InputChannel
from repro.engine.cluster import LinkSpec
from repro.engine.records import Record, Watermark
from repro.simulation import Simulator


class FakeInstance:
    """Just enough of OperatorInstance for channel unit tests."""

    def __init__(self, sim):
        from repro.simulation import Signal
        self.sim = sim
        self.wake = Signal(sim)
        self.controls = []

    def on_control(self, channel, element):
        self.controls.append(element)


def make_pair(sim, latency=0.001, bandwidth=1e6, outbox=4, inbox=4):
    channel = Channel(sim, LinkSpec(latency=latency, bandwidth=bandwidth),
                      name="test", outbox_capacity=outbox,
                      inbox_capacity=inbox)
    receiver = FakeInstance(sim)
    input_channel = InputChannel(receiver, name="in")
    channel.attach(input_channel)
    return channel, input_channel, receiver


def test_delivery_includes_serialize_and_latency():
    sim = Simulator()
    channel, inbox, _r = make_pair(sim, latency=0.01, bandwidth=1000)
    record = Record(key="a", size_bytes=100)  # serialize = 0.1s

    def sender():
        yield channel.send(record)

    sim.spawn(sender())
    sim.run(until=0.05)
    assert len(inbox) == 0
    sim.run(until=0.2)
    assert len(inbox) == 1
    assert inbox.peek() is record


def test_fifo_order_preserved():
    sim = Simulator()
    channel, inbox, _r = make_pair(sim, outbox=16, inbox=16)
    records = [Record(key=i, size_bytes=10) for i in range(6)]

    def sender():
        for r in records:
            yield channel.send(r)

    sim.spawn(sender())
    sim.run()
    delivered = [inbox.pop() for _ in range(len(inbox))]
    assert delivered == records


def test_outbox_backpressure_blocks_sender():
    sim = Simulator()
    # Tiny inbox and outbox; no consumer → sender must stall.
    channel, inbox, _r = make_pair(sim, outbox=2, inbox=2)
    accepted = []

    def sender():
        for i in range(10):
            yield channel.send(Record(key=i, size_bytes=10))
            accepted.append(i)

    sim.spawn(sender())
    sim.run(until=10.0)
    # 2 inbox credits + 2 outbox slots (+1 freed as elements serialize).
    assert len(accepted) < 10


def test_consuming_returns_credit_and_unblocks():
    sim = Simulator()
    channel, inbox, _r = make_pair(sim, outbox=2, inbox=2)
    accepted = []

    def sender():
        for i in range(10):
            yield channel.send(Record(key=i, size_bytes=10))
            accepted.append(i)

    def consumer():
        consumed = 0
        while consumed < 10:
            if len(inbox):
                inbox.pop()
                consumed += 1
            else:
                yield sim.timeout(0.01)
        return None
        yield  # pragma: no cover

    sim.spawn(sender())
    sim.spawn(consumer())
    sim.run(until=10.0)
    assert len(accepted) == 10


def test_send_control_bypasses_queued_data():
    sim = Simulator()
    channel, inbox, receiver = make_pair(sim, latency=0.005,
                                         bandwidth=100.0, outbox=16)

    def sender():
        for i in range(8):  # each takes 0.1s to serialize
            yield channel.send(Record(key=i, size_bytes=10))

    sim.spawn(sender())
    sim.call_at(0.01, lambda: channel.send_control(Watermark(timestamp=1.0)))
    sim.run(until=0.05)
    # Control arrived (0.01 + 0.005) while data still serializing.
    assert len(receiver.controls) == 1
    assert len(inbox) == 0


def test_send_front_jumps_outbox_queue():
    sim = Simulator()
    channel, inbox, _r = make_pair(sim, bandwidth=1e9, outbox=16, inbox=16)
    first = Record(key="data", size_bytes=10)
    priority = Watermark(timestamp=9.0)
    channel.send(first)
    channel.send(Record(key="data2", size_bytes=10))
    channel.send_front(priority)
    sim.run()
    order = [inbox.pop() for _ in range(len(inbox))]
    # the priority element overtakes everything still in the outbox
    assert order[0] is priority


def test_extract_outbox_preserves_order_and_residuals():
    sim = Simulator()
    channel, inbox, _r = make_pair(sim, bandwidth=1e9, outbox=16)
    records = [Record(key=f"k{i}", key_group=i % 2, size_bytes=10)
               for i in range(8)]
    for r in records:
        channel.send(r)
    # Immediately extract key-group 1 before the drainer runs.
    extracted = channel.extract_outbox(
        lambda e: getattr(e, "key_group", None) == 1)
    assert [r.key for r in extracted if r in records] == [
        r.key for r in records if r.key_group == 1][-len(extracted):] or \
        [r.key_group for r in extracted] == [1] * len(extracted)
    sim.run()
    remaining = [inbox.pop() for _ in range(len(inbox))]
    assert all(r.key_group == 0 for r in remaining if isinstance(r, Record))


def test_extract_outbox_redirects_blocked_waiters():
    sim = Simulator()
    channel, inbox, _r = make_pair(sim, bandwidth=100.0, outbox=1, inbox=1)
    sent = []

    def sender():
        for i in range(5):
            yield channel.send(Record(key=i, key_group=1, size_bytes=10))
            sent.append(i)

    sim.spawn(sender())
    sim.run(until=0.01)
    assert len(sent) < 5  # sender blocked
    extracted = channel.extract_outbox(
        lambda e: getattr(e, "key_group", None) == 1)
    sim.run(until=0.02)
    # The waiter's element was extracted and the send unblocked.
    assert extracted
    assert len(sent) >= len(extracted)


def test_block_tokens_stack():
    sim = Simulator()
    _channel, inbox, _r = make_pair(sim)
    inbox.block("a")
    inbox.block("b")
    assert inbox.blocked
    inbox.unblock("a")
    assert inbox.blocked
    inbox.unblock("b")
    assert not inbox.blocked


def test_remove_returns_credit():
    sim = Simulator()
    channel, inbox, _r = make_pair(sim, inbox=2)
    r1, r2 = Record(key=1, size_bytes=1), Record(key=2, size_bytes=1)

    def sender():
        yield channel.send(r1)
        yield channel.send(r2)

    sim.spawn(sender())
    sim.run()
    before = channel.credits
    inbox.remove(r2)
    assert channel.credits == before + 1
    assert inbox.peek() is r1


def test_backlog_accounting():
    sim = Simulator()
    channel, inbox, _r = make_pair(sim, bandwidth=1e9)
    channel.send(Record(key=1, size_bytes=1))
    assert channel.backlog == 1
    sim.run()
    assert channel.backlog == 1  # now in the inbox
    inbox.pop()
    assert channel.backlog == 0


def test_inject_confirm_without_checkpoint_barrier_goes_front():
    from repro.engine.records import Watermark as WM
    sim = Simulator()
    channel, inbox, _r = make_pair(sim, bandwidth=1e9, outbox=16, inbox=16)
    records = [Record(key=f"k{i}", key_group=i % 2, size_bytes=10)
               for i in range(6)]
    for r in records:
        channel.send(r)
    marker = WM(timestamp=99.0)  # stands in for a confirm barrier
    bypassed = channel.inject_confirm(
        lambda e: getattr(e, "key_group", None) == 1, marker)
    assert [e.key_group for e in bypassed] == [1, 1, 1]
    sim.run()
    delivered = [inbox.pop() for _ in range(len(inbox))]
    assert delivered[0] is marker
    assert all(getattr(e, "key_group", 0) == 0 for e in delivered[1:])


def test_inject_confirm_redirection_concludes_at_checkpoint_barrier():
    """§IV-C Fig. 9a: records at or before a checkpoint barrier in the
    output cache belong to the snapshot cut — never redirected — and the
    confirm barrier lands right after the checkpoint barrier."""
    from repro.engine.records import CheckpointBarrier, Watermark as WM
    sim = Simulator()
    channel, inbox, _r = make_pair(sim, bandwidth=1e9, outbox=16, inbox=16)
    pre = Record(key="pre", key_group=1, size_bytes=10)
    ckpt = CheckpointBarrier(checkpoint_id=7)
    post = Record(key="post", key_group=1, size_bytes=10)
    other = Record(key="other", key_group=0, size_bytes=10)
    for e in (pre, ckpt, post, other):
        channel.send(e)
    confirm = WM(timestamp=99.0)
    bypassed = channel.inject_confirm(
        lambda e: getattr(e, "key_group", None) == 1, confirm)
    # only the record AFTER the checkpoint barrier was redirected
    assert bypassed == [post]
    sim.run()
    delivered = [inbox.pop() for _ in range(len(inbox))]
    assert delivered[0] is pre          # cut preserved
    assert delivered[1] is ckpt
    assert delivered[2] is confirm      # integrated signal position
    assert delivered[3] is other


def test_inject_confirm_redirects_blocked_waiters_always():
    from repro.engine.records import CheckpointBarrier, Watermark as WM
    sim = Simulator()
    channel, inbox, _r = make_pair(sim, bandwidth=100.0, outbox=1, inbox=1)
    accepted = []

    def sender():
        for i in range(4):
            yield channel.send(Record(key=i, key_group=1, size_bytes=10))
            accepted.append(i)

    sim.spawn(sender())
    sim.run(until=0.01)
    bypassed = channel.inject_confirm(
        lambda e: getattr(e, "key_group", None) == 1, WM(timestamp=1.0))
    # waiters are logically behind the cache: always redirected
    assert len(bypassed) >= 1


def test_closed_channel_send_returns_shared_event_without_heap_growth():
    sim = Simulator()
    channel, inbox, _r = make_pair(sim)
    sim.run()  # let construction-time events settle
    channel.close()
    heap_before = len(sim._heap)
    events = [channel.send(Record(key=f"k{i}", size_bytes=10))
              for i in range(50)]
    # Every send is accepted-and-dropped via the one shared pre-succeeded
    # event: no per-send allocation, and neither the heap nor the
    # same-instant ready lane grows.
    assert all(ev is sim.done for ev in events)
    assert len(sim._heap) == heap_before
    assert not sim._ready
    sim.run()
    assert len(inbox) == 0


def test_send_front_and_extract_outbox_order_under_backpressure():
    # A slow link keeps the outbox full: senders block, elements queue.
    sim = Simulator()
    channel, inbox, _r = make_pair(sim, bandwidth=100.0, outbox=3, inbox=16)
    accepted = []

    def sender():
        for i in range(6):
            yield channel.send(Record(key=i, key_group=i % 2,
                                      size_bytes=10))
            accepted.append(i)

    sim.spawn(sender())
    sim.run(until=0.01)
    # Record 0 is mid-serialize, 1-3 queue in the outbox, 4 is blocked.
    assert accepted == [0, 1, 2, 3]

    # A control element jumps the queued data...
    priority = Watermark(timestamp=1.0)
    channel.send_front(priority)
    # ...and extract_outbox removes queued matches (records 1 and 3, the
    # key-group-1 residents) in FIFO order without disturbing the rest.
    extracted = channel.extract_outbox(
        lambda e: isinstance(e, Record) and e.key_group == 1)
    assert [e.key for e in extracted] == [1, 3]

    sim.run()
    delivered = [inbox.pop() for _ in range(len(inbox))]
    # Record 0 was already on the wire; the watermark overtakes everything
    # that was still in the outbox; extraction freed slots, so the blocked
    # sends (4, 5) completed and delivered after the survivors.
    assert [e.key for e in delivered if isinstance(e, Record)] == [0, 2,
                                                                   4, 5]
    assert delivered.index(priority) == 1
    # The extracted instances themselves were never delivered.
    assert not any(e in extracted for e in delivered)
    # All six sends eventually completed (extraction unblocks waiters).
    assert accepted == list(range(6))
