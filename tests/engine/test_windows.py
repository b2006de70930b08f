"""Sliding-window aggregation and windowed join."""

import random
import struct
import types

import pytest

from repro.engine import (JobGraph, OperatorSpec, Partitioning, Record,
                          SlidingWindowAggregateLogic, StreamJob, Watermark,
                          WindowedJoinLogic)
from repro.engine.state import KeyedStateBackend
from repro.engine.windows import _window_starts


class TestWindowStarts:
    def test_tumbling(self):
        assert _window_starts(5.0, 10.0, 10.0) == [0.0]
        assert _window_starts(15.0, 10.0, 10.0) == [10.0]

    def test_sliding_counts(self):
        # size 10, slide 2 → every event belongs to 5 windows
        starts = _window_starts(11.0, 10.0, 2.0)
        assert len(starts) == 5
        for s in starts:
            assert s <= 11.0 < s + 10.0

    def test_boundary_event(self):
        starts = _window_starts(10.0, 10.0, 5.0)
        for s in starts:
            assert s <= 10.0 < s + 10.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SlidingWindowAggregateLogic(size=0, slide=1)
        with pytest.raises(ValueError):
            SlidingWindowAggregateLogic(size=1, slide=2)


def window_job(logic_factory, num_key_groups=4):
    g = JobGraph("w", num_key_groups=num_key_groups)
    g.add_source("src")
    g.add_operator(OperatorSpec("win", logic_factory=logic_factory,
                                parallelism=1, keyed=True))
    g.add_sink("sink", collect=True)
    g.connect("src", "win", Partitioning.HASH)
    g.connect("win", "sink")
    return StreamJob(g).build()


def test_sliding_window_fires_on_watermark():
    logic_holder = []

    def factory():
        logic = SlidingWindowAggregateLogic(size=10.0, slide=5.0,
                                            bytes_per_record=8.0)
        logic_holder.append(logic)
        return logic

    job = window_job(factory)
    job.start()
    src = job.sources()[0]
    src.offer(Record(key="a", event_time=1.0, value=7, count=1))
    src.offer(Record(key="a", event_time=2.0, value=9, count=1))
    src.offer(Watermark(timestamp=11.0))  # window [-5,5) and [0,10) end
    job.run(until=2.0)
    sink = job.sink_logic()
    fired_values = [r.value for r in sink.collected]
    assert 9 in fired_values  # max over the fired window
    assert logic_holder[0].windows_fired >= 1


def test_sliding_window_state_bytes_grow_and_release():
    job = window_job(lambda: SlidingWindowAggregateLogic(
        size=10.0, slide=10.0, bytes_per_record=100.0))
    job.start()
    src = job.sources()[0]
    for i in range(5):
        src.offer(Record(key=f"k{i}", event_time=1.0, count=2))
    job.run(until=1.0)
    win = job.instances("win")[0]
    assert win.state.total_bytes() >= 5 * 2 * 100.0
    src.offer(Watermark(timestamp=25.0))
    job.run(until=2.0)
    # all panes fired and purged; only entry-bookkeeping bytes may linger
    assert win.state.total_bytes() < 5 * 2 * 100.0


def test_sliding_window_does_not_fire_inactive_groups():
    from repro.engine import StateStatus
    job = window_job(lambda: SlidingWindowAggregateLogic(
        size=10.0, slide=10.0, bytes_per_record=1.0))
    job.start()
    src = job.sources()[0]
    src.offer(Record(key="a", event_time=1.0, count=1))
    job.run(until=0.5)
    win = job.instances("win")[0]
    for group in win.state.groups():
        group.status = StateStatus.INACTIVE
    src.offer(Watermark(timestamp=30.0))
    job.run(until=1.0)
    assert job.sink_logic().records_in == 0
    # reactivate → next watermark fires the pane
    for group in win.state.groups():
        group.status = StateStatus.LOCAL
    src.offer(Watermark(timestamp=31.0))
    job.run(until=1.5)
    assert job.sink_logic().records_in >= 1


def test_windowed_join_emits_only_matched_panes():
    # Panes aggregate at key-group granularity (the batching compromise
    # documented in repro.engine.windows): keys in the same key-group share
    # a pane; a key-group pane without both sides present never fires.
    job = window_job(lambda: WindowedJoinLogic(
        size=10.0, side_fn=lambda r: r.value[0],
        bytes_per_record=10.0), num_key_groups=64)
    job.start()
    src = job.sources()[0]
    src.offer(Record(key="both", key_group=1, event_time=1.0,
                     value=("left", 1), count=2))
    src.offer(Record(key="both", key_group=1, event_time=2.0,
                     value=("right", 1), count=3))
    src.offer(Record(key="only-left", key_group=2, event_time=1.0,
                     value=("left", 1), count=1))
    src.offer(Watermark(timestamp=15.0))
    job.run(until=2.0)
    sink = job.sink_logic()
    joined = [r for r in sink.collected]
    assert len(joined) == 1
    assert joined[0].value == (2, 3)


def test_windowed_join_purges_state():
    job = window_job(lambda: WindowedJoinLogic(
        size=10.0, side_fn=lambda r: r.value[0], bytes_per_record=50.0))
    job.start()
    src = job.sources()[0]
    src.offer(Record(key="k", event_time=1.0, value=("left", 1), count=1))
    job.run(until=0.5)
    win = job.instances("win")[0]
    assert win.state.total_bytes() > 0
    src.offer(Watermark(timestamp=20.0))
    job.run(until=1.0)
    assert win.state.total_bytes() < 50.0 + 300  # entry bookkeeping only


def test_join_rejects_bad_window():
    with pytest.raises(ValueError):
        WindowedJoinLogic(size=0)
    with pytest.raises(ValueError):
        WindowedJoinLogic(size=5, slide=10)


# -- on_record_batch: bit-identical to per-record on_record ------------------

def _bare_instance():
    return types.SimpleNamespace(state=KeyedStateBackend())


def _bits(value):
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    return value


def _state_snapshot(inst):
    """Keyed state at float-bit granularity (0.0 vs -0.0, NaN-safe)."""
    snap = {}
    for group in inst.state.groups():
        entries = sorted(
            (key, tuple(_bits(v) for v in pane))
            for key, pane in group.entries.items())
        snap[group.key_group] = (_bits(group.size_bytes), entries)
    return snap


def _make_batch(rng, n, num_kgs=4, runs=False):
    records = []
    t = rng.uniform(0.0, 50.0)
    for i in range(n):
        if runs and i % 2 == 0:
            # bias towards same-(kg, bucket) runs so the hoisted per-run
            # pane lookups actually execute
            kg = 1
            event_time = 40.0 + rng.uniform(0.0, 1.5)
        else:
            kg = rng.randrange(num_kgs)
            event_time = t + rng.uniform(0.0, 30.0)
        value = rng.choice(
            [None, rng.uniform(-5.0, 5.0), rng.randrange(100), 0.1 * i])
        records.append(Record(key=f"k{kg}", key_group=kg,
                              event_time=event_time,
                              count=rng.randrange(1, 5), value=value))
    return records


def _assert_batch_matches_scalar(batches, size=8.0, slide=2.0, bpr=7.3):
    """Apply ``batches`` per record and per batch; the keyed state must
    stay bit-identical after every batch."""
    scalar = SlidingWindowAggregateLogic(size=size, slide=slide,
                                         bytes_per_record=bpr)
    batched = SlidingWindowAggregateLogic(size=size, slide=slide,
                                          bytes_per_record=bpr)
    i_scalar = _bare_instance()
    i_batched = _bare_instance()
    for batch in batches:
        for rec in batch:
            scalar.on_record(rec, i_scalar)
        batched.on_record_batch(batch, 0, len(batch), i_batched)
        assert _state_snapshot(i_batched) == _state_snapshot(i_scalar)


def test_randomized_batches_bit_exact():
    rng = random.Random(1234)
    for trial in range(10):
        batches = [_make_batch(rng, rng.randrange(1, 40),
                               runs=bool(trial % 2))
                   for _ in range(rng.randrange(1, 6))]
        _assert_batch_matches_scalar(batches)


def test_batch_path_matches_scalar():
    """Default ``bytes_per_record``: the grouped batch path is still
    bit-identical to per-record application."""
    rng = random.Random(3)
    _assert_batch_matches_scalar(
        [_make_batch(rng, 16, runs=True) for _ in range(5)], bpr=512.0)


def test_mixed_type_values_match_scalar():
    """Non-numeric/bool/NaN aggregate values keep the scalar try/except,
    first-write-wins semantics on the batch path."""
    rng = random.Random(9)
    specials = ["zz", True, float("nan"), None, 3, 2.5]
    batches = []
    for _ in range(4):
        batch = _make_batch(rng, 20, runs=True)
        for rec in batch:
            rec.value = rng.choice(specials)
        batches.append(batch)
    _assert_batch_matches_scalar(batches)
