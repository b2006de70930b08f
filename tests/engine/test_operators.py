"""Operator logic classes and the instance runtime loop."""

import sys

import pytest

sys.path.insert(0, "tests")
from helpers import build_keyed_job, drive  # noqa: E402

from repro.engine import (FilterLogic, JobGraph, KeyByLogic,
                          KeyedReduceLogic, MapLogic, OperatorSpec,
                          Partitioning, Record, StreamJob, Watermark)
from repro.engine.operators import PassThroughLogic, SinkLogic
from repro.engine.runtime import JobConfig


class FakeInstance:
    """Minimal stand-in for logic unit tests."""

    class _State:
        def __init__(self):
            self.data = {}
            self.bytes = {}

        def get(self, kg, key, default=None):
            return self.data.get((kg, key), default)

        def put(self, kg, key, value):
            self.data[(kg, key)] = value

        def add_bytes(self, kg, delta):
            self.bytes[kg] = self.bytes.get(kg, 0) + delta

    def __init__(self):
        self.state = self._State()


def test_map_logic_transforms():
    logic = MapLogic(lambda r: r.copy_with(value=(r.value or 0) + 1))
    out = logic.on_record(Record(key="a", value=1), FakeInstance())
    assert len(out) == 1 and out[0].value == 2


def test_filter_logic_predicate():
    logic = FilterLogic(predicate=lambda r: r.key == "keep")
    inst = FakeInstance()
    assert logic.on_record(Record(key="keep"), inst)
    assert logic.on_record(Record(key="drop"), inst) == []


def test_filter_logic_pass_fraction_thins_batches():
    logic = FilterLogic(pass_fraction=0.5)
    out = logic.on_record(Record(key="a", count=100, size_bytes=1000),
                          FakeInstance())
    assert out[0].count == 50
    assert out[0].size_bytes == pytest.approx(500)


def test_keyby_logic_clears_key_group():
    logic = KeyByLogic(lambda r: r.value)
    out = logic.on_record(Record(key="old", key_group=3, value="new"),
                          FakeInstance())
    assert out[0].key == "new"
    assert out[0].key_group is None


def test_keyed_reduce_accumulates_per_key():
    logic = KeyedReduceLogic(lambda old, r: (old or 0) + r.count)
    inst = FakeInstance()
    logic.on_record(Record(key="a", key_group=0, count=2), inst)
    out = logic.on_record(Record(key="a", key_group=0, count=3), inst)
    assert out[0].value == 5
    out_b = logic.on_record(Record(key="b", key_group=0, count=1), inst)
    assert out_b[0].value == 1


def test_keyed_reduce_state_bytes_growth():
    logic = KeyedReduceLogic(lambda old, r: r.count,
                             state_bytes_per_record=10.0)
    inst = FakeInstance()
    logic.on_record(Record(key="a", key_group=2, count=4), inst)
    assert inst.state.bytes[2] == 40.0


def test_end_to_end_record_conservation():
    job = build_keyed_job(collect=True)
    drive(job, until=5.0, count=3, marker_every=0)
    job.run(until=8.0)
    sink = job.sink_logic()
    # 2 sources x 1000 ticks x 3 records
    assert sink.records_in == job.metrics.total_source_output()
    assert sink.records_in > 0


def test_markers_reach_sink_and_record_latency():
    job = build_keyed_job()
    drive(job, until=3.0, marker_every=2)
    job.run(until=6.0)
    stats = job.metrics.latency_stats()
    assert stats["count"] > 100
    assert 0 < stats["mean"] < 1.0


def test_watermark_propagates_min_across_channels():
    job = build_keyed_job()
    job.start()
    sources = job.sources()
    sources[0].offer(Watermark(timestamp=10.0))
    sources[1].offer(Watermark(timestamp=4.0))
    job.run(until=1.0)
    for inst in job.instances("agg"):
        # min of the two source watermarks
        assert inst.current_watermark == 4.0


def test_sink_collects_records():
    job = build_keyed_job(collect=True)
    drive(job, until=1.0, marker_every=0)
    job.run(until=2.0)
    sink = job.sink_logic()
    assert sink.collected
    assert all(isinstance(r, Record) for r in sink.collected)


def test_pause_resume_stops_processing():
    job = build_keyed_job()
    drive(job, until=4.0, marker_every=0)
    job.start()
    job.run(until=1.0)
    agg = job.instances("agg")
    for inst in agg:
        inst.pause()
    before = sum(i.records_processed for i in agg)
    job.run(until=2.0)
    assert sum(i.records_processed for i in agg) == before
    for inst in agg:
        inst.resume()
    job.run(until=4.5)
    assert sum(i.records_processed for i in agg) > before


def _slow_silent_reduce_job(record_plane):
    """source -> slow silent keyed reduce -> sink: the reduce backlogs, so
    the batched plane runs it in analytic consume batches."""
    graph = JobGraph("preempt", num_key_groups=8)
    graph.add_source("src", parallelism=1, service_time=0.00005)
    graph.add_operator(OperatorSpec(
        "agg", logic_factory=lambda: KeyedReduceLogic(
            lambda old, r: (old or 0) + r.count, emit_updates=False),
        parallelism=1, service_time=0.01, keyed=True))
    graph.add_sink("sink")
    graph.connect("src", "agg", Partitioning.HASH)
    graph.connect("agg", "sink", Partitioning.FORWARD)
    job = StreamJob(graph, config=JobConfig(record_plane=record_plane))
    return job.build()


def test_preempt_batch_interrupts_consume_batch_like_per_record_plane():
    """pause() and run_inband() mid-batch interrupt the batch sleep; the
    collapsed batch then matches the per-record plane step for step."""
    def script(record_plane):
        job = _slow_silent_reduce_job(record_plane)
        drive(job, until=2.0, marker_every=0, watermark_every=0)
        job.start()
        inst = job.instances("agg")[0]
        inband = []

        def action(instance):
            inband.append(instance.sim.now)
            return
            yield  # pragma: no cover

        samples = []

        def sample():
            samples.append((job.sim.now, inst.records_processed,
                            inst.busy_seconds))

        job.run(until=0.52)
        in_batch = inst._batch_records is not None
        if in_batch:
            unapplied = len(inst._batch_records) - inst._batch_applied
        inst.pause()
        if in_batch:
            # Only the in-progress member is left armed.
            assert inst._batch_records is None or (
                len(inst._batch_records) - inst._batch_applied == 1)
            assert unapplied > 1
        for t in (0.53, 0.6, 0.9):
            job.run(until=t)
            sample()
        inst.resume()
        job.run(until=1.23)
        in_batch = in_batch and inst._batch_records is not None
        inst.run_inband(action)
        for t in (1.25, 1.5, 3.0, 12.0):
            job.run(until=t)
            sample()
        state = {g.key_group: dict(g.entries) for g in inst.state.groups()}
        return in_batch, samples, inband, state

    batched = script("batched")
    single = script("single")
    # Both preemptions really hit a batch on the batched plane.
    assert batched[0] and not single[0]
    assert batched[1:] == single[1:]
    paused = batched[1][1:3]
    assert paused[0][1:] == paused[1][1:]  # nothing processed while paused
    assert batched[2]


def test_service_time_scales_with_count_and_node_speed():
    job = build_keyed_job()
    inst = job.instances("agg")[0]
    assert inst.service_time(10) == pytest.approx(
        10 * inst.spec.service_time / inst.node.speed)


def test_run_inband_executes_between_elements():
    job = build_keyed_job()
    drive(job, until=2.0, marker_every=0)
    job.start()
    job.run(until=1.0)
    ran = []
    inst = job.instances("agg")[0]

    def action(instance):
        ran.append(instance.sim.now)
        return
        yield  # pragma: no cover

    inst.run_inband(action)
    job.run(until=1.5)
    assert ran and ran[0] >= 1.0


def test_records_processed_counts_physical_records():
    job = build_keyed_job()
    drive(job, until=1.0, count=7, marker_every=0)
    job.run(until=2.0)
    total = sum(i.records_processed for i in job.instances("agg"))
    assert total == job.metrics.total_source_output()
    assert total % 7 == 0
