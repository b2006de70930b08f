"""Shard-vs-single equivalence: the multi-process kernel is a pure
wall-clock optimization.

A sharded run must produce the *same simulation* as single-process: equal
sink-record multisets, keyed-state digests, watermark traces, latency
samples and per-operator counters — with the credit ledger certifying
that single-process flow control would never have engaged (the one
mechanism that could make the conservative schedule diverge).  These
tests spawn real worker processes.
"""

import multiprocessing
import os
import signal
import sys
import time

import pytest

from repro.engine.operators import SinkLogic
from repro.engine.runtime import JobConfig
from repro.experiments.harness import ExperimentConfig, run_experiment
from repro.simulation.sharded import (DEFAULT_QUANTUM, run_sharded,
                                      run_single_reference,
                                      supports_sharding)
from repro.workloads.nexmark import NexmarkQ7
from repro.workloads.twitch import TwitchWorkload

pytestmark = pytest.mark.skipif(
    sys.platform == "win32" or not hasattr(os, "fork"),
    reason="sharded kernel needs the fork start method")

#: Inbox capacity for shard runs (applied to the single-process reference
#: too — identical config on both sides): the engine default (32) is
#: smaller than one max-size batch, so flow control engages constantly at
#: scale and credit timing becomes consumption-dependent.
_SHARD_CONFIG = JobConfig(inbox_capacity=256)


def _both(workload_cls, *, until, shards):
    single = run_single_reference(
        workload_cls, until=until, job_config=_SHARD_CONFIG,
        collect_sinks=True, trace_watermarks=True)
    multi = run_sharded(
        workload_cls, until=until, shards=shards,
        job_config=_SHARD_CONFIG, collect_sinks=True,
        trace_watermarks=True)
    return single, multi


def _assert_equivalent(single, multi):
    assert multi.backpressure_safe, multi.backpressure_detail
    sv, mv = single.semantic_view(), multi.semantic_view()
    assert set(sv) == set(mv)
    for key in sv:
        assert mv[key] == sv[key], f"semantic_view[{key!r}] diverged"


def test_q7_two_shards_equivalent():
    single, multi = _both(NexmarkQ7, until=30.0, shards=2)
    assert multi.shards == 2
    _assert_equivalent(single, multi)
    # non-vacuous: the run really processed records end to end
    assert multi.total_sink_input() > 0
    assert multi.total_source_output() > 0
    # sink record views (payload-level, not just counts) match exactly
    assert multi.view["sinks"] == single.view["sinks"]
    # watermarks and their traces survived the cut channels bit-for-bit
    assert multi.view["watermarks"] == single.view["watermarks"]
    assert multi.view["watermark_traces"] == single.view["watermark_traces"]
    # keyed-state digests: every operator instance ended in the same state
    assert multi.view["state_digests"] == single.view["state_digests"]


def test_twitch_three_shards_equivalent():
    single, multi = _both(TwitchWorkload, until=20.0, shards=3)
    assert multi.shards >= 2
    _assert_equivalent(single, multi)
    assert multi.total_sink_input() > 0


def test_worker_cpu_accounting_present():
    _, multi = _both(NexmarkQ7, until=10.0, shards=2)
    assert len(multi.worker_cpus) == multi.shards
    assert multi.bottleneck_cpu_s > 0.0
    assert len(multi.events_per_shard) == multi.shards
    assert all(n > 0 for n in multi.events_per_shard)


def test_harness_sharded_run_matches_single():
    """run_experiment(shards=N) reproduces the single-process figures."""

    def config(shards):
        return ExperimentConfig(
            workload=NexmarkQ7(), warmup=5.0, post_duration=15.0,
            job_config=_SHARD_CONFIG, shards=shards)

    ref = run_experiment(config(1))
    shard = run_experiment(config(2))
    assert shard.source_records == ref.source_records
    assert shard.sink_records == ref.sink_records
    assert sorted(shard.latency_series) == sorted(ref.latency_series)
    assert shard.throughput_series == ref.throughput_series
    assert shard.pre_latency == ref.pre_latency
    assert shard.during_latency == ref.during_latency


def test_harness_controller_run_ignores_shards():
    """Scaling-controller runs silently degrade to single-process (the
    rescale machinery needs one global event loop)."""
    from repro.scaling.otfs import OTFSController

    result = run_experiment(ExperimentConfig(
        workload=NexmarkQ7(),
        controller_factory=lambda job: OTFSController(job),
        new_parallelism=6, warmup=5.0, post_duration=10.0, shards=4))
    assert result.controller_name != "no-scale"
    assert result.job is not None  # single-process path keeps the job


def test_supports_sharding_gate_matches_fallbacks():
    assert supports_sharding(_SHARD_CONFIG)
    assert not supports_sharding(_SHARD_CONFIG, telemetry=True)


# ---------------------------------------------------------------------------
# Cut-edge protocol: pickled messages over one pipe per cut shard pair
# ---------------------------------------------------------------------------

def test_sync_counters_present_and_directional():
    """The adaptive quantum merges synchronization rounds: every shard
    takes fewer rounds than a fixed quantum would need to cover the run,
    and the source shard (never blocked) widens its quantum."""
    until = 25.0
    multi = run_sharded(NexmarkQ7, until=until, shards=2,
                        job_config=_SHARD_CONFIG)
    totals = multi.sync_totals()
    assert totals["msgs_sent"] > 0
    assert totals["frames_sent"] > 0
    assert totals["bytes_shipped"] > 0
    assert totals["spills"] == 0
    assert len(multi.sync_per_shard) == multi.shards
    for sync in multi.sync_per_shard:
        assert 0 < sync["grant_rounds"] < until / DEFAULT_QUANTUM
        assert sync["quantum_final"] >= sync["quantum_initial"]
    assert multi.sync_per_shard[0]["quantum_widenings"] > 0


def test_large_messages_block_the_writer_mid_message():
    """A quantum wide enough that the average blob exceeds the Linux pipe
    buffer (64 KiB): the writer blocks mid-message until the reader
    drains, and results still equal single-process."""
    single = run_single_reference(
        NexmarkQ7, until=15.0, job_config=_SHARD_CONFIG,
        collect_sinks=True, trace_watermarks=True)
    multi = run_sharded(
        NexmarkQ7, until=15.0, shards=2, job_config=_SHARD_CONFIG,
        collect_sinks=True, trace_watermarks=True, quantum=5.0)
    totals = multi.sync_totals()
    assert totals["bytes_shipped"] / totals["frames_sent"] > 65536
    _assert_equivalent(single, multi)
    assert multi.view["sinks"] == single.view["sinks"]


# ---------------------------------------------------------------------------
# Worker death: the parent fails loudly and leaves nothing behind
# ---------------------------------------------------------------------------

_KILL_AT = 20.0
_PARENT_PID = os.getpid()


def _kill_in_worker():
    # The parent also builds the workload (the planning probe) but never
    # runs it; only a forked worker may die.
    if os.getpid() != _PARENT_PID:
        os.kill(os.getpid(), signal.SIGKILL)


class _SourceShardDies(NexmarkQ7):
    """Q7 whose source shard SIGKILLs itself at sim-t ``_KILL_AT``."""

    def generators(self, job):
        yield from super().generators(job)

        def killer():
            yield _KILL_AT
            _kill_in_worker()

        yield killer()


class _DyingSink(SinkLogic):
    def on_record(self, record, instance):
        if instance.sim.now >= _KILL_AT:
            _kill_in_worker()
        return super().on_record(record, instance)

    def on_record_at(self, record, instance, at_time):
        if at_time >= _KILL_AT:
            _kill_in_worker()
        return super().on_record_at(record, instance, at_time)


class _SinkShardDies(NexmarkQ7):
    """Q7 whose sink shard SIGKILLs itself on the first record it takes
    at or after sim-t ``_KILL_AT``, while the window shard keeps
    writing into the dead reader's pipe."""

    def build_graph(self):
        graph = super().build_graph()
        graph.operators["q7-sink"].logic_factory = _DyingSink
        return graph


def _shm_listing():
    if not os.path.isdir("/dev/shm"):
        return []
    return sorted(os.listdir("/dev/shm"))


@pytest.mark.parametrize("workload_cls, shard", [
    (_SourceShardDies, 0), (_SinkShardDies, 1)], ids=["source", "sink"])
def test_worker_death_raises_and_leaves_nothing_behind(workload_cls, shard):
    before = _shm_listing()
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match=f"shard {shard} worker died"):
        run_sharded(workload_cls, until=60.0, shards=2,
                    job_config=_SHARD_CONFIG, quantum=5.0)
    assert time.monotonic() - t0 < 30.0
    assert multiprocessing.active_children() == []
    assert _shm_listing() == before


def test_harness_shard_knobs_plumb_through():
    """ExperimentConfig.shard_inbox_capacity reaches the sharded run and
    still reproduces the single-process figures."""

    def config(shards, **kw):
        return ExperimentConfig(
            workload=NexmarkQ7(), warmup=5.0, post_duration=10.0,
            shards=shards, **kw)

    # the reference runs at the same effective config the shard knobs
    # produce (shard_inbox_capacity becomes the engine-wide inbox)
    ref = run_experiment(config(1, job_config=JobConfig(
        inbox_capacity=256)))
    shard = run_experiment(config(2, shard_inbox_capacity=256))
    assert shard.source_records == ref.source_records
    assert shard.sink_records == ref.sink_records
    assert sorted(shard.latency_series) == sorted(ref.latency_series)
    with pytest.raises(ValueError, match="shard_inbox_capacity"):
        ExperimentConfig(workload=NexmarkQ7(), shard_inbox_capacity=0)
