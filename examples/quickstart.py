#!/usr/bin/env python3
"""Quickstart: build a keyed pipeline, rescale it on the fly with DRRS.

Builds the smallest interesting job — source → keyed aggregator → sink —
drives it with a generated workload, then scales the aggregator from 2 to 4
instances mid-run using DRRS.  Prints latency around the scaling operation
and the scaling metrics (propagation / dependency / suspension overheads).

Run:  python examples/quickstart.py
"""

from repro import DRRSController, JobGraph, StreamJob
from repro.engine import (KeyedReduceLogic, LatencyMarker, OperatorSpec,
                          Partitioning, Record)


def build_job() -> StreamJob:
    graph = JobGraph("quickstart", num_key_groups=32)
    graph.add_source("source", parallelism=2, service_time=1e-5)
    graph.add_operator(OperatorSpec(
        "counter",
        logic_factory=lambda: KeyedReduceLogic(
            lambda old, record: (old or 0) + record.count),
        parallelism=2,
        service_time=8e-4,          # ~80 % utilisation at the driven rate
        keyed=True,
        initial_state_bytes_per_group=8e6))   # 256 MB total keyed state
    graph.add_sink("sink")
    graph.connect("source", "counter", Partitioning.HASH)
    graph.connect("counter", "sink", Partitioning.FORWARD)
    # Records move through the batched record plane: micro-batches cut the
    # host CPU per simulated record without changing any simulated
    # behaviour (the test suite checks it against a per-record reference).
    return StreamJob(graph).build()


def drive(job: StreamJob, until: float):
    """A simple generator: 2,000 records/s across 64 keys + latency probes."""
    def generator():
        sources = job.sources()
        tick = 0
        while job.sim.now < until:
            for source in sources:
                source.offer(Record(key=f"user-{tick % 64}",
                                    event_time=job.sim.now, count=4))
            if tick % 10 == 0:
                sources[0].offer(LatencyMarker(key=f"user-{tick % 64}"))
            tick += 1
            yield job.sim.timeout(0.004)

    job.sim.spawn(generator())


def main():
    job = build_job()
    drive(job, until=55.0)

    print("warming up (20 s simulated)...")
    job.run(until=20.0)
    pre = job.metrics.latency_stats(10.0, 20.0)
    print(f"  steady-state latency: mean {pre['mean'] * 1e3:.1f} ms, "
          f"p99 {pre['p99'] * 1e3:.1f} ms")

    print("rescaling counter 2 -> 4 instances with DRRS...")
    controller = DRRSController(job)
    done = controller.request_rescale("counter", 4)
    job.run(until=60.0)
    assert done.triggered, "scaling did not finish"

    during = job.metrics.latency_stats(20.0, 60.0)
    metrics = controller.metrics
    print(f"  scaling finished in {metrics.duration:.2f} s simulated")
    print(f"  latency during scaling: mean {during['mean'] * 1e3:.1f} ms, "
          f"peak {during['peak'] * 1e3:.1f} ms")
    print(f"  cumulative propagation delay: "
          f"{metrics.cumulative_propagation_delay() * 1e3:.1f} ms")
    print(f"  average dependency overhead:  "
          f"{metrics.average_dependency_overhead() * 1e3:.1f} ms")
    print(f"  cumulative suspension time:   "
          f"{metrics.total_suspension() * 1e3:.1f} ms")
    print(f"  records re-routed:            {metrics.records_rerouted}")

    assignment = job.assignments["counter"]
    counts = assignment.counts()
    print("  key-groups per instance after scaling:",
          {i: counts.get(i, 0) for i in range(4)})
    print("done.")


if __name__ == "__main__":
    main()
