"""The benchmark's workloads and one timed repetition of each.

Everything here drives the simulator through its public entry points:
``make_workload`` / ``Workload.build``, ``StreamJob.run``,
``DRRSController.request_rescale``, ``run_sharded``,
``MetricsCollector.latency_stats`` and ``ScalingMetrics``.  The program
sees only the generated workload; the seed picks the generator's inputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import multiprocessing
import signal
import statistics
import warnings
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: Simulated seconds per timed slice: 1200-2000 slices per repetition.
SLICE_S = 0.5
#: Inbox window of the Twitch shard profile (both Twitch workloads).
SHARD_INBOX = 512
#: Fresh builds per single-process repetition; ``setup_s`` is their
#: median (the last one is the job that runs).
SETUP_BUILDS = 5
#: Marker latency must keep arriving up to this close to the horizon.
LIVENESS_WINDOW_S = 10.0


@dataclasses.dataclass(frozen=True)
class Storm:
    """Alternating DRRS rescales of one operator."""

    operator: str
    first_at: float
    every: float
    low: int
    high: int

    def request_times(self, until: float) -> List[float]:
        times, t = [], self.first_at
        while t < until:
            times.append(t)
            t += self.every
        return times


@dataclasses.dataclass(frozen=True)
class BenchWorkload:
    name: str
    kind: str
    until: float
    #: Key of this workload's outputs in ``reference.json``.
    digest_group: str
    shards: int = 1
    inbox: Optional[int] = None
    storm: Optional[Storm] = None


#: Why each workload is here: README.md and BENCHMARK.json.
WORKLOADS: Dict[str, BenchWorkload] = {w.name: w for w in (
    BenchWorkload("q7-steady", "q7", 600.0, digest_group="q7-steady"),
    BenchWorkload("twitch-steady", "twitch", 1000.0, digest_group="twitch",
                  inbox=SHARD_INBOX),
    BenchWorkload("q8-rescale-storm", "q8", 630.0,
                  digest_group="q8-rescale-storm",
                  storm=Storm("q8-join", first_at=30.0, every=40.0,
                              low=8, high=12)),
    BenchWorkload("twitch-shards2", "twitch", 1000.0, digest_group="twitch",
                  shards=2, inbox=SHARD_INBOX),
)}


class RunFailed(Exception):
    """A repetition that finished but broke a correctness condition."""


class WatchdogTimeout(BaseException):
    """Raised by the wall-clock watchdog; a BaseException so no handler
    inside the simulator can swallow it."""


class watchdog:
    """Interrupt the enclosed block after ``seconds`` of wall time."""

    def __init__(self, seconds: float):
        self.seconds = max(1.0, seconds)

    def _fire(self, _signum, _frame):
        raise WatchdogTimeout(f"wall-clock watchdog fired after "
                              f"{self.seconds:.0f} s")

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


@contextlib.contextmanager
def collector_paused():
    """Collect, then pause the cyclic GC for the enclosed block, as
    ``repro bench`` does: collector pauses are millisecond spikes whose
    timing depends on the heap, and they would set the slice tail.  The
    workloads create few reference cycles, so peak RSS barely moves."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def job_config(workload: BenchWorkload):
    from repro.engine.runtime import JobConfig

    if workload.inbox is None:
        return JobConfig(shards=workload.shards)
    return JobConfig(shards=workload.shards, inbox_capacity=workload.inbox,
                     shard_inbox_capacity=workload.inbox)


def workload_factory(workload: BenchWorkload, seed: int) -> Callable:
    from repro.experiments.scenarios import QUICK, make_workload

    def factory():
        return make_workload(workload.kind, QUICK, seed=seed)
    return factory


def digest(view: Dict[str, Any]) -> str:
    """Order-independent digest of a run's semantic view."""
    view = dict(view)
    for key in ("latency_samples", "source_events", "sink_events"):
        view[key] = sorted(view[key])
    view["custom"] = {k: sorted(v) for k, v in view["custom"].items()}
    encoder = json.JSONEncoder(sort_keys=True, default=repr,
                               separators=(",", ":"))
    hasher = hashlib.sha256()
    for chunk in encoder.iterencode(view):
        hasher.update(chunk.encode())
    return hasher.hexdigest()


def _rescale_record(metrics) -> Dict[str, Any]:
    return {"started_at": metrics.started_at,
            "duration": metrics.duration,
            "propagation": metrics.cumulative_propagation_delay(),
            "dependency": metrics.average_dependency_overhead(),
            "suspension": metrics.total_suspension(),
            "records_rerouted": metrics.records_rerouted,
            "remigrations": metrics.remigrations}


def run_single(workload: BenchWorkload, seed: int, *,
               until: Optional[float] = None, tracer=None,
               limit_s: float = 60.0) -> Dict[str, Any]:
    """One single-process repetition: build, run in slices, check.

    A ``tracer`` is installed for the build and run and removed before
    the outputs are collected.

    Returns a dict of measurements; raises on any failed condition.  A
    watchdog kill carries the simulated time reached on the exception's
    ``partial`` dict.  ``run_s`` covers ``StreamJob.run`` and the rescale
    requests; ``slice_ms`` is each slice's wall ms per simulated second.
    """
    until = workload.until if until is None else until
    factory = workload_factory(workload, seed)
    reached = 0.0
    try:
        if tracer is not None:
            tracer.install()
        with watchdog(limit_s), collector_paused():
            builds = []
            for _ in range(SETUP_BUILDS):
                t0 = perf_counter()
                job = factory().build(job_config=job_config(workload))
                builds.append(perf_counter() - t0)
            setup_s = statistics.median(builds)
            controller = None
            storm = workload.storm
            requests: Dict[float, int] = {}
            if storm is not None:
                from repro.core.drrs import DRRSController
                controller = DRRSController(job)
                for i, t in enumerate(storm.request_times(until)):
                    requests[t] = storm.high if i % 2 == 0 else storm.low
            rescales: List[Any] = []
            request_s = 0.0
            slices: List[float] = []
            run_s = 0.0
            steps = int(round(until / SLICE_S))
            for step in range(1, steps + 1):
                t = step * SLICE_S
                s0 = perf_counter()
                job.run(until=t)
                dt = perf_counter() - s0
                slices.append(dt)
                run_s += dt
                reached = job.sim.now
                target = requests.get(t)
                if target is not None:
                    if rescales and rescales[-1].finished_at is None:
                        raise RunFailed(
                            f"rescale requested at "
                            f"{rescales[-1].started_at:g} s had not "
                            f"completed by {t:g} s")
                    r0 = perf_counter()
                    if tracer is not None:
                        tracer.call("scaling", controller.request_rescale,
                                    storm.operator, target)
                    else:
                        controller.request_rescale(storm.operator, target)
                    dt = perf_counter() - r0
                    request_s += dt
                    slices[-1] += dt
                    run_s += dt
                    rescales.append(controller.metrics)
    except WatchdogTimeout as exc:
        exc.partial = {"sim_reached": reached}
        raise
    finally:
        if tracer is not None:
            tracer.uninstall()
    if rescales and rescales[-1].finished_at is None:
        raise RunFailed(f"rescale requested at {rescales[-1].started_at:g} "
                        f"s had not completed by {until:g} s")
    samples = job.metrics.latency_samples
    if not any(t >= until - LIVENESS_WINDOW_S for t, _ in samples):
        raise RunFailed(f"no latency marker arrived in the last "
                        f"{LIVENESS_WINDOW_S:g} sim-s")

    from repro.simulation.sharded import collect_run_view
    view = collect_run_view(job, list(job.graph.operators))
    stats = job.metrics.latency_stats()
    instances = job.all_instances()
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "slice_ms": [dt / SLICE_S * 1e3 for dt in slices],
        "sim_reached": job.sim.now,
        "source_records": job.metrics.total_source_output(),
        "sink_records": job.metrics.total_sink_input(),
        "events": job.sim.events_processed,
        "digest": digest(view),
        "latency_p50": stats["p50"],
        "latency_p99": stats["p99"],
        "latency_samples": stats["count"],
        "rescales": [_rescale_record(m) for m in rescales],
        "request_s": request_s,
        "records_processed": sum(i.records_processed for i in instances),
        "busy_frac_max": max(i.busy_seconds for i in instances) / until,
        "suspended_s": sum(i.suspended_seconds for i in instances),
        "state_bytes": sum(i.state.total_bytes() for i in instances),
    }


def run_sharded_rep(workload: BenchWorkload, seed: int, *,
                    until: Optional[float] = None,
                    limit_s: float = 60.0) -> Dict[str, Any]:
    """One sharded repetition through ``run_sharded``."""
    from repro.simulation.sharded import run_sharded

    until = workload.until if until is None else until
    try:
        with watchdog(limit_s), collector_paused(), \
                warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            t0 = perf_counter()
            result = run_sharded(workload_factory(workload, seed),
                                 until=until, shards=workload.shards,
                                 job_config=job_config(workload))
            total_s = perf_counter() - t0
    except WatchdogTimeout as exc:
        reap_workers()
        exc.partial = {"sim_reached": None}
        raise
    degraded = [str(w.message) for w in seen if "degraded" in str(w.message)]
    if degraded or result.shards != workload.shards:
        raise RunFailed(f"sharded run degraded to {result.shards} "
                        f"process(es): {degraded}")
    if not result.backpressure_safe:
        raise RunFailed("sharded run not certified (backpressure_safe is "
                        f"False): {result.backpressure_detail[:3]}")
    view = result.semantic_view()
    run_s = max(result.worker_walls)
    sync = result.sync_totals()
    cpus = result.worker_cpus
    stats = _latency_stats(view["latency_samples"])
    return {
        "setup_s": total_s - run_s,
        "run_s": run_s,
        # run_sharded reports no progress inside a run: the whole horizon
        # is one slice.
        "slice_ms": [run_s / until * 1e3],
        "sim_reached": until,
        "source_records": result.total_source_output(),
        "sink_records": result.total_sink_input(),
        "events": result.kernel_events,
        "digest": digest(view),
        "latency_p50": stats["p50"],
        "latency_p99": stats["p99"],
        "latency_samples": stats["count"],
        "rescales": [],
        "records_processed": sum(view["records_processed"].values()),
        "shards": {
            "setup_s": total_s - run_s,
            "bottleneck_cpu_s": result.bottleneck_cpu_s,
            "cpu_imbalance": max(cpus) / min(cpus),
            "blocked_wait_s": sync["blocked_wait_s"],
            "blocked_waits": sync["blocked_waits"],
            "grant_rounds": sync["grant_rounds"],
            "frames": sync["frames_sent"],
            "bytes_shipped": sync["bytes_shipped"],
            "null_sent": sync["null_sent"],
            "spills": sync["spills"],
            "replans": result.replans,
        },
    }


def reap_workers() -> None:
    """Stop and wait for every shard worker still running.

    ``run_sharded`` joins its workers on success; after a watchdog kill
    or a crash one may be left, so terminate it, then kill it if it
    ignores that."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()


def stop_helpers() -> None:
    """Stop every process this run started and wait until each has ended.

    Besides the shard workers, the shared-memory rings start the
    ``multiprocessing`` resource tracker, a process that would otherwise
    outlive this one until it notices the exit.  Workers go first: they
    hold the tracker's pipe open."""
    reap_workers()
    from multiprocessing import resource_tracker

    # Closes the tracker's pipe and waits for it to exit (CPython 3.8+).
    resource_tracker._resource_tracker._stop()


def _latency_stats(samples) -> Dict[str, float]:
    from repro.engine.metrics import MetricsCollector

    collector = MetricsCollector()
    for t, latency in samples:
        collector.record_latency(t, latency)
    return collector.latency_stats()


def run_rep(workload: BenchWorkload, seed: int, **kwargs) -> Dict[str, Any]:
    if workload.shards > 1:
        return run_sharded_rep(workload, seed, **kwargs)
    return run_single(workload, seed, **kwargs)
