"""Microbenchmarks: kernel primitives, channel plane, end-to-end workload.

Every bench reports wall-clock throughput (operations or records per
second).  Simulated time is free — these measure how much *host* CPU one
simulated second costs, which is exactly what caps the workload sizes the
reproduction can explore.

The benches are deliberately deterministic in simulated behaviour: the same
scenario the e2e bench times is also covered by the golden-trace test, so a
perf patch that accidentally changes semantics fails the golden test rather
than silently shifting the numbers here.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List, Optional, Tuple

from ..engine.cluster import LinkSpec
from ..engine.records import Record
from ..simulation.kernel import Simulator
from ..simulation.primitives import Signal

__all__ = ["BENCH_SCALES", "run_kernel_bench", "run_e2e_bench",
           "bench_e2e_scenario", "write_bench_files", "compare_bench_docs",
           "config_mismatch_warnings", "format_config",
           "format_delta_table"]

#: Written into every bench document.  /2 added ``record_plane`` /
#: ``max_batch_size`` (the engine defaults the e2e scenario runs under)
#: and the ``stat`` used to reduce the repetitions.  /3 added the kernel
#: ``scheduler`` and ``columnar_available`` to ``config``, the
#: calendar-queue scheduler microbench (``timeout_storm_calendar``), and
#: the multi-scenario e2e results shape of the ``paper`` scale.  /4 added
#: ``shards`` / ``workers`` / ``inbox_capacity`` to ``config`` and the
#: sharded e2e result shape (``sharded`` sub-document per scenario when
#: the run uses more than one worker process).  /5 added
#: ``shard_transport`` to ``config`` and the sync-protocol counters to
#: the ``sharded`` sub-document (``transport``, null messages sent /
#: suppressed, grant rounds, cut-edge bytes shipped, per-shard blocked
#: waits, spills, fallbacks, adaptive-quantum trajectory).  The former
#: ``SHARD_INBOX_CAPACITY`` module constant is now
#: ``JobConfig.shard_inbox_capacity`` (env ``REPRO_SHARD_INBOX``).  /6
#: dropped ``scheduler``/``columnar_available`` and ``timeout_storm_calendar``.
BENCH_SCHEMA = "repro-bench/6"

#: Host-cost operator weights for the shard partitioner, calibrated by
#: profiling the paper-tier runs (per-record session-window work makes
#: event counts alone under-weight `session`).  Workloads not listed fall
#: back to telemetry event counts / uniform weights.
SHARD_WEIGHTS = {
    "twitch": {"twitch-source": 14, "parse": 22, "bot-filter": 19,
               "enrich": 18, "session": 30, "loyalty": 20,
               "twitch-sink": 4},
}

#: Named scales: ``smoke`` for CI, ``full`` for the recorded trajectory,
#: ``paper`` for the paper-scale floor tier (nightly / on-demand CI):
#: 600 simulated seconds of NEXMark Q7 and Q8 plus the 4M-event
#: (4000 tps x 1000 s) Twitch trace.
BENCH_SCALES = {
    "smoke": {"timeout_procs": 50, "timeout_rounds": 200,
              "callback_chain": 20_000, "pingpong_rounds": 20_000,
              "channel_elements": 20_000,
              "e2e": (("q7", 8.0),)},
    "full": {"timeout_procs": 100, "timeout_rounds": 1000,
             "callback_chain": 100_000, "pingpong_rounds": 100_000,
             "channel_elements": 100_000,
             "e2e": (("q7", 30.0),)},
    "paper": {"timeout_procs": 200, "timeout_rounds": 2000,
              "callback_chain": 200_000, "pingpong_rounds": 200_000,
              "channel_elements": 200_000,
              "e2e": (("q7", 600.0), ("q8", 600.0), ("twitch", 1000.0))},
}


def _timed(fn):
    """Run ``fn`` with the collector paused; returns (result, wall_s)."""
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    return result, wall


# ---------------------------------------------------------------------------
# Kernel benches
# ---------------------------------------------------------------------------

def bench_timeout_storm(procs: int, rounds: int) -> Dict[str, float]:
    """Many processes sleeping on timeouts: pure queue + resume throughput."""
    sim = Simulator()

    def worker(delay):
        for _ in range(rounds):
            yield sim.timeout(delay)

    for i in range(procs):
        sim.spawn(worker(0.001 * (1 + (i % 7))))
    _, wall = _timed(sim.run)
    events = sim.events_processed
    return {"events": events, "wall_s": wall,
            "events_per_s": events / wall if wall else 0.0}


def bench_callback_chain(length: int) -> Dict[str, float]:
    """A chain of ``call_in`` callbacks: the no-process scheduling path."""
    sim = Simulator()
    state = {"left": length}

    def tick():
        state["left"] -= 1
        if state["left"] > 0:
            sim.call_in(0.001, tick)

    sim.call_in(0.001, tick)
    _, wall = _timed(sim.run)
    return {"callbacks": length, "wall_s": wall,
            "callbacks_per_s": length / wall if wall else 0.0}


def bench_event_pingpong(rounds: int) -> Dict[str, float]:
    """Two processes alternating through Signal fire/wait."""
    sim = Simulator()
    ping, pong = Signal(sim), Signal(sim)
    done = {"count": 0}

    def left():
        for _ in range(rounds):
            ping.fire()
            yield pong.wait()
            done["count"] += 1

    def right():
        for _ in range(rounds):
            yield ping.wait()
            pong.fire()

    sim.spawn(right())
    sim.spawn(left())
    _, wall = _timed(sim.run)
    return {"rounds": done["count"], "wall_s": wall,
            "rounds_per_s": done["count"] / wall if wall else 0.0}


# ---------------------------------------------------------------------------
# Channel bench
# ---------------------------------------------------------------------------

class _BenchReceiver:
    """Minimal stand-in for an OperatorInstance input side."""

    def __init__(self, sim):
        self.sim = sim
        self.wake = Signal(sim)
        self.received = 0

    def on_control(self, channel, element):  # pragma: no cover - unused
        pass


def bench_channel_throughput(elements: int) -> Dict[str, float]:
    """Producer -> Channel (serialize + deliver) -> consumer round trips."""
    from ..engine.channels import Channel, InputChannel

    sim = Simulator()
    link = LinkSpec(bandwidth=1e9, latency=0.0001)
    channel = Channel(sim, link, name="bench", outbox_capacity=64,
                      inbox_capacity=64)
    receiver = _BenchReceiver(sim)
    input_channel = InputChannel(receiver, name="bench-in")
    channel.attach(input_channel)

    def producer():
        for i in range(elements):
            yield channel.send(Record(key=i % 128, key_group=i % 128,
                                      event_time=float(i), count=1,
                                      size_bytes=64.0))

    def consumer():
        while receiver.received < elements:
            if input_channel.queue:
                input_channel.pop()
                receiver.received += 1
            else:
                yield receiver.wake.wait()

    sim.spawn(producer(), name="producer")
    sim.spawn(consumer(), name="consumer")
    _, wall = _timed(sim.run)
    return {"elements": receiver.received, "wall_s": wall,
            "elements_per_s": receiver.received / wall if wall else 0.0,
            "kernel_events": sim.events_processed}


# ---------------------------------------------------------------------------
# End-to-end bench
# ---------------------------------------------------------------------------

#: Scenario labels written into e2e result dicts, per workload kind.
_E2E_LABELS = {"q7": "nexmark-q7", "q8": "nexmark-q8", "twitch": "twitch"}


def bench_e2e_scenario(kind: str, until: float, shards: int = 1,
                       transport: Optional[str] = None,
                       inbox: Optional[int] = None) -> Dict[str, float]:
    """One end-to-end workload (quick scenario config, no scaling).

    ``records_per_sec`` counts *physical* source records (batch entities ×
    count) per wall-clock second — the number that caps every figure run.

    With ``shards > 1`` the scenario runs on the sharded multi-process
    kernel *and* its single-process reference at the same (shard-profile)
    config, and the result additionally records the partition plan, the
    flow-control certification, result equivalence, the cut-edge
    sync-protocol counters, and two speedups: ``measured`` (wall-clock,
    meaningful only with >= ``shards`` free cores) and ``critical_path``
    (single CPU over bottleneck-shard CPU — the hardware-independent
    pipeline number).  ``transport`` picks the cut-edge data plane
    ("auto"/"shm"/"pipe"; None = engine default) and ``inbox`` overrides
    the shard flow-control window
    (:attr:`~repro.engine.runtime.JobConfig.shard_inbox_capacity`).
    """
    from ..experiments.scenarios import QUICK, make_workload

    if shards > 1:
        return _bench_e2e_sharded(kind, until, shards, transport, inbox)

    workload = make_workload(kind, QUICK)
    t0 = time.perf_counter()
    job = workload.build()
    build_s = time.perf_counter() - t0
    _, run_s = _timed(lambda: job.run(until=until))
    source = job.metrics.total_source_output()
    sink = job.metrics.total_sink_input()
    events = job.sim.events_processed
    return {
        "scenario": f"{_E2E_LABELS[kind]}/quick/until={until:g}",
        "sim_seconds": until,
        "source_records": source,
        "sink_records": sink,
        "kernel_events": events,
        "phases": {"build_s": build_s, "run_s": run_s},
        "wall_s": run_s,
        "records_per_sec": source / run_s if run_s else 0.0,
        "events_per_sec": events / run_s if run_s else 0.0,
        "sim_seconds_per_wall_second": until / run_s if run_s else 0.0,
    }


def _bench_e2e_sharded(kind: str, until: float, shards: int,
                       transport: Optional[str] = None,
                       inbox: Optional[int] = None) -> Dict:
    """Sharded e2e scenario: sharded run + same-config single reference."""
    import dataclasses

    from ..engine.runtime import JobConfig
    from ..experiments.scenarios import QUICK, make_workload
    from ..simulation.sharded import run_sharded, run_single_reference

    # The shard flow-control window (shard_inbox_capacity, default 512:
    # the engine default of 32 is smaller than one max-size batch, so at
    # paper scale flow control would engage constantly and the credit
    # ledger could not certify the run) becomes the engine-wide inbox for
    # *both* runs — the comparison is always same-config.
    config = JobConfig(shards=shards, shard_inbox_capacity=inbox,
                       shard_transport=transport)
    config = dataclasses.replace(config,
                                 inbox_capacity=config.shard_inbox_capacity)

    def factory():
        return make_workload(kind, QUICK)

    single = run_single_reference(factory, until=until, job_config=config)
    sharded = run_sharded(factory, until=until, shards=shards,
                          job_config=config,
                          weights=SHARD_WEIGHTS.get(kind))
    equal = single.semantic_view() == sharded.semantic_view()
    run_s = sharded.wall_s
    source = sharded.total_source_output()
    single_cpu = single.worker_cpus[0] if single.worker_cpus else 0.0
    bottleneck = sharded.bottleneck_cpu_s
    return {
        "scenario": (f"{_E2E_LABELS[kind]}/quick/until={until:g}"
                     f"/shards={shards}"),
        "sim_seconds": until,
        "source_records": source,
        "sink_records": sharded.total_sink_input(),
        "kernel_events": sharded.kernel_events,
        "wall_s": run_s,
        "records_per_sec": source / run_s if run_s else 0.0,
        "sim_seconds_per_wall_second": until / run_s if run_s else 0.0,
        "sharded": {
            "shards_requested": shards,
            "workers": sharded.shards,
            "plan": [list(s) for s in sharded.plan.shards]
            if sharded.plan else [],
            "replans": sharded.replans,
            "forbidden_cuts": sharded.forbidden_cuts,
            "backpressure_safe": sharded.backpressure_safe,
            "results_equal_to_single": equal,
            "worker_wall_s": sharded.worker_walls,
            "worker_cpu_s": sharded.worker_cpus,
            "single_wall_s": single.wall_s,
            "single_cpu_s": single_cpu,
            "bottleneck_cpu_s": bottleneck,
            "speedup_measured": (single.wall_s / run_s) if run_s else 0.0,
            "speedup_critical_path": (single_cpu / bottleneck)
            if bottleneck else 0.0,
            "transport": sharded.transport,
            "inbox_capacity": config.shard_inbox_capacity,
            "sync": sharded.sync_totals(),
            # Per-shard counters minus the raw blocked-wait intervals
            # (those feed the Chrome-trace exporter, not the bench doc).
            "sync_per_shard": [
                {k: v for k, v in s.items() if k != "blocked_intervals"}
                for s in sharded.sync_per_shard],
        },
    }


def bench_e2e_q7(until: float) -> Dict[str, float]:
    """NEXMark Q7 hot path (the historical single-scenario e2e bench)."""
    return bench_e2e_scenario("q7", until)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

#: Default repetitions per bench; the fastest run is reported.  Single-box
#: wall-clock throughput fluctuates far more than the code under test, so
#: best-of-N (same N used for the recorded pre-PR baseline) is the most
#: reproducible point estimate.  CI uses ``--best-of 5 --stat median``
#: instead: the median damps the occasional anomalously-quiet run that
#: best-of rewards, which matters when two *different* commits are being
#: compared rather than two interleaved runs of the same harness.
BEST_OF = 3


def _reduce_runs(fn, args, best_of: int, stat: str) -> Dict[str, float]:
    runs = [fn(*args) for _ in range(best_of)]
    runs.sort(key=lambda r: r["wall_s"])
    if stat == "best":
        return runs[0]
    if stat == "median":
        # Pick an actual run (lower middle for even N) so every metric in
        # the reported dict comes from one self-consistent measurement.
        return runs[(len(runs) - 1) // 2]
    raise ValueError(f"unknown stat: {stat!r} (want 'best' or 'median')")


def _engine_config(shards: int = 1, transport: Optional[str] = None,
                   inbox: Optional[int] = None) -> Dict[str, Any]:
    """The engine settings the e2e scenarios run under."""
    from ..engine.runtime import JobConfig

    config = JobConfig(shard_inbox_capacity=inbox,
                       shard_transport=transport)
    effective_inbox = (config.shard_inbox_capacity if shards > 1
                       else config.inbox_capacity)
    return {"record_plane": config.record_plane,
            "max_batch_size": config.max_batch_size,
            "shards": shards,
            "inbox_capacity": effective_inbox,
            "shard_transport": config.shard_transport}


def _check_scale(scale: str) -> Dict[str, Any]:
    params = BENCH_SCALES.get(scale)
    if params is None:
        raise ValueError(
            f"unknown bench scale: {scale!r} "
            f"(expected one of: {', '.join(sorted(BENCH_SCALES))})")
    return params


def run_kernel_bench(scale: str = "full", best_of: int = BEST_OF,
                     stat: str = "best") -> Dict[str, Any]:
    params = _check_scale(scale)
    storm_args = (params["timeout_procs"], params["timeout_rounds"])
    results = {
        "timeout_storm": _reduce_runs(bench_timeout_storm, storm_args,
                                      best_of, stat),
        "callback_chain": _reduce_runs(bench_callback_chain,
                                       (params["callback_chain"],),
                                       best_of, stat),
        "event_pingpong": _reduce_runs(bench_event_pingpong,
                                       (params["pingpong_rounds"],),
                                       best_of, stat),
        "channel_throughput": _reduce_runs(bench_channel_throughput,
                                           (params["channel_elements"],),
                                           best_of, stat),
    }
    return {"schema": BENCH_SCHEMA, "bench": "kernel", "scale": scale,
            "best_of": best_of, "stat": stat, "config": _engine_config(),
            "results": results}


def run_e2e_bench(scale: str = "full", best_of: int = BEST_OF,
                  stat: str = "best", shards: int = 1,
                  transport: Optional[str] = None,
                  inbox: Optional[int] = None) -> Dict[str, Any]:
    params = _check_scale(scale)
    scenarios = params["e2e"]
    args_tail = (shards, transport, inbox)
    if len(scenarios) == 1:
        # Single-scenario scales keep the flat /2 results shape so the
        # recorded trajectory and committed baselines stay comparable.
        kind, until = scenarios[0]
        results: Dict[str, Any] = _reduce_runs(
            bench_e2e_scenario, (kind, until) + args_tail, best_of, stat)
    else:
        results = {kind: _reduce_runs(bench_e2e_scenario,
                                      (kind, until) + args_tail,
                                      best_of, stat)
                   for kind, until in scenarios}
    return {"schema": BENCH_SCHEMA, "bench": "e2e", "scale": scale,
            "best_of": best_of, "stat": stat,
            "config": _engine_config(shards, transport, inbox),
            "results": results}


def _attach_baseline(doc: Dict[str, Any]) -> None:
    """Embed the recorded pre-PR numbers and speedups into a bench doc."""
    from .baseline import PRE_PR_BASELINE

    base = PRE_PR_BASELINE.get(doc["bench"], {}).get(doc["scale"])
    if base is None:
        return
    doc["pre_pr"] = base
    if doc["bench"] == "e2e":
        ours = doc["results"].get("records_per_sec", 0.0)
        theirs = base.get("records_per_sec", 0.0)
        if theirs:
            doc["speedup_vs_pre_pr"] = ours / theirs
    else:
        speedups = {}
        for name, result in doc["results"].items():
            ref = base.get(name, {})
            for key, value in result.items():
                if key.endswith("_per_s") and ref.get(key):
                    speedups[name] = value / ref[key]
        doc["speedup_vs_pre_pr"] = speedups


def write_bench_files(output_dir: str = ".",
                      scale: str = "full",
                      which: Optional[str] = None,
                      best_of: Optional[int] = None,
                      stat: str = "best",
                      shards: int = 1,
                      transport: Optional[str] = None,
                      inbox: Optional[int] = None) -> Dict[str, str]:
    """Run the suites and write ``BENCH_kernel.json`` / ``BENCH_e2e.json``.

    Returns {bench name: written path}.  ``which`` limits to one suite.
    ``shards`` > 1 runs the e2e scenarios on the sharded kernel (the
    kernel microbenches are single-process by construction);
    ``transport`` / ``inbox`` select the cut-edge data plane and
    flow-control window for those runs (None = engine defaults).
    """
    import json
    import os

    if best_of is None:
        best_of = BEST_OF
    if best_of < 1:
        raise ValueError(f"best_of must be >= 1, got {best_of}")
    _check_scale(scale)
    os.makedirs(output_dir, exist_ok=True)
    written = {}
    runners = {"kernel": run_kernel_bench, "e2e": run_e2e_bench}
    for name, runner in runners.items():
        if which is not None and name != which:
            continue
        if name == "e2e":
            doc = runner(scale, best_of=best_of, stat=stat, shards=shards,
                         transport=transport, inbox=inbox)
        else:
            doc = runner(scale, best_of=best_of, stat=stat)
        _attach_baseline(doc)
        path = os.path.join(output_dir, f"BENCH_{name}.json")
        with open(path, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        written[name] = path
    return written


# ---------------------------------------------------------------------------
# Baseline comparison (the CI regression gate)
# ---------------------------------------------------------------------------

def _e2e_scenarios(doc: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """An e2e doc's results as {display name: result dict}.

    Single-scenario docs (smoke/full, and every /2 doc) store one flat Q7
    result; the paper scale stores one result per workload.
    """
    results = doc["results"]
    if "records_per_sec" in results:
        return {"e2e_q7": results}
    return {f"e2e_{name}": result for name, result in results.items()}


def _throughput_metrics(doc: Dict[str, Any]) -> Dict[Tuple[str, str], float]:
    """Flatten a bench doc to {(bench name, metric): value} throughputs."""
    metrics = {}
    if doc["bench"] == "e2e":
        for name, result in _e2e_scenarios(doc).items():
            value = result.get("records_per_sec")
            if value:
                metrics[(name, "records_per_sec")] = value
    else:
        for name, result in doc["results"].items():
            for key, value in result.items():
                if key.endswith("_per_s") and value:
                    metrics[(name, key)] = value
    return metrics


def _event_counts(doc: Dict[str, Any]) -> Dict[str, int]:
    """Deterministic kernel event counts recorded by a bench doc."""
    counts = {}
    if doc["bench"] == "e2e":
        for name, result in _e2e_scenarios(doc).items():
            events = result.get("kernel_events")
            if events is not None:
                counts[name] = events
    else:
        for name, result in doc["results"].items():
            if "kernel_events" in result:
                counts[name] = result["kernel_events"]
    return counts


def compare_bench_docs(current: Dict[str, Any], baseline: Dict[str, Any],
                       threshold: float = 0.10,
                       ) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Compare a fresh bench doc against a recorded baseline doc.

    Returns ``(rows, regressions)``: one row per throughput metric present
    in both docs (with the relative delta), and a list of human-readable
    regression descriptions for every metric that dropped by more than
    ``threshold``.  Event-count drift between docs of the same code is a
    *semantics* signal, not noise, so mismatched ``kernel_events`` are
    flagged too — but as rows only, never as perf regressions (a
    legitimate perf patch changes event counts on purpose).
    """
    if current["bench"] != baseline["bench"]:
        raise ValueError(
            f"bench mismatch: current is {current['bench']!r}, "
            f"baseline is {baseline['bench']!r}")
    if current.get("scale") != baseline.get("scale"):
        raise ValueError(
            f"scale mismatch: current is {current.get('scale')!r}, "
            f"baseline is {baseline.get('scale')!r} — deltas between "
            "different scales are meaningless")
    ours = _throughput_metrics(current)
    theirs = _throughput_metrics(baseline)
    rows: List[Dict[str, Any]] = []
    regressions: List[str] = []
    for key in sorted(theirs):
        if key not in ours:
            continue
        name, metric = key
        delta = ours[key] / theirs[key] - 1.0
        regressed = delta < -threshold
        rows.append({"bench": name, "metric": metric,
                     "baseline": theirs[key], "current": ours[key],
                     "delta_pct": 100.0 * delta, "regressed": regressed})
        if regressed:
            regressions.append(
                f"{name}.{metric}: {ours[key]:,.0f} vs baseline "
                f"{theirs[key]:,.0f} ({100.0 * delta:+.1f}%, "
                f"threshold -{100.0 * threshold:.0f}%)")
    our_events, their_events = _event_counts(current), _event_counts(baseline)
    for name in sorted(their_events):
        if name in our_events and our_events[name] != their_events[name]:
            rows.append({"bench": name, "metric": "kernel_events",
                         "baseline": their_events[name],
                         "current": our_events[name],
                         "delta_pct": None, "regressed": False})
    return rows, regressions


#: Config keys whose mismatch makes a bench comparison apples-to-oranges.
_CONFIG_COMPARE_KEYS = ("record_plane", "max_batch_size", "shards",
                        "inbox_capacity", "shard_transport")


def config_mismatch_warnings(current: Dict[str, Any],
                             baseline: Dict[str, Any]) -> List[str]:
    """Warnings for engine-config differences between two bench docs.

    A delta between runs under different record planes or shard counts
    measures the *config*, not the code under test; callers should
    surface both configs next to the delta table instead of comparing
    silently.  Keys absent from one doc (older schemas) are
    reported as unrecorded rather than assumed equal.
    """
    ours = current.get("config") or {}
    theirs = baseline.get("config") or {}
    warnings = []
    for key in _CONFIG_COMPARE_KEYS:
        a, b = ours.get(key), theirs.get(key)
        if a == b:
            continue
        if b is None and key not in theirs:
            warnings.append(
                f"baseline does not record config.{key} "
                f"(schema {baseline.get('schema', '?')}); current runs "
                f"with {key}={a!r}")
        else:
            warnings.append(
                f"config mismatch: current {key}={a!r} vs baseline "
                f"{key}={b!r} — deltas reflect the config change, not "
                "the code under test")
    return warnings


def format_config(doc: Dict[str, Any]) -> str:
    """One-line rendering of a bench doc's engine config."""
    config = doc.get("config") or {}
    parts = [f"{k}={config[k]!r}" for k in sorted(config)]
    return ", ".join(parts) if parts else "(no config recorded)"


def format_delta_table(rows: List[Dict[str, Any]],
                       markdown: bool = False) -> str:
    """Render compare rows as a console or GitHub-job-summary table."""
    header = ("bench", "metric", "baseline", "current", "delta")
    body = []
    for row in rows:
        if row["delta_pct"] is None:
            delta = "events changed"
        else:
            delta = f"{row['delta_pct']:+.1f}%"
            if row["regressed"]:
                delta += " REGRESSED"
        body.append((row["bench"], row["metric"],
                     f"{row['baseline']:,.0f}", f"{row['current']:,.0f}",
                     delta))
    if markdown:
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "---|" * len(header)]
        lines += ["| " + " | ".join(cells) + " |" for cells in body]
        return "\n".join(lines)
    widths = [max(len(str(cells[i])) for cells in [header] + body)
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines += ["  ".join(c.ljust(w) for c, w in zip(cells, widths))
              for cells in body]
    return "\n".join(lines)
