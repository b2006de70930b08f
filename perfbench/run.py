"""Repository benchmark: DES workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload twitch-steady --seed 1 --seconds 25
    python3 perfbench/run.py --workload q7-steady --trace 1

One run repeats the workload until ``--seconds`` of wall time are spent
(at least ``MIN_REPS`` times), checks every repetition's outputs, prints
each metric with its unit and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the layer tracer and
reports the per-layer metrics.  The exit code is 1 when any repetition
failed, 2 on a usage error or when the simulator source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fewest repetitions per run, whatever ``--seconds`` says (setup_s is a
#: median over them).
MIN_REPS = 3
#: Wall budget for one invocation; a repetition's watchdog gets what is
#: left of it, so a hung run is killed and reported instead of timing out.
BUDGET_S = 150.0

END_TO_END = (
    ("records_per_s", "records/s"),
    ("setup_s", "s"),
    ("slice_ms.p50", "ms"),
    ("slice_ms.p90", "ms"),
    ("peak_rss_mib", "MiB"),
)

#: The paper's quantities, in simulated seconds.  They are exact for a
#: seed and covered by the output digest, but the seed moves them far more
#: than any end-to-end bound allows, so they are per-layer metrics, also
#: printed (not reported) by untraced runs.
SIM_METRICS = (
    ("metrics.sim_latency_p50_s", "sim_s"),
    ("metrics.sim_latency_p99_s", "sim_s"),
)

PER_LAYER = (
    ("kernel.self_s", "s"),
    ("kernel.events", "count"),
    ("kernel.events_per_record", "events/record"),
    ("kernel.resumes", "count"),
    ("kernel.callbacks", "count"),
    ("channels.self_s", "s"),
    ("channels.deliveries", "count"),
    ("channels.records_per_delivery", "records/delivery"),
    ("operators.self_s", "s"),
    ("operators.records_processed", "count"),
    ("operators.busy_frac_max", "fraction"),
    ("operators.suspended_s", "sim_s"),
    ("windows.self_s", "s"),
    ("windows.calls", "count"),
    ("windows.records_per_call", "records/call"),
    ("state.self_s", "s"),
    ("state.calls", "count"),
    ("state.bytes", "B"),
    ("workloads.self_s", "s"),
    ("workloads.build_s", "s"),
    ("workloads.source_records", "count"),
    ("scaling.self_s", "s"),
    ("scaling.request_s", "s"),
    ("scaling.rescales", "count"),
    ("scaling.records_rerouted", "count"),
    ("scaling.remigrations", "count"),
    ("scaling.sim_migration_s", "sim_s"),
    ("scaling.sim_propagation_s", "sim_s"),
    ("scaling.sim_dependency_s", "sim_s"),
    ("scaling.sim_suspension_s", "sim_s"),
    ("metrics.self_s", "s"),
    ("metrics.latency_samples", "count"),
) + SIM_METRICS + (
    ("shards.setup_s", "s"),
    ("shards.bottleneck_cpu_s", "s"),
    ("shards.cpu_imbalance", "ratio"),
    ("shards.blocked_wait_s", "s"),
    ("shards.blocked_waits", "count"),
    ("shards.grant_rounds", "count"),
    ("shards.frames", "count"),
    ("shards.bytes_shipped", "B"),
    ("shards.null_sent", "count"),
    ("shards.spills", "count"),
    ("shards.replans", "count"),
    ("trace.overhead_frac", "fraction"),
)


def _usage_error(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _usage_error(f"simulator source not found under {SRC}; run from "
                     f"a full checkout")
    # Pin the engine to its defaults: no REPRO_* override may leak in.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        _usage_error(f"imported repro from {repro.__file__}, not from "
                     f"{SRC}")


def host_fingerprint() -> Dict[str, Any]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "loadavg": list(os.getloadavg())}


def calibration_s() -> float:
    """Best-of-3 time of a fixed pure-Python loop: host drift shows up
    here next to the workload numbers."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        table: Dict[int, int] = {}
        acc = 0
        for i in range(1_000_000):
            acc = (acc + i * i) % 1_000_003
            table[i & 1023] = acc
        best = min(best, perf_counter() - t0)
    return best


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def load_reference() -> Dict[str, Dict[str, str]]:
    path = HERE / "reference.json"
    if not path.is_file():
        return {}
    with open(path) as f:
        return json.load(f)["digests"]


class Runner:
    """Repetitions of one workload with failure accounting."""

    def __init__(self, workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = perf_counter()
        self.reps: List[Dict[str, Any]] = []
        self.failures: List[Dict[str, Any]] = []
        self.longest_s = 0.0
        self.expected = load_reference().get(
            workload.digest_group, {}).get(str(seed))

    def remaining_s(self) -> float:
        return BUDGET_S - (perf_counter() - self.started)

    def attempt(self, check=None, **kwargs) -> Optional[Dict[str, Any]]:
        """One repetition; None (and a recorded failure) if it failed.
        ``check(rep)`` may name one more failure condition."""
        from bench_workloads import RunFailed, WatchdogTimeout, run_rep

        index = self.attempted
        t0 = perf_counter()
        try:
            rep = run_rep(self.workload, self.seed,
                          limit_s=self.remaining_s(), **kwargs)
        except WatchdogTimeout as exc:
            return self._fail(index, str(exc), exc.partial["sim_reached"])
        except RunFailed as exc:
            return self._fail(index, str(exc), None)
        except Exception as exc:  # any crash of the program is a failure
            import traceback
            traceback.print_exc(file=sys.stderr)
            return self._fail(index, f"{type(exc).__name__}: {exc}", None)
        finally:
            self.longest_s = max(self.longest_s, perf_counter() - t0)
        if self.expected is None:
            self.expected = rep["digest"]
        problem = (f"digest {rep['digest'][:16]} != expected "
                   f"{self.expected[:16]}"
                   if rep["digest"] != self.expected else
                   check(rep) if check is not None else None)
        if problem:
            return self._fail(index, problem, rep["sim_reached"])
        self.reps.append(rep)
        return rep

    def _fail(self, index: int, reason: str, sim_reached) -> None:
        self.failures.append({"rep": index, "reason": reason,
                              "sim_reached": sim_reached})
        print(f"FAILED rep {index}: {reason} (sim time reached: "
              f"{sim_reached})", file=sys.stderr)
        return None

    def more(self) -> bool:
        if self.failures:
            return False
        if self.remaining_s() < 2 * self.longest_s:
            return False
        done = len(self.reps)
        elapsed = perf_counter() - self.started
        return done < MIN_REPS or elapsed < self.seconds

    @property
    def attempted(self) -> int:
        return len(self.reps) + len(self.failures)


def end_to_end(runner: Runner) -> Dict[str, float]:
    from repro.engine.metrics import percentile

    while runner.more():
        runner.attempt()
    reps = runner.reps
    if not reps:
        return {}
    return {
        "records_per_s": statistics.median(
            r["source_records"] / r["run_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        # Median over repetitions of each one's percentile: a burst of
        # host contention inflates one repetition, not the figure.
        "slice_ms.p50": statistics.median(
            percentile(r["slice_ms"], 50.0) for r in reps),
        "slice_ms.p90": statistics.median(
            percentile(r["slice_ms"], 90.0) for r in reps),
        "peak_rss_mib": peak_rss_mib(),
    }


def per_layer(runner: Runner) -> Dict[str, float]:
    """Untraced baseline repetition, then traced ones."""
    metrics = {name: 0.0 for name, _unit in PER_LAYER}
    base = runner.attempt()
    if base is None:
        return {}
    source = base["source_records"]
    metrics.update({
        "kernel.events": base["events"],
        "kernel.events_per_record": base["events"] / source,
        "operators.records_processed": base["records_processed"],
        "workloads.source_records": source,
        "metrics.latency_samples": base["latency_samples"],
        "metrics.sim_latency_p50_s": base["latency_p50"],
        "metrics.sim_latency_p99_s": base["latency_p99"],
    })
    if runner.workload.shards > 1:
        while runner.more():
            runner.attempt()
        for key in base["shards"]:
            metrics[f"shards.{key}"] = statistics.median(
                r["shards"][key] for r in runner.reps)
        return metrics

    from layer_trace import LayerTracer, entry_points

    metrics["workloads.build_s"] = base["setup_s"]
    before = entry_points()

    def traced_ok(rep: Dict[str, Any]) -> Optional[str]:
        if entry_points() != before:
            return "tracer left wrappers installed"
        if rep["events"] != base["events"]:
            return (f"traced run dispatched {rep['events']} events, "
                    f"untraced {base['events']}")
        return None

    traced: List[Dict[str, float]] = []
    while runner.more() or not traced:
        tracer = LayerTracer()
        rep = runner.attempt(tracer=tracer, check=traced_ok)
        if rep is None:
            break
        traced.append(layer_values(tracer, rep, base))
        tracer.write_spans(str(HERE / "out" / (
            f"spans-{runner.workload.name}-seed{runner.seed}.json")))
    if traced:
        for key in traced[0]:
            metrics[key] = statistics.median(t[key] for t in traced)
    return metrics


def layer_values(tracer, rep: Dict[str, Any],
                 base: Dict[str, Any]) -> Dict[str, float]:
    selfs = tracer.layer_self_s(rep["run_s"])
    counts = tracer.counts
    rescales = rep["rescales"]
    values = {f"{layer}.self_s": selfs[layer]
              for layer in ("kernel", "channels", "operators", "windows",
                            "state", "workloads", "scaling", "metrics")}
    values.update({
        "kernel.resumes": counts["resumes"],
        "kernel.callbacks": counts["callbacks"],
        "channels.deliveries": counts["deliveries"],
        "channels.records_per_delivery": (
            counts["records_delivered"] / counts["deliveries"]
            if counts["deliveries"] else 0.0),
        "operators.busy_frac_max": rep["busy_frac_max"],
        "operators.suspended_s": rep["suspended_s"],
        "windows.calls": counts["window_calls"],
        "windows.records_per_call": (
            counts["window_records"] / counts["window_record_calls"]
            if counts["window_record_calls"] else 0.0),
        "state.calls": counts["state_calls"],
        "state.bytes": rep["state_bytes"],
        "scaling.request_s": rep["request_s"],
        "scaling.rescales": len(rescales),
        "scaling.records_rerouted": sum(
            r["records_rerouted"] for r in rescales),
        "scaling.remigrations": sum(r["remigrations"] for r in rescales),
        "trace.overhead_frac": rep["run_s"] / base["run_s"] - 1.0,
    })
    for metric, key in (("sim_migration_s", "duration"),
                        ("sim_propagation_s", "propagation"),
                        ("sim_dependency_s", "dependency"),
                        ("sim_suspension_s", "suspension")):
        values[f"scaling.{metric}"] = (
            statistics.median(r[key] for r in rescales) if rescales else 0.0)
    return values


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    finally:
        if "bench_workloads" in sys.modules:
            sys.modules["bench_workloads"].stop_helpers()


def _main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _use_checkout_source()
    sys.path.insert(0, str(HERE))
    from bench_workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r} (expected one "
                     f"of: {', '.join(WORKLOADS)})")
    host = host_fingerprint()
    calib = calibration_s()
    print(f"host: {json.dumps(host)}")
    print(f"calibration_s: {calib:.6f}")
    print(f"workload: {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")

    runner = Runner(workload, args.seed, args.seconds)
    if args.trace:
        values, table = per_layer(runner), PER_LAYER
    else:
        values, table = end_to_end(runner), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in table if name in values}
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:>18.6g} {entry['unit']}")
    if not args.trace and runner.reps:
        first = runner.reps[0]
        sim = dict(zip((n for n, _u in SIM_METRICS),
                       (first["latency_p50"], first["latency_p99"])))
        for name, unit in SIM_METRICS:
            print(f"  {name:32s} {sim[name]:>18.6g} {unit} (per layer)")
    failed = len(runner.failures)
    correct = failed == 0 and len(metrics) == len(table)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "host": host,
              "calibration_s": calib, "failures": runner.failures,
              "reps": [{k: v for k, v in r.items() if k != "slice_ms"}
                       for r in runner.reps],
              "metrics": metrics}
    with open(out / f"{workload.name}-seed{args.seed}-trace{args.trace}"
              ".json", "w") as f:
        json.dump(record, f, indent=1, default=repr)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
