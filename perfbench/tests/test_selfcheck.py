"""Self-checks of the benchmark harness (short horizons, a few seconds).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench_workloads as bw  # noqa: E402
import run as bench_run  # noqa: E402
from layer_trace import LAYERS, LayerTracer, entry_points  # noqa: E402


def _traced(workload, until):
    before = entry_points()
    base = bw.run_single(workload, 1, until=until)
    tracer = LayerTracer()
    rep = bw.run_single(workload, 1, until=until, tracer=tracer)
    return base, rep, tracer, before


@pytest.mark.parametrize("name,until", [("twitch-steady", 40.0),
                                        ("q8-rescale-storm", 100.0)])
def test_traced_run_matches_untraced_and_unwinds(name, until):
    base, rep, tracer, before = _traced(bw.WORKLOADS[name], until)
    assert rep["digest"] == base["digest"]
    assert rep["events"] == base["events"]
    assert entry_points() == before
    selfs = tracer.layer_self_s(rep["run_s"])
    assert set(selfs) == set(LAYERS)
    assert sum(selfs.values()) == pytest.approx(rep["run_s"], rel=1e-9)
    assert selfs["operators"] > 0 and selfs["channels"] > 0
    assert tracer.counts["resumes"] > 0 and tracer.counts["callbacks"] > 0
    if name == "q8-rescale-storm":
        assert len(rep["rescales"]) == 2
        assert selfs["scaling"] > 0
    else:
        assert selfs["scaling"] == 0.0


def test_deterministic_counts_repeat():
    q7 = bw.WORKLOADS["q7-steady"]
    a, b = (bw.run_single(q7, 3, until=30.0) for _ in range(2))
    for key in ("events", "source_records", "records_processed", "digest"):
        assert a[key] == b[key]
    sharded = bw.WORKLOADS["twitch-shards2"]
    c, d = (bw.run_sharded_rep(sharded, 3, until=60.0) for _ in range(2))
    for key in ("events", "source_records", "digest"):
        assert c[key] == d[key]
    for key in ("frames", "bytes_shipped"):
        assert c["shards"][key] == d["shards"][key] > 0


def test_sharded_matches_single_process_outputs():
    single = bw.run_single(bw.WORKLOADS["twitch-steady"], 2, until=60.0)
    sharded = bw.run_sharded_rep(bw.WORKLOADS["twitch-shards2"], 2,
                                 until=60.0)
    assert sharded["digest"] == single["digest"]


#: Runs one short invocation, then prints the pids of the processes it
#: started that are still there (children of this process, reaped or not).
_CHILDREN_AFTER_RUN = """
import glob, os, sys
import run
code = run.main(sys.argv[1:])
pids = "".join(open(f).read()
               for f in glob.glob(f"/proc/{os.getpid()}/task/*/children"))
print("children:", pids.split())
sys.exit(code)
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="needs /proc")
def test_sharded_run_stops_every_process_it_starts():
    proc = subprocess.run(
        [sys.executable, "-c", _CHILDREN_AFTER_RUN, "--workload",
         "twitch-shards2", "--seconds", "0.1"],
        cwd=HERE.parent, env={**os.environ, "PYTHONPATH": str(HERE)},
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "children: []"


def test_unfinished_rescale_fails_the_run():
    storm = bw.WORKLOADS["q8-rescale-storm"]
    hurried = dataclasses.replace(
        storm, storm=dataclasses.replace(storm.storm, every=2.0))
    with pytest.raises(bw.RunFailed, match="had not completed"):
        bw.run_single(hurried, 1, until=40.0)


def test_watchdog_interrupts_a_hang():
    with pytest.raises(bw.WatchdogTimeout):
        with bw.watchdog(1.0):
            while True:
                pass


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        bench_run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(bw.WORKLOADS)
