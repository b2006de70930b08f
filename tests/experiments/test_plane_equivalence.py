"""Batched vs. per-record plane: bit-identical simulated behaviour.

The batched record plane is a pure wall-clock optimization — micro-batches
change *when host CPU is spent*, never what the simulation computes.  These
tests run the same scenarios under ``record_plane="batched"`` and
``"single"`` and require the full semantic subtree (sink records, latency
digests, scaling metrics, per-instance counters) and the chaos invariant
reports (checkpoint recoveries included) to match exactly.
"""

import pytest

from repro.engine.runtime import JobConfig
from repro.experiments.chaos_bank import CHAOS_SCENARIOS, _crash_mid_subscale
from repro.experiments.golden import capture_q7_trace
from repro.experiments.harness import ExperimentConfig
from repro.experiments.scenarios import QUICK, make_workload
from repro.faults.chaos import ChaosHarness, ChaosScenario


def test_job_config_rejects_retired_columnar_plane():
    with pytest.raises(ValueError, match=r"'columnar'.*batched, single\)"):
        JobConfig(record_plane="columnar")


def test_experiment_config_rejects_retired_columnar_plane():
    with pytest.raises(ValueError, match=r"'columnar'.*batched, single "):
        ExperimentConfig(workload=make_workload("q7", QUICK),
                         record_plane="columnar")


def test_q7_drrs_rescale_planes_equivalent():
    batched = capture_q7_trace(record_plane="batched")
    single = capture_q7_trace(record_plane="single")
    assert batched["info"]["record_plane"] == "batched"
    assert single["info"]["record_plane"] == "single"
    assert batched["semantic"] == single["semantic"]


def test_q7_noscale_planes_equivalent():
    batched = capture_q7_trace(system=None, record_plane="batched")
    single = capture_q7_trace(system=None, record_plane="single")
    assert batched["semantic"] == single["semantic"]


def test_chaos_crash_mid_subscale_planes_equivalent():
    """The §IV-C acceptance scenario under both planes.

    The batched job is collapsed to per-record eventing by the recovery
    manager / fault injector hooks before any fault fires, so the two runs
    must produce the *same* invariant report: same recoveries (times and
    restored checkpoint ids), same injected faults, same violations (none),
    and the same kernel event count.
    """
    batched = ChaosHarness(CHAOS_SCENARIOS["crash-mid-subscale"],
                           seed=7).run()
    single_scenario = ChaosScenario(
        "crash-mid-subscale-single",
        lambda seed: _crash_mid_subscale(
            seed, job_config=JobConfig(record_plane="single")),
        "crash-mid-subscale forced onto the per-record plane")
    single = ChaosHarness(single_scenario, seed=7).run()

    assert batched.passed and single.passed
    b, s = batched.to_dict(), single.to_dict()
    b.pop("scenario"), s.pop("scenario")
    assert b == s
