"""Scheduler × record-plane matrix: one semantic truth, every execution.

The simulator has a single event scheduler (the binary-heap queue), so
what stays of the matrix is that scheduler under every record plane
``JobConfig`` accepts, plus the engine default (``record_plane=None``).
Each execution must reproduce the per-record reference's golden semantic
subtree bit-for-bit.
"""

from repro.engine.runtime import JobConfig
from repro.experiments.golden import capture_q7_trace
from repro.simulation import Simulator

PLANES = (None,) + JobConfig.RECORD_PLANES


def test_q7_rescale_identical_across_scheduler_plane_matrix():
    assert not hasattr(Simulator(), "scheduler")
    reference = capture_q7_trace(record_plane="single")
    for plane in PLANES:
        trace = capture_q7_trace(record_plane=plane)
        assert trace["info"]["record_plane"] == \
            (plane or JobConfig.record_plane)
        assert "scheduler" not in trace["info"]
        assert trace["semantic"] == reference["semantic"], \
            f"semantic drift under plane={plane}"


def test_q7_noscale_identical_across_scheduler_plane_matrix():
    reference = capture_q7_trace(system=None, record_plane="single")
    for plane in PLANES:
        trace = capture_q7_trace(system=None, record_plane=plane)
        assert trace["semantic"] == reference["semantic"], \
            f"semantic drift under plane={plane}"
