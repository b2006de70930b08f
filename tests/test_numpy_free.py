"""The simulator runs on the standard library alone.

numpy is blocked in a fresh interpreter (``sys.modules["numpy"] = None``
makes every ``import numpy`` raise ImportError) and every attempt to
import it is recorded, so a guarded ``try: import numpy`` fallback counts
as a dependency too.  A DRRS rescale and a cut-edge frame round-trip must
still work, reproduce the committed golden trace, and never reach for
numpy.
"""

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "q7_drrs_rescale.json")

_SCRIPT = textwrap.dedent("""
    import builtins
    import json
    import sys

    sys.modules["numpy"] = None
    attempts = []
    _import = builtins.__import__

    def _recording_import(name, *args, **kwargs):
        if name == "numpy" or name.startswith("numpy."):
            attempts.append(name)
        return _import(name, *args, **kwargs)

    builtins.__import__ = _recording_import

    from repro.engine.frames import decode_frame, encode_frame
    from repro.engine.records import Record, RecordBatch
    from repro.experiments.golden import capture_q7_trace

    def fields(rec):
        return tuple(getattr(rec, name) for name in Record.__slots__)

    doc = capture_q7_trace()

    records = [Record(key=f"k{i}", key_group=i % 3, event_time=0.5 * i,
                      value=i, count=i + 1, size_bytes=64.0 + i,
                      created_at=0.1 * i, record_id=i,
                      src_origin="src", src_seq=i)
               for i in range(6)]
    batch = RecordBatch(records, visible_times=[0.2 * i for i in range(6)])
    _, _, [(_, _, _, decoded)] = decode_frame(
        encode_frame([("b", 1, 0.5, batch)], grant=1.0))
    roundtrip = (decoded.visible_times == batch.visible_times
                 and list(map(fields, decoded.records))
                 == list(map(fields, records)))
    print(json.dumps({"semantic": doc["semantic"],
                      "roundtrip": roundtrip,
                      "numpy_attempts": attempts,
                      "numpy_loaded": sys.modules["numpy"] is not None}))
""")


def test_drrs_rescale_and_frames_run_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["roundtrip"] is True
    assert out["numpy_attempts"] == []
    assert out["numpy_loaded"] is False
    with open(GOLDEN) as f:
        assert out["semantic"] == json.load(f)["semantic"]
