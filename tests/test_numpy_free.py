"""The simulator runs on the standard library alone.

numpy is blocked in a fresh interpreter (``sys.modules["numpy"] = None``
makes every ``import numpy`` raise ImportError) and every attempt to
import it is recorded, so a guarded ``try: import numpy`` fallback counts
as a dependency too.  A DRRS rescale must still work, reproduce the
committed golden trace, and never reach for numpy.
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

    from repro.experiments.golden import capture_q7_trace

    doc = capture_q7_trace()
    print(json.dumps({"semantic": doc["semantic"],
                      "numpy_attempts": attempts,
                      "numpy_loaded": sys.modules["numpy"] is not None}))
""")


def test_drrs_rescale_runs_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["numpy_attempts"] == []
    assert out["numpy_loaded"] is False
    with open(GOLDEN) as f:
        assert out["semantic"] == json.load(f)["semantic"]
