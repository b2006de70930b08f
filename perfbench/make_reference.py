"""Record the reference output digests the benchmark checks runs against.

Run from the repository root after a change that alters simulated
behaviour on purpose (a performance or simplicity change must not)::

    python3 perfbench/make_reference.py --seeds 0-15

Each digest group is run once per seed on the single-process kernel;
``twitch-shards2`` shares the ``twitch`` group, so its sharded runs are
checked against the single-process outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-15"),
                        help="inclusive range, e.g. 0-15")
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from bench_workloads import WORKLOADS, run_single

    digests = {}
    for workload in WORKLOADS.values():
        if workload.shards > 1 or workload.digest_group in digests:
            continue
        group = digests.setdefault(workload.digest_group, {})
        for seed in args.seeds:
            group[str(seed)] = run_single(workload, seed,
                                          limit_s=120.0)["digest"]
            print(f"{workload.digest_group} seed {seed}: "
                  f"{group[str(seed)]}", flush=True)
    with open(HERE / "reference.json", "w") as f:
        json.dump({"seeds": f"{args.seeds.start}-{args.seeds.stop - 1}",
                   "digests": digests}, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
