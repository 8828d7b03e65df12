"""Check that the traced run's counters repeat exactly across processes with
different hash seeds, so that they can be cited as counts.

    python3 perfbench/repeat_counters.py

Runs ``run.py --trace 1 --seed 1 --seconds 2`` on every workload twice, with
PYTHONHASHSEED=1 and PYTHONHASHSEED=2, and compares every metric whose unit
is ``count``.
Exits 1 if any differs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from cases import WORKLOADS  # noqa: E402

SEED, SECONDS = 1, 2


def counters(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, env=env, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        a = counters(workload, "1")
        b = counters(workload, "2")
        diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        ok = ok and not diff
        print(f"{workload}: {len(a)} counters, "
              f"{'identical' if not diff else 'DIFFER: ' + ', '.join(diff)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
