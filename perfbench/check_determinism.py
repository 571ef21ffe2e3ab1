"""Check that the benchmark's deterministic metrics repeat exactly.

Runs every workload with ``--trace 1`` (one untraced and one traced pass)
twice, under two ``PYTHONHASHSEED`` values and with two ``--seed`` values
that run the operations in different orders, and compares the ``deterministic:``
lines: ledger cycles and ``improvement_pct`` of every pass, and every
per-layer count listed under ``deterministic`` in ``manifest.json``.  Both
passes of one run must agree, and so must the runs.

    python3 perfbench/check_determinism.py

Exits 1 on any difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run


#: PYTHONHASHSEED values of the two runs
HASH_SEEDS = (1, 12345)
#: --seed values of the two runs: 1 and 5 order every workload's operations
#: differently
ORDER_SEEDS = (1, 5)


def deterministic_line(workload: str, hash_seed: int, seed: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         env=env, timeout=600).stdout.splitlines()
    if not json.loads(out[-1])["correct"]:
        raise SystemExit(f"{workload}: outputs differ from the expected record")
    line = next(ln for ln in out if ln.startswith("deterministic: "))
    return json.loads(line.removeprefix("deterministic: "))


def main() -> int:
    manifest = run.load_json(run.HERE / "manifest.json")
    ok = True
    for workload in manifest["workloads"]:
        seen = [deterministic_line(workload, h, s)
                for h, s in zip(HASH_SEEDS, ORDER_SEEDS)]
        same_passes = all(len(set(map(repr, d[key]))) == 1
                          for d in seen for key in ("tuning_cycles", "improvement_pct"))
        same_runs = seen[0] == seen[1]
        ok = ok and same_passes and same_runs
        print(f"{workload}: passes agree={same_passes}  "
              f"runs (PYTHONHASHSEED, --seed) {HASH_SEEDS[0], ORDER_SEEDS[0]} vs "
              f"{HASH_SEEDS[1], ORDER_SEEDS[1]} agree={same_runs}")
        print(f"  {json.dumps(seen[0])}")
        if not same_runs:
            print(f"  {json.dumps(seen[1])}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
