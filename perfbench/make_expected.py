"""Regenerate ``expected.json``: every operation's output record at tier 0.

The Tier-0 interpreter is the oracle: the benchmark runs its operations at
Tier 1 (the trace JIT) and must reproduce these records exactly.  Records
for other tune seeds already in the file are kept.

Alongside the records, ``batch_vs_serial`` sets each ``tune-batch`` record
against the ``tune-serial`` record of the same tune, so the divergence of the
two engines is written from the records themselves.

    python3 perfbench/make_expected.py [--tune-seed 1]
"""

from __future__ import annotations

import argparse
import json

import run

#: output-record fields compared between the two engines
COMPARED = ("n_ratings", "total_cycles", "invocations", "program_runs", "improvement_pct")


def batch_vs_serial(records: dict) -> dict:
    """Each tune-batch record against the tune-serial record of the same tune."""
    serial = {rec["operation"].rsplit("/", 1)[0]: rec for rec in records["tune-serial"]}
    out = {}
    for batch in records["tune-batch"]:
        tune = batch["operation"].rsplit("/", 1)[0]
        ser = serial[tune]
        out[tune] = {
            key: {"serial": ser[key], "batch": batch[key],
                  "batch_over_serial": round(batch[key] / ser[key], 3)}
            for key in COMPARED
        } | {
            "disabled_only_serial": sorted(set(ser["disabled_flags"]) - set(batch["disabled_flags"])),
            "disabled_only_batch": sorted(set(batch["disabled_flags"]) - set(ser["disabled_flags"])),
        }
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tune-seed", type=int, default=run.DEFAULT_TUNE_SEED)
    args = p.parse_args()

    manifest = run.load_json(run.HERE / "manifest.json")
    run.import_program()
    import operations

    path = run.HERE / "expected.json"
    doc = run.load_json(path) if path.exists() else {
        "about": "Output record of every operation, per tune seed and workload, "
                 "generated at exec_tier=0 by perfbench/make_expected.py",
        "tune_seeds": {},
    }
    records = doc["tune_seeds"].setdefault(str(args.tune_seed), {})
    for workload in manifest["workloads"]:
        ops = operations.load_operations(manifest, workload, tune_seed=args.tune_seed)
        records[workload] = []
        for op in ops:
            operations.reset_process_caches()
            result, improvement = operations.run_operation(
                op, tune_seed=args.tune_seed, exec_tier=0
            )
            records[workload].append(operations.output_record(op, result, improvement))
            print(json.dumps(records[workload][-1]), flush=True)
    doc.setdefault("batch_vs_serial", {})[str(args.tune_seed)] = batch_vs_serial(records)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
